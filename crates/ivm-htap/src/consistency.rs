//! Cross-system consistency checking.

pub use ivm_core::rows_equal_as_multisets;

/// Outcome of a pipeline-wide consistency check.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyReport {
    /// Mirrored tables whose OLTP and OLAP contents diverge.
    pub mismatched_tables: Vec<String>,
    /// Materialized views that disagree with a from-scratch recomputation.
    pub mismatched_views: Vec<String>,
}

impl ConsistencyReport {
    /// True when everything matched.
    pub fn is_consistent(&self) -> bool {
        self.mismatched_tables.is_empty() && self.mismatched_views.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_engine::Value;

    #[test]
    fn multiset_semantics() {
        let a = vec![vec![Value::Integer(1)], vec![Value::Integer(1)]];
        let b = vec![vec![Value::Integer(1)]];
        assert!(!rows_equal_as_multisets(&a, &b), "counts matter");
        let c = vec![vec![Value::Double(1.0)], vec![Value::Integer(1)]];
        assert!(
            rows_equal_as_multisets(&a, &c),
            "numeric widening normalized"
        );
        let d = vec![vec![Value::Integer(1)], vec![Value::Integer(2)]];
        assert!(!rows_equal_as_multisets(&a, &d));
    }

    #[test]
    fn order_is_irrelevant() {
        let a = vec![vec![Value::from("x")], vec![Value::from("y")]];
        let b = vec![vec![Value::from("y")], vec![Value::from("x")]];
        assert!(rows_equal_as_multisets(&a, &b));
    }
}
