//! Compiler switches.
//!
//! The paper: "For now, we only offer a small number of alternatives, and
//! choosing one is controlled manually using compiler switches". These are
//! those switches.

pub use ivm_sql::Dialect;

/// How Step 2 (folding ΔV into V) is emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpsertStrategy {
    /// `INSERT OR REPLACE … LEFT JOIN` (the paper's Listing 2 shape).
    /// Requires an index on the view table's key.
    #[default]
    LeftJoinUpsert,
    /// Fold the current view into the delta space and re-aggregate
    /// ("replacing the materialized table with a UNION and regrouping").
    /// No index required.
    UnionRegroup,
    /// Merge via a FULL OUTER JOIN into a staging table, then swap.
    FullOuterJoin,
}

impl UpsertStrategy {
    /// Human-readable name (stored in metadata tables).
    pub fn name(&self) -> &'static str {
        match self {
            UpsertStrategy::LeftJoinUpsert => "left_join_upsert",
            UpsertStrategy::UnionRegroup => "union_regroup",
            UpsertStrategy::FullOuterJoin => "full_outer_join",
        }
    }

    /// Parse a strategy name.
    pub fn parse(s: &str) -> Option<UpsertStrategy> {
        match s {
            "left_join_upsert" => Some(UpsertStrategy::LeftJoinUpsert),
            "union_regroup" => Some(UpsertStrategy::UnionRegroup),
            "full_outer_join" => Some(UpsertStrategy::FullOuterJoin),
            _ => None,
        }
    }

    /// Whether the strategy relies on a unique index over the view key.
    pub fn needs_index(&self) -> bool {
        matches!(self, UpsertStrategy::LeftJoinUpsert)
    }
}

/// When maintenance scripts run (§3: "run eagerly, i.e. every time a change
/// is registered on the base table, or lazily, i.e. refreshing the
/// materialized view when it is queried").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PropagationMode {
    /// Propagate on every base-table change.
    Eager,
    /// Propagate when the view is queried (the demo's default).
    #[default]
    Lazy,
    /// Propagate once the delta backlog reaches `n` statements — the
    /// batching trade-off of §1 (amortization vs recency).
    Batch(usize),
}

/// When the index over the materialized view key is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexCreation {
    /// `PRIMARY KEY` inline in the `CREATE TABLE`.
    Inline,
    /// `CREATE UNIQUE INDEX` after the initial population — the paper's
    /// preferred path ("it is more efficient to build small indexes for
    /// each chunk and merge them" after populating V).
    #[default]
    AfterPopulate,
    /// No index (valid only with [`UpsertStrategy::UnionRegroup`]).
    None,
}

/// All compiler switches.
#[derive(Debug, Clone, Default)]
pub struct IvmFlags {
    /// Output SQL dialect (footnote 5's Coral-style flag).
    pub dialect: Dialect,
    /// Step-2 emission strategy.
    pub upsert_strategy: UpsertStrategy,
    /// When propagation scripts run.
    pub propagation: PropagationMode,
    /// When the view-key index is created.
    pub index_creation: IndexCreation,
    /// Emit `--` comments into generated scripts (for the demo shell).
    pub comments: bool,
}

impl IvmFlags {
    /// Paper defaults: DuckDB dialect, Listing-2 upsert, lazy refresh,
    /// ART built after population.
    pub fn paper_defaults() -> IvmFlags {
        IvmFlags {
            comments: true,
            ..Default::default()
        }
    }

    /// Target PostgreSQL output.
    pub fn for_postgres() -> IvmFlags {
        IvmFlags {
            dialect: Dialect::Postgres,
            ..IvmFlags::paper_defaults()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_round_trip() {
        for s in [
            UpsertStrategy::LeftJoinUpsert,
            UpsertStrategy::UnionRegroup,
            UpsertStrategy::FullOuterJoin,
        ] {
            assert_eq!(UpsertStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(UpsertStrategy::parse("bogus"), None);
    }

    #[test]
    fn defaults_match_paper() {
        let f = IvmFlags::paper_defaults();
        assert_eq!(f.dialect, Dialect::DuckDb);
        assert_eq!(f.upsert_strategy, UpsertStrategy::LeftJoinUpsert);
        assert_eq!(f.propagation, PropagationMode::Lazy);
        assert!(f.upsert_strategy.needs_index());
        assert!(!UpsertStrategy::UnionRegroup.needs_index());
    }
}
