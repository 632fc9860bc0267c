//! Workload generators for the experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Listing-1 workload: `groups(group_index VARCHAR, group_value
/// INTEGER)` with a configurable number of distinct groups.
#[derive(Debug, Clone)]
pub struct GroupsWorkload {
    /// Number of distinct group keys.
    pub num_groups: usize,
    rng: StdRng,
}

/// One base-table change.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupChange {
    /// Group key, e.g. `g0042`.
    pub group_index: String,
    /// Value column.
    pub group_value: i64,
    /// Insertion (`true`) or deletion of a previously-inserted row
    /// (`false`).
    pub insertion: bool,
}

impl GroupsWorkload {
    /// Deterministic workload (fixed seed per experiment).
    pub fn new(num_groups: usize, seed: u64) -> GroupsWorkload {
        GroupsWorkload {
            num_groups,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Group key for an index.
    pub fn group_key(&self, i: usize) -> String {
        format!("g{i:06}")
    }

    /// Generate `n` base rows, uniformly spread over the groups.
    pub fn base_rows(&mut self, n: usize) -> Vec<(String, i64)> {
        (0..n)
            .map(|_| {
                let g = self.rng.gen_range(0..self.num_groups);
                let v = self.rng.gen_range(1..100i64);
                (self.group_key(g), v)
            })
            .collect()
    }

    /// Generate a delta batch: `insert_ratio` of the rows are insertions;
    /// deletions are drawn from `existing` rows (and removed from it).
    pub fn delta_batch(
        &mut self,
        n: usize,
        insert_ratio: f64,
        existing: &mut Vec<(String, i64)>,
    ) -> Vec<GroupChange> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let do_insert = existing.is_empty() || self.rng.gen_bool(insert_ratio);
            if do_insert {
                let g = self.rng.gen_range(0..self.num_groups);
                let v = self.rng.gen_range(1..100i64);
                let row = (self.group_key(g), v);
                existing.push(row.clone());
                out.push(GroupChange {
                    group_index: row.0,
                    group_value: row.1,
                    insertion: true,
                });
            } else {
                let idx = self.rng.gen_range(0..existing.len());
                let row = existing.swap_remove(idx);
                out.push(GroupChange {
                    group_index: row.0,
                    group_value: row.1,
                    insertion: false,
                });
            }
        }
        out
    }

    /// Rows as a multi-row `INSERT INTO groups VALUES …` statement.
    pub fn insert_statement(rows: &[(String, i64)]) -> String {
        let values: Vec<String> = rows.iter().map(|(g, v)| format!("('{g}', {v})")).collect();
        format!("INSERT INTO groups VALUES {}", values.join(", "))
    }

    /// Rows as chunked INSERT statements (keeps statements parseable fast).
    pub fn insert_statements(rows: &[(String, i64)], chunk: usize) -> Vec<String> {
        rows.chunks(chunk).map(Self::insert_statement).collect()
    }
}

/// The sales/HTAP workload of the E3 experiment: an `orders` fact table
/// plus a `customers` dimension.
#[derive(Debug)]
pub struct SalesWorkload {
    /// Number of customers.
    pub num_customers: usize,
    rng: StdRng,
    next_order_id: i64,
}

impl SalesWorkload {
    /// Deterministic workload.
    pub fn new(num_customers: usize, seed: u64) -> SalesWorkload {
        SalesWorkload {
            num_customers,
            rng: StdRng::seed_from_u64(seed),
            next_order_id: 1,
        }
    }

    /// DDL for both tables.
    pub fn ddl() -> [&'static str; 2] {
        [
            "CREATE TABLE customers (id INTEGER PRIMARY KEY, name VARCHAR, region VARCHAR)",
            "CREATE TABLE orders (id INTEGER PRIMARY KEY, cust INTEGER, amount INTEGER)",
        ]
    }

    /// Customer rows.
    pub fn customer_statements(&self) -> Vec<String> {
        let regions = ["north", "south", "east", "west"];
        (0..self.num_customers)
            .map(|i| {
                format!(
                    "INSERT INTO customers VALUES ({i}, 'customer_{i}', '{}')",
                    regions[i % regions.len()]
                )
            })
            .collect()
    }

    /// Generate `n` order-insert statements.
    pub fn order_statements(&mut self, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| {
                let id = self.next_order_id;
                self.next_order_id += 1;
                let cust = self.rng.gen_range(0..self.num_customers as i64);
                let amount = self.rng.gen_range(1..500i64);
                format!("INSERT INTO orders VALUES ({id}, {cust}, {amount})")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = GroupsWorkload::new(10, 42);
        let mut b = GroupsWorkload::new(10, 42);
        assert_eq!(a.base_rows(100), b.base_rows(100));
    }

    #[test]
    fn delta_deletions_come_from_existing() {
        let mut w = GroupsWorkload::new(5, 7);
        let mut existing = w.base_rows(50);
        // Deletions must target rows that existed at that point in the
        // batch: base rows or insertions earlier in the same batch.
        let mut live: std::collections::HashMap<(String, i64), i64> = existing
            .iter()
            .map(|r| (r.clone(), 0i64))
            .fold(std::collections::HashMap::new(), |mut m, (k, _)| {
                *m.entry(k).or_insert(0) += 1;
                m
            });
        let batch = w.delta_batch(30, 0.5, &mut existing);
        for c in &batch {
            let key = (c.group_index.clone(), c.group_value);
            let counter = live.entry(key).or_insert(0);
            if c.insertion {
                *counter += 1;
            } else {
                *counter -= 1;
                assert!(*counter >= 0, "deletion of a row that never existed");
            }
        }
        assert_eq!(batch.len(), 30);
    }

    #[test]
    fn insert_statement_shape() {
        let stmt = GroupsWorkload::insert_statement(&[("g1".into(), 5)]);
        assert_eq!(stmt, "INSERT INTO groups VALUES ('g1', 5)");
        let chunks = GroupsWorkload::insert_statements(&[("a".into(), 1), ("b".into(), 2)], 1);
        assert_eq!(chunks.len(), 2);
    }

    #[test]
    fn sales_statements_parse() {
        let mut w = SalesWorkload::new(4, 1);
        for stmt in w
            .customer_statements()
            .iter()
            .chain(w.order_statements(5).iter())
        {
            ivm_sql::parse_statement(stmt).unwrap();
        }
    }
}
