//! The seeded generator and the reference model.
//!
//! Everything the system under test sees is SQL text (or rows) produced
//! here from `--seed`. The generator applies every change to its own
//! [`AggModel`] first, so the model — never the engine's recompute — is the
//! reference every result is checked against.

use std::collections::HashMap;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How keys (groups, customers) are drawn.
#[derive(Debug, Clone)]
pub enum Keys {
    Uniform(usize),
    /// Zipf with exponent 1: key `k` has weight `1 / (k + 1)`, so a few
    /// keys are hot. Holds the cumulative distribution.
    Zipf(Vec<f64>),
}

impl Keys {
    pub fn zipf(n: usize) -> Keys {
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64 / total;
                acc
            })
            .collect();
        Keys::Zipf(cdf)
    }

    pub fn draw(&self, rng: &mut Rng) -> u32 {
        match self {
            Keys::Uniform(n) => rng.below(*n) as u32,
            Keys::Zipf(cdf) => {
                let u = rng.unit();
                cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u32
            }
        }
    }
}

/// FNV-1a over every SQL string issued: two runs with equal digests and
/// equal operation counts issued identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, sql: &str) {
        for b in sql.bytes().chain([b'\n']) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Reference model of one keyed base table and the `SUM, COUNT … GROUP BY
/// key` view over it. Ids are dense (0, 1, 2, …), so the table is a vector.
#[derive(Debug, Default)]
pub struct AggModel {
    rows: Vec<Option<(u32, i64)>>,
    live: usize,
    view: HashMap<u32, (i64, i64)>,
}

impl AggModel {
    /// Append the next id with `(key, value)`; returns the id.
    pub fn insert(&mut self, key: u32, value: i64) -> usize {
        self.rows.push(Some((key, value)));
        self.live += 1;
        let g = self.view.entry(key).or_insert((0, 0));
        g.0 += value;
        g.1 += 1;
        self.rows.len() - 1
    }

    /// Delete `id` if live; returns whether a row went away.
    pub fn delete(&mut self, id: usize) -> bool {
        let Some((key, value)) = self.rows.get_mut(id).and_then(Option::take) else {
            return false;
        };
        self.live -= 1;
        let g = self.view.get_mut(&key).expect("live row has a group");
        g.0 -= value;
        g.1 -= 1;
        // A group with no rows left is absent from the view.
        if g.1 == 0 {
            self.view.remove(&key);
        }
        true
    }

    /// Set `id`'s value if live; returns whether a row changed.
    pub fn update(&mut self, id: usize, value: i64) -> bool {
        let Some(Some((key, old))) = self.rows.get_mut(id) else {
            return false;
        };
        let g = self.view.get_mut(key).expect("live row has a group");
        g.0 += value - *old;
        *old = value;
        true
    }

    pub fn next_id(&self) -> usize {
        self.rows.len()
    }

    pub fn live_rows(&self) -> usize {
        self.live
    }

    pub fn is_live(&self, id: usize) -> bool {
        matches!(self.rows.get(id), Some(Some(_)))
    }

    /// `(sum, count)` of a group, `None` when the view has no such row.
    pub fn group(&self, key: u32) -> Option<(i64, i64)> {
        self.view.get(&key).copied()
    }

    pub fn groups(&self) -> impl Iterator<Item = (u32, (i64, i64))> + '_ {
        self.view.iter().map(|(k, v)| (*k, *v))
    }

    /// Live `(key, value)` pairs, for checks that re-aggregate the base.
    pub fn live_pairs(&self) -> impl Iterator<Item = (u32, i64)> + '_ {
        self.rows.iter().flatten().copied()
    }
}

/// How one workload's table and view are spelled in SQL.
#[derive(Debug, Clone, Copy)]
pub struct Dialect {
    pub table: &'static str,
    pub value_col: &'static str,
    /// One `VALUES` tuple.
    pub row_sql: fn(id: usize, key: u32, value: i64) -> String,
    /// Point read of the maintained view by key.
    pub lookup_sql: fn(key: u32) -> String,
    /// The view's key columns for `key`, tab-joined as the wire prints them.
    pub view_key: fn(key: u32) -> String,
}

/// Share of inserts and deletes in a DML mix, in percent; the rest are
/// updates.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub insert_pct: usize,
    pub delete_pct: usize,
}

/// One generated statement and the number of rows it touches.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub sql: String,
    pub rows: usize,
}

/// Generates DML for one table and keeps the reference model in step.
#[derive(Debug)]
pub struct DmlGen {
    rng: Rng,
    keys: Keys,
    pub dialect: Dialect,
    pub model: AggModel,
}

impl DmlGen {
    pub fn new(seed: u64, keys: Keys, dialect: Dialect) -> DmlGen {
        DmlGen {
            rng: Rng::new(seed),
            keys,
            dialect,
            model: AggModel::default(),
        }
    }

    /// `n` new rows, already applied to the model.
    pub fn new_rows(&mut self, n: usize) -> Vec<(usize, u32, i64)> {
        (0..n)
            .map(|_| {
                let key = self.keys.draw(&mut self.rng);
                let value = self.rng.between(1, 99) as i64;
                (self.model.insert(key, value), key, value)
            })
            .collect()
    }

    /// Multi-row `INSERT` of `n` new rows.
    pub fn insert(&mut self, n: usize) -> Stmt {
        let tuples: Vec<String> = self
            .new_rows(n)
            .into_iter()
            .map(|(id, key, value)| (self.dialect.row_sql)(id, key, value))
            .collect();
        Stmt {
            sql: format!(
                "INSERT INTO {} VALUES {}",
                self.dialect.table,
                tuples.join(", ")
            ),
            rows: n,
        }
    }

    /// An id range that starts at a live id and holds `n` live rows (fewer
    /// only where the table ends first): ids deleted earlier leave holes,
    /// and a range of fixed width would touch fewer rows as they add up.
    fn live_range(&mut self, n: usize) -> (usize, usize) {
        assert!(self.model.live_rows() > 0, "no live row to pick");
        let a = loop {
            let id = self.rng.below(self.model.next_id());
            if self.model.is_live(id) {
                break id;
            }
        };
        let live = (a..self.model.next_id()).filter(|&id| self.model.is_live(id));
        (a, live.take(n).last().unwrap_or(a))
    }

    /// `DELETE` by id range; touches `n` rows (fewer at the table's end).
    pub fn delete(&mut self, n: usize) -> Stmt {
        let (a, b) = self.live_range(n);
        let rows = (a..=b).filter(|&id| self.model.delete(id)).count();
        Stmt {
            sql: format!(
                "DELETE FROM {} WHERE id BETWEEN {a} AND {b}",
                self.dialect.table
            ),
            rows,
        }
    }

    /// `UPDATE` by id range setting the value column to one new value.
    pub fn update(&mut self, n: usize) -> Stmt {
        let (a, b) = self.live_range(n);
        let value = self.rng.between(1, 99) as i64;
        let rows = (a..=b).filter(|&id| self.model.update(id, value)).count();
        Stmt {
            sql: format!(
                "UPDATE {} SET {} = {value} WHERE id BETWEEN {a} AND {b}",
                self.dialect.table, self.dialect.value_col
            ),
            rows,
        }
    }

    /// One statement of a random kind per `mix`, touching up to
    /// `rows_min..=rows_max` rows.
    pub fn mixed(&mut self, mix: Mix, rows_min: usize, rows_max: usize) -> Stmt {
        let n = self.rng.between(rows_min, rows_max);
        let roll = self.rng.below(100);
        if roll < mix.insert_pct {
            self.insert(n)
        } else if roll < mix.insert_pct + mix.delete_pct {
            self.delete(n)
        } else {
            self.update(n)
        }
    }

    /// The view row the model expects for `key`, rendered as the wire
    /// prints it (`None` = the view has no row for the key).
    pub fn expected_view_row(&self, key: u32) -> Option<String> {
        self.model
            .group(key)
            .map(|(sum, count)| format!("{}\t{sum}\t{count}", (self.dialect.view_key)(key)))
    }

    /// Every view row the model expects, sorted.
    pub fn expected_view(&self) -> Vec<String> {
        let mut rows: Vec<String> = self
            .model
            .groups()
            .map(|(key, (sum, count))| format!("{}\t{sum}\t{count}", (self.dialect.view_key)(key)))
            .collect();
        rows.sort();
        rows
    }
}

/// Draws the keys to look up: same distribution as the writes, own stream,
/// so reads do not perturb the write stream.
#[derive(Debug)]
pub struct LookupGen {
    rng: Rng,
    keys: Keys,
}

impl LookupGen {
    pub fn new(seed: u64, keys: Keys) -> LookupGen {
        LookupGen {
            // A fixed offset gives reads a stream of their own per seed.
            rng: Rng::new(seed ^ 0x5EAD_5EAD_5EAD_5EAD),
            keys,
        }
    }

    pub fn key(&mut self) -> u32 {
        self.keys.draw(&mut self.rng)
    }

    /// True with probability `pct` percent.
    pub fn chance(&mut self, pct: usize) -> bool {
        self.rng.below(100) < pct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_insert_update_delete_of_the_same_key() {
        let mut m = AggModel::default();
        let a = m.insert(7, 10);
        let b = m.insert(7, 5);
        let c = m.insert(8, 1);
        assert_eq!(m.group(7), Some((15, 2)));

        assert!(m.update(a, 4));
        assert_eq!(m.group(7), Some((9, 2)));

        assert!(m.delete(a));
        assert_eq!(m.group(7), Some((5, 1)));
        // A second delete or an update of the same id touches nothing.
        assert!(!m.delete(a));
        assert!(!m.update(a, 99));
        assert_eq!(m.group(7), Some((5, 1)));

        assert!(m.delete(b));
        assert_eq!(m.group(7), None, "an emptied group leaves the view");
        assert_eq!(m.group(8), Some((1, 1)));
        assert_eq!((m.live_rows(), m.next_id()), (1, 3));
        assert!(m.is_live(c) && !m.is_live(b) && !m.is_live(99));
    }

    fn groups_dialect() -> Dialect {
        Dialect {
            table: "t",
            value_col: "v",
            row_sql: |id, key, value| format!("({id}, {key}, {value})"),
            lookup_sql: |key| format!("SELECT * FROM mv WHERE k = {key}"),
            view_key: |key| key.to_string(),
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_statements_and_another_seed_does_not() {
        let run = |seed| {
            let mut g = DmlGen::new(seed, Keys::Uniform(10), groups_dialect());
            let mut d = Digest::default();
            d.add(&g.insert(50).sql);
            for _ in 0..100 {
                d.add(
                    &g.mixed(
                        Mix {
                            insert_pct: 60,
                            delete_pct: 20,
                        },
                        1,
                        8,
                    )
                    .sql,
                );
            }
            d.hex()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn range_statements_report_exactly_the_rows_the_model_changed() {
        let mut g = DmlGen::new(3, Keys::Uniform(4), groups_dialect());
        g.insert(20);
        let before = g.model.live_rows();
        let del = g.delete(5);
        assert!((1..=5).contains(&del.rows));
        assert_eq!(g.model.live_rows(), before - del.rows);
        let total: i64 = g.model.groups().map(|(_, (_, count))| count).sum();
        assert_eq!(total as usize, g.model.live_rows());
        let sums: i64 = g.model.groups().map(|(_, (sum, _))| sum).sum();
        assert_eq!(sums, g.model.live_pairs().map(|(_, v)| v).sum::<i64>());
    }

    #[test]
    fn a_range_spans_the_holes_to_hold_its_rows() {
        let mut g = DmlGen::new(3, Keys::Uniform(4), groups_dialect());
        g.insert(1000);
        for _ in 0..100 {
            let del = g.delete(5);
            let last_id = g.model.next_id() - 1;
            let reaches_the_end = del.sql.ends_with(&format!("AND {last_id}"));
            assert!(del.rows == 5 || reaches_the_end, "{del:?}");
        }
        assert!(g.model.live_rows() < 520);
    }

    #[test]
    fn zipf_favours_low_keys() {
        let keys = Keys::zipf(100);
        let mut rng = Rng::new(9);
        let mut hits = [0usize; 100];
        for _ in 0..10_000 {
            hits[keys.draw(&mut rng) as usize] += 1;
        }
        assert!(hits[0] > 5 * hits[9].max(1) / 2, "{hits:?}");
        assert!(hits[0] > 1_500 && hits[0] < 2_500, "{}", hits[0]);
    }
}
