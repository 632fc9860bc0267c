//! The bound-plan cache: optimized physical plans keyed by SQL text.
//!
//! One type backs both the writer's per-[`crate::Database`] cache
//! (repeated maintenance scripts skip planning, optimization, and
//! lowering) and the [`crate::SnapshotHub`]'s cross-reader
//! prepared-statement cache (N readers pay each query's planning cost
//! once). Lookup borrows the SQL text and insertion is a separate call,
//! so the hub plans a miss outside its lock.

use std::collections::HashMap;
use std::sync::Arc;

use crate::planner::physical::PhysicalPlan;

/// A planned query: the optimized physical plan and its output column
/// names.
pub(crate) type Planned = (Arc<PhysicalPlan>, Vec<String>);

/// Bound on distinct keys held; a fixed maintenance-script set never
/// comes close.
const PLAN_CACHE_CAP: usize = 1024;

/// A cache of [`Planned`] queries keyed by their SQL text, each valid
/// while the catalog shape (tables, views, indexes) is at the generation
/// it was planned under. Lowering reads the catalog alone — no executor
/// setting — so one entry serves every memory budget and worker count.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    entries: HashMap<String, (u64, Planned)>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// The plan cached for `sql`, if it was planned at catalog-shape
    /// `generation`. Counts a hit or a miss.
    pub(crate) fn get(&mut self, sql: &str, generation: u64) -> Option<Planned> {
        match self.entries.get(sql) {
            Some((planned_at, plan)) if *planned_at == generation => {
                self.hits += 1;
                Some(plan.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store `plan` for `sql`, planned at catalog-shape `generation`. At
    /// the cap, stale-generation entries are evicted first, and
    /// everything if current-generation keys alone fill the cache.
    pub(crate) fn insert(&mut self, sql: &str, generation: u64, plan: Planned) {
        if self.entries.len() >= PLAN_CACHE_CAP {
            self.entries.retain(|_, (at, _)| *at == generation);
            if self.entries.len() >= PLAN_CACHE_CAP {
                self.entries.clear();
            }
        }
        self.entries.insert(sql.to_string(), (generation, plan));
    }

    /// Drop every entry (the counters keep their history).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// `(entries, hits, misses)`.
    pub(crate) fn stats(&self) -> (usize, u64, u64) {
        (self.entries.len(), self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Planned {
        (Arc::new(PhysicalPlan::Dual), vec!["c".to_string()])
    }

    #[test]
    fn identity_generation_and_eviction() {
        let mut cache = PlanCache::default();
        assert!(cache.get("q", 0).is_none());
        cache.insert("q", 0, plan());
        // Same SQL + generation hits; a stale generation misses.
        assert_eq!(cache.get("q", 0).unwrap().1, vec!["c".to_string()]);
        assert!(cache.get("q", 1).is_none());
        assert_eq!(cache.stats(), (1, 1, 2));

        // Cap eviction drops stale generations and keeps current ones.
        cache.clear();
        for i in 0..PLAN_CACHE_CAP - 1 {
            cache.insert(&format!("old{i}"), 0, plan());
        }
        cache.insert("current", 1, plan());
        assert_eq!(cache.stats().0, PLAN_CACHE_CAP);
        cache.insert("next", 1, plan());
        assert_eq!(cache.stats().0, 2, "stale generation evicted first");
        assert!(cache.get("current", 1).is_some());
        // Current-generation keys alone at the cap: wholesale reset.
        for i in 0..PLAN_CACHE_CAP {
            cache.insert(&format!("k{i}"), 1, plan());
        }
        assert!(cache.stats().0 <= PLAN_CACHE_CAP);
        assert!(cache.get("k0", 1).is_none(), "reset at the cap");
    }
}
