//! The bound-plan cache: optimized physical plans keyed by SQL text and
//! the executor settings the lowered shape depends on.
//!
//! One type backs both the writer's per-[`crate::Database`] cache
//! (repeated maintenance scripts skip planning, optimization, and
//! lowering) and the [`crate::SnapshotHub`]'s cross-reader
//! prepared-statement cache (N readers pay each query's planning cost
//! once). Key construction, lookup, and insertion are separate calls so
//! the hub can allocate the key and plan outside its lock.

use std::collections::HashMap;
use std::sync::Arc;

use crate::exec::ExecConfig;
use crate::planner::physical::PhysicalPlan;

/// A planned query: the optimized physical plan and its output column
/// names.
pub(crate) type Planned = (Arc<PhysicalPlan>, Vec<String>);

/// Bound on distinct keys held; a fixed maintenance-script set never
/// comes close.
const PLAN_CACHE_CAP: usize = 1024;

/// Plan identity: the SQL text plus the settings lowering depends on.
/// `lower_with_budget` bakes a budget-dependent build-side choice into
/// the physical plan, so a plan lowered under one memory budget must
/// never be reused under another — keying (rather than invalidating)
/// also lets a session that flips a setting back re-hit its earlier
/// plans, and lets sessions with different settings share one cache
/// without evicting each other's entries.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    sql: String,
    budget: Option<usize>,
    parallelism: usize,
}

impl PlanKey {
    pub(crate) fn new(sql: &str, config: &ExecConfig) -> PlanKey {
        PlanKey {
            sql: sql.to_string(),
            budget: config.budget().limit(),
            parallelism: config.parallelism(),
        }
    }
}

/// A cache of [`Planned`] queries, each valid while the catalog shape
/// (tables, views, indexes) is at the generation it was planned under.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    entries: HashMap<PlanKey, (u64, Planned)>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// The plan cached under `key`, if it was planned at catalog-shape
    /// `generation`. Counts a hit or a miss.
    pub(crate) fn get(&mut self, key: &PlanKey, generation: u64) -> Option<Planned> {
        match self.entries.get(key) {
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

    /// Store `plan`, planned at catalog-shape `generation`. At the cap,
    /// stale-generation entries are evicted first, and everything if
    /// current-generation keys alone fill the cache.
    pub(crate) fn insert(&mut self, key: PlanKey, generation: u64, plan: Planned) {
        if self.entries.len() >= PLAN_CACHE_CAP {
            self.entries.retain(|_, (at, _)| *at == generation);
            if self.entries.len() >= PLAN_CACHE_CAP {
                self.entries.clear();
            }
        }
        self.entries.insert(key, (generation, plan));
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
    use crate::exec::MemoryBudget;

    fn plan() -> Planned {
        (Arc::new(PhysicalPlan::Dual), vec!["c".to_string()])
    }

    #[test]
    fn identity_generation_and_eviction() {
        let base = ExecConfig::new(1, MemoryBudget::unbounded());
        let key = |sql: &str| PlanKey::new(sql, &base);
        let mut cache = PlanCache::default();
        assert!(cache.get(&key("q"), 0).is_none());
        cache.insert(key("q"), 0, plan());
        // Same key + generation hits; a stale generation misses.
        assert_eq!(cache.get(&key("q"), 0).unwrap().1, vec!["c".to_string()]);
        assert!(cache.get(&key("q"), 1).is_none());
        assert_eq!(cache.stats(), (1, 1, 2));

        // Budget and parallelism are part of identity: each setting gets
        // its own entry, and the original re-hits when the setting
        // returns.
        let budgeted = ExecConfig::new(1, MemoryBudget::with_limit(4096));
        let mut parallel = ExecConfig::new(2, MemoryBudget::unbounded());
        for other in [&budgeted, &parallel] {
            assert!(cache.get(&PlanKey::new("q", other), 0).is_none());
            cache.insert(PlanKey::new("q", other), 0, plan());
        }
        parallel.set_parallelism(1);
        assert!(cache.get(&PlanKey::new("q", &parallel), 0).is_some());
        assert_eq!(cache.stats(), (3, 2, 4));

        // Cap eviction drops stale generations and keeps current ones.
        cache.clear();
        for i in 0..PLAN_CACHE_CAP - 1 {
            cache.insert(key(&format!("old{i}")), 0, plan());
        }
        cache.insert(key("current"), 1, plan());
        assert_eq!(cache.stats().0, PLAN_CACHE_CAP);
        cache.insert(key("next"), 1, plan());
        assert_eq!(cache.stats().0, 2, "stale generation evicted first");
        assert!(cache.get(&key("current"), 1).is_some());
        // Current-generation keys alone at the cap: wholesale reset.
        for i in 0..PLAN_CACHE_CAP {
            cache.insert(key(&format!("k{i}")), 1, plan());
        }
        assert!(cache.stats().0 <= PLAN_CACHE_CAP);
        assert!(cache.get(&key("k0"), 1).is_none(), "reset at the cap");
    }
}
