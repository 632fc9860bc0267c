//! The Figure-3 pipeline: OLTP writes → triggers → delta ship → OLAP IVM.

use ivm_core::{IvmFlags, IvmSession};
use ivm_engine::QueryResult;
use ivm_oltp::{OltpEngine, OltpResult};

use crate::bridge::{Bridge, ShipStats};
use crate::consistency::{rows_equal_as_multisets, ConsistencyReport};
use crate::error::HtapError;

/// The cross-system HTAP pipeline: "a trusted and efficient OLTP system
/// (PostgreSQL) with an efficient analytical engine (DuckDB)" (§3), with
/// OpenIVM-generated SQL maintaining the analytical views.
#[derive(Debug)]
pub struct HtapPipeline {
    oltp: OltpEngine,
    olap: IvmSession,
    bridge: Bridge,
}

impl HtapPipeline {
    /// Build a pipeline with the given OLAP-side compiler flags.
    pub fn new(flags: IvmFlags) -> HtapPipeline {
        HtapPipeline {
            oltp: OltpEngine::new(),
            olap: IvmSession::new(flags),
            bridge: Bridge::new(),
        }
    }

    /// Paper-default flags.
    pub fn with_defaults() -> HtapPipeline {
        HtapPipeline::new(IvmFlags::paper_defaults())
    }

    /// Reopen a pipeline whose OLAP side lives in a durable data
    /// directory. The OLAP session recovers its tables and views from the
    /// checkpoint + WAL; the OLTP row store (which stands in for an
    /// external PostgreSQL and has no log of its own here) is rebuilt
    /// from the recovered mirrors: each base table is recreated with the
    /// mirror's schema, bulk-loaded from the mirror's rows, and only then
    /// gets its capture trigger back — so recovery itself ships nothing.
    pub fn open(
        path: impl AsRef<std::path::Path>,
        flags: IvmFlags,
    ) -> Result<HtapPipeline, HtapError> {
        let olap = IvmSession::open(path, flags)?;
        let mut oltp = OltpEngine::new();
        let mut bridge = Bridge::new();
        for name in Self::mirrored_tables(&olap) {
            let (create_sql, rows) = {
                let table = olap.database().catalog().table(&name)?;
                let mut cols: Vec<String> = table
                    .schema
                    .columns
                    .iter()
                    .map(|c| {
                        let null = if c.not_null { " NOT NULL" } else { "" };
                        format!("{} {}{null}", c.name, c.ty)
                    })
                    .collect();
                if !table.primary_key.is_empty() {
                    let keys: Vec<&str> = table
                        .primary_key
                        .iter()
                        .map(|&i| table.schema.columns[i].name.as_str())
                        .collect();
                    cols.push(format!("PRIMARY KEY ({})", keys.join(", ")));
                }
                let rows: Vec<Vec<ivm_engine::Value>> = table.scan().map(|(_, row)| row).collect();
                (format!("CREATE TABLE {name} ({})", cols.join(", ")), rows)
            };
            oltp.execute(&create_sql)?;
            oltp.load_rows(&name, rows)?;
            oltp.create_capture_trigger(&name)?;
            bridge.track(name);
        }
        Ok(HtapPipeline { oltp, olap, bridge })
    }

    /// The OLAP-side tables that are OLTP mirrors: everything except
    /// OpenIVM metadata (`_openivm_*`), IVM plumbing (`_ivm_*` staging),
    /// materialized-view tables, and the `delta_<name>` tables shadowing
    /// an existing table or view.
    fn mirrored_tables(olap: &IvmSession) -> Vec<String> {
        let catalog = olap.database().catalog();
        let all = catalog.table_names();
        let views: Vec<&str> = olap.views().iter().map(|v| v.name.as_str()).collect();
        all.iter()
            .filter(|name| {
                if name.starts_with("_openivm_") || name.starts_with("_ivm_") {
                    return false;
                }
                if views.contains(&name.as_str()) {
                    return false;
                }
                if let Some(base) = name.strip_prefix("delta_") {
                    if all.iter().any(|t| t.as_str() == base) || views.contains(&base) {
                        return false;
                    }
                }
                true
            })
            .cloned()
            .collect()
    }

    /// Checkpoint the OLAP side's durable state (no-op for in-memory
    /// pipelines).
    pub fn checkpoint(&mut self) -> Result<(), HtapError> {
        Ok(self.olap.checkpoint()?)
    }

    /// Checkpoint and drop the pipeline (clean shutdown).
    pub fn close(mut self) -> Result<(), HtapError> {
        self.checkpoint()
    }

    /// Borrow the OLTP engine.
    pub fn oltp(&self) -> &OltpEngine {
        &self.oltp
    }

    /// Mutably borrow the OLTP engine (bulk loads in benchmarks).
    pub fn oltp_mut(&mut self) -> &mut OltpEngine {
        &mut self.oltp
    }

    /// Borrow the OLAP IVM session.
    pub fn olap(&self) -> &IvmSession {
        &self.olap
    }

    /// Mutably borrow the OLAP IVM session.
    pub fn olap_mut(&mut self) -> &mut IvmSession {
        &mut self.olap
    }

    /// Turn on concurrent snapshot serving on the OLAP side: clone the
    /// returned hub into reader threads while this pipeline keeps
    /// ingesting and refreshing (see [`IvmSession::share`]).
    pub fn share(&mut self) -> ivm_engine::SnapshotHub {
        self.olap.share()
    }

    /// Shipping counters.
    pub fn ship_stats(&self) -> ShipStats {
        self.bridge.stats()
    }

    /// Create a base table on both systems, install the change-capture
    /// trigger on the OLTP side, and start tracking it in the bridge.
    pub fn mirror_table(&mut self, create_table_sql: &str) -> Result<(), HtapError> {
        // Validate shape first.
        let stmt = ivm_sql::parse_statement(create_table_sql)?;
        let ivm_sql::ast::Statement::CreateTable(ct) = &stmt else {
            return Err(HtapError::new("mirror_table expects CREATE TABLE"));
        };
        let name = ct.name.normalized().to_string();
        self.oltp.execute(create_table_sql)?;
        self.olap.execute(create_table_sql)?;
        self.oltp.create_capture_trigger(&name)?;
        self.bridge.track(name);
        Ok(())
    }

    /// Run a transactional statement on the OLTP system.
    pub fn execute_oltp(&mut self, sql: &str) -> Result<OltpResult, HtapError> {
        Ok(self.oltp.execute(sql)?)
    }

    /// Create a materialized view on the OLAP side. Base-table contents
    /// already on the OLTP side must have been shipped first (the mirror
    /// feeds initial population).
    pub fn create_materialized_view(&mut self, sql: &str) -> Result<(), HtapError> {
        self.olap.execute(sql)?;
        Ok(())
    }

    /// Ship pending deltas across. Returns rows shipped. Propagation runs
    /// per the OLAP session's [`ivm_core::PropagationMode`] — with the
    /// default lazy mode it is deferred to the next view read.
    pub fn sync(&mut self) -> Result<usize, HtapError> {
        // Tables that feed no view yet have no delta tables to ingest into.
        if self.olap.views().is_empty() {
            return Ok(0);
        }
        self.bridge.ship(&mut self.oltp, &mut self.olap)
    }

    /// Ship and force propagation of every dirty view.
    pub fn sync_and_refresh(&mut self) -> Result<(), HtapError> {
        self.sync()?;
        self.olap.refresh_all()?;
        Ok(())
    }

    /// Query a materialized view (ships pending deltas first, then lets the
    /// lazy refresh policy do its work).
    pub fn query_view(&mut self, name: &str) -> Result<QueryResult, HtapError> {
        self.sync()?;
        Ok(self.olap.query_view(name)?)
    }

    /// Run an arbitrary analytical query on the OLAP engine (views refresh
    /// lazily when referenced).
    pub fn query_olap(&mut self, sql: &str) -> Result<QueryResult, HtapError> {
        self.sync()?;
        Ok(self.olap.execute(sql)?)
    }

    /// Full-pipeline consistency check: every mirror equals its OLTP
    /// source, and every view equals a from-scratch recomputation.
    pub fn check_consistency(&mut self) -> Result<ConsistencyReport, HtapError> {
        self.sync_and_refresh()?;
        let mut report = ConsistencyReport::default();
        for table in self.bridge.tables().to_vec() {
            let oltp_rows = self.oltp.execute(&format!("SELECT * FROM {table}"))?.rows;
            let olap_rows = self
                .olap
                .database()
                .query(&format!("SELECT * FROM {table}"))?
                .rows;
            if !rows_equal_as_multisets(&oltp_rows, &olap_rows) {
                report.mismatched_tables.push(table);
            }
        }
        let views: Vec<String> = self.olap.views().iter().map(|v| v.name.clone()).collect();
        for v in views {
            if !self.olap.check_consistency(&v)? {
                report.mismatched_views.push(v);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline_with_view() -> HtapPipeline {
        let mut htap = HtapPipeline::with_defaults();
        htap.mirror_table("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
            .unwrap();
        htap.create_materialized_view(
            "CREATE MATERIALIZED VIEW qg AS \
             SELECT group_index, SUM(group_value) AS total \
             FROM groups GROUP BY group_index",
        )
        .unwrap();
        htap
    }

    #[test]
    fn basic_flow() {
        let mut htap = pipeline_with_view();
        htap.execute_oltp("INSERT INTO groups VALUES ('a', 1), ('a', 2), ('b', 5)")
            .unwrap();
        let shipped = htap.sync().unwrap();
        assert_eq!(shipped, 3);
        let r = htap.query_view("qg").unwrap();
        assert_eq!(r.rows.len(), 2);
        let report = htap.check_consistency().unwrap();
        assert!(report.is_consistent(), "{report:?}");
    }

    #[test]
    fn transactional_visibility() {
        let mut htap = pipeline_with_view();
        htap.execute_oltp("BEGIN").unwrap();
        htap.execute_oltp("INSERT INTO groups VALUES ('a', 1)")
            .unwrap();
        assert_eq!(htap.sync().unwrap(), 0, "uncommitted rows never ship");
        htap.execute_oltp("COMMIT").unwrap();
        assert_eq!(htap.sync().unwrap(), 1);
        assert!(htap.check_consistency().unwrap().is_consistent());
    }

    #[test]
    fn rollback_ships_nothing() {
        let mut htap = pipeline_with_view();
        htap.execute_oltp("BEGIN").unwrap();
        htap.execute_oltp("INSERT INTO groups VALUES ('x', 9)")
            .unwrap();
        htap.execute_oltp("ROLLBACK").unwrap();
        assert_eq!(htap.sync().unwrap(), 0);
        let r = htap.query_view("qg").unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn updates_and_deletes_flow_through() {
        let mut htap = pipeline_with_view();
        htap.execute_oltp("INSERT INTO groups VALUES ('a', 1), ('b', 2)")
            .unwrap();
        htap.execute_oltp("UPDATE groups SET group_value = 10 WHERE group_index = 'a'")
            .unwrap();
        htap.execute_oltp("DELETE FROM groups WHERE group_index = 'b'")
            .unwrap();
        let report = htap.check_consistency().unwrap();
        assert!(report.is_consistent(), "{report:?}");
        let r = htap.query_view("qg").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][1], ivm_engine::Value::Integer(10));
    }

    #[test]
    fn parallel_olap_stays_consistent() {
        let mut htap = pipeline_with_view();
        htap.olap_mut().set_parallelism(4);
        htap.olap_mut().database_mut().set_morsel_size(64);
        let values: Vec<String> = (0..600)
            .map(|i| format!("('g{}', {})", i % 9, i % 50))
            .collect();
        htap.execute_oltp(&format!("INSERT INTO groups VALUES {}", values.join(", ")))
            .unwrap();
        let report = htap.check_consistency().unwrap();
        assert!(report.is_consistent(), "{report:?}");
        let r = htap.query_view("qg").unwrap();
        assert_eq!(r.rows.len(), 9);
    }

    #[test]
    fn ship_stats_accumulate() {
        let mut htap = pipeline_with_view();
        htap.execute_oltp("INSERT INTO groups VALUES ('a', 1)")
            .unwrap();
        htap.sync().unwrap();
        htap.execute_oltp("INSERT INTO groups VALUES ('b', 2)")
            .unwrap();
        htap.sync().unwrap();
        let stats = htap.ship_stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.rows, 2);
    }
}
