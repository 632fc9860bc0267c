//! The OpenIVM SQL-to-SQL compiler entry point.
//!
//! `IvmCompiler::compile` takes a view definition plus the current catalog
//! and produces everything Figure 1 promises: delta-table DDL, the
//! materialized-table DDL, the initial population statement, the ART index
//! statement, the 4-step propagation script, and the metadata rows.

use ivm_engine::Catalog;
use ivm_sql::ast::{CreateView, Statement};
use ivm_sql::{parse_statement, print_query, print_statement};

use crate::analyze::{analyze_view, ViewAnalysis};
use crate::ddl::{generate_ddl, GeneratedDdl};
use crate::error::IvmError;
use crate::flags::IvmFlags;
use crate::metadata;
use crate::propagation::{generate_propagation, PropagationScript};
use crate::rewrite::build_full_query;

/// Everything the compiler emits for one `CREATE MATERIALIZED VIEW`.
#[derive(Debug, Clone)]
pub struct IvmArtifacts {
    /// Analysis of the view query.
    pub analysis: ViewAnalysis,
    /// DDL (delta tables, view table, ΔV, optional staging table).
    pub ddl: GeneratedDdl,
    /// `INSERT INTO <view> SELECT …` — initial population from base tables.
    pub population: String,
    /// The 4-step propagation script.
    pub propagation: PropagationScript,
    /// Metadata DDL + inserts (`_openivm_views`, `_openivm_scripts`).
    pub metadata: Vec<String>,
    /// The flags used.
    pub flags: IvmFlags,
    /// The original view SELECT, re-printed in the target dialect.
    pub view_sql: String,
}

impl IvmArtifacts {
    /// Every statement needed to set the view up, in execution order:
    /// DDL → population → post-population index → metadata.
    pub fn setup_statements(&self) -> Vec<String> {
        let mut out = self.ddl.delta_tables.clone();
        out.extend(self.ddl.view_tables.clone());
        out.push(self.population.clone());
        out.extend(self.ddl.post_population_indexes.clone());
        out.extend(self.metadata.clone());
        out
    }

    /// The maintenance statements, in execution order.
    pub fn maintenance_statements(&self) -> Vec<String> {
        self.propagation.statements()
    }

    /// The full compiled output as one inspectable SQL script — what the
    /// demo stores "on the disk to allow future inspection and usage".
    pub fn to_script(&self) -> String {
        let mut out = String::new();
        if self.flags.comments {
            out.push_str(&format!(
                "-- OpenIVM compiled output for materialized view {}\n-- class: {}, strategy: {}, dialect: {}\n\n-- Setup:\n",
                self.analysis.view_name,
                self.analysis.class.name(),
                self.flags.upsert_strategy.name(),
                self.flags.dialect.name(),
            ));
        }
        for s in self.setup_statements() {
            out.push_str(&s);
            out.push_str(";\n");
        }
        if self.flags.comments {
            out.push_str("\n-- Maintenance (run per refresh):\n");
        }
        out.push_str(&self.propagation.to_sql(self.flags.comments));
        out
    }
}

/// The compiler. Stateless: all inputs arrive per call.
#[derive(Debug, Default)]
pub struct IvmCompiler;

impl IvmCompiler {
    /// Create a compiler.
    pub fn new() -> IvmCompiler {
        IvmCompiler
    }

    /// Compile a `CREATE MATERIALIZED VIEW` statement given as SQL text.
    pub fn compile_sql(
        &self,
        create_view_sql: &str,
        catalog: &Catalog,
        flags: &IvmFlags,
    ) -> Result<IvmArtifacts, IvmError> {
        let stmt = parse_statement(create_view_sql)?;
        let Statement::CreateView(cv) = stmt else {
            return Err(IvmError::unsupported(
                "expected a CREATE MATERIALIZED VIEW statement",
            ));
        };
        if !cv.materialized {
            return Err(IvmError::unsupported(
                "expected MATERIALIZED in the CREATE VIEW",
            ));
        }
        self.compile(&cv, catalog, flags)
    }

    /// Compile a parsed `CREATE MATERIALIZED VIEW`.
    pub fn compile(
        &self,
        cv: &CreateView,
        catalog: &Catalog,
        flags: &IvmFlags,
    ) -> Result<IvmArtifacts, IvmError> {
        let view_name = cv.name.normalized().to_string();
        if catalog.has_table(&view_name) || catalog.has_view(&view_name) {
            return Err(IvmError::catalog(format!("{view_name} already exists")));
        }
        self.compile_unchecked(cv, catalog, flags)
    }

    /// [`compile`](IvmCompiler::compile) without the name-collision check:
    /// re-deriving the artifacts of a view whose table already exists in a
    /// recovered durable catalog.
    pub(crate) fn compile_unchecked(
        &self,
        cv: &CreateView,
        catalog: &Catalog,
        flags: &IvmFlags,
    ) -> Result<IvmArtifacts, IvmError> {
        let view_name = cv.name.normalized().to_string();
        let analysis = analyze_view(&view_name, &cv.query, catalog)?;
        let ddl = generate_ddl(&analysis, catalog, flags)?;
        let full = build_full_query(&analysis, None)?;
        let population = format!(
            "INSERT INTO {view_name} {}",
            print_query(&full, flags.dialect)
        );
        let propagation = generate_propagation(&analysis, flags)?;
        let view_sql = print_statement(&Statement::Query(cv.query.clone()), flags.dialect);
        let metadata = metadata::metadata_statements(&analysis, &view_sql, &propagation, flags);
        Ok(IvmArtifacts {
            analysis,
            ddl,
            population,
            propagation,
            metadata,
            flags: flags.clone(),
            view_sql,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_engine::Database;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
            .unwrap();
        db
    }

    const LISTING_1: &str = "CREATE MATERIALIZED VIEW query_groups AS \
         SELECT group_index, SUM(group_value) AS total_value \
         FROM groups GROUP BY group_index";

    #[test]
    fn compile_listing_1() {
        let db = db();
        let artifacts = IvmCompiler::new()
            .compile_sql(LISTING_1, db.catalog(), &IvmFlags::paper_defaults())
            .unwrap();
        let setup = artifacts.setup_statements();
        assert!(setup[0].contains("delta_groups"));
        assert!(setup
            .iter()
            .any(|s| s.starts_with("INSERT INTO query_groups SELECT")));
        assert!(setup.iter().any(|s| s.contains("CREATE UNIQUE INDEX")));
        assert!(setup.iter().any(|s| s.contains("_openivm_views")));
        assert_eq!(artifacts.maintenance_statements().len(), 4 + 1); // 4 steps + extra drain
        let script = artifacts.to_script();
        assert!(script.contains("-- Step 2"));
    }

    #[test]
    fn rejects_plain_view_and_non_views() {
        let db = db();
        let c = IvmCompiler::new();
        assert!(c
            .compile_sql(
                "CREATE VIEW x AS SELECT 1",
                db.catalog(),
                &IvmFlags::default()
            )
            .is_err());
        assert!(c
            .compile_sql("SELECT 1", db.catalog(), &IvmFlags::default())
            .is_err());
    }

    #[test]
    fn rejects_duplicate_names() {
        let db = db();
        let err = IvmCompiler::new().compile_sql(
            "CREATE MATERIALIZED VIEW groups AS SELECT group_index FROM groups",
            db.catalog(),
            &IvmFlags::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn all_setup_statements_execute() {
        let mut db = db();
        db.execute("INSERT INTO groups VALUES ('a', 1), ('a', 2), ('b', 5)")
            .unwrap();
        let artifacts = IvmCompiler::new()
            .compile_sql(LISTING_1, db.catalog(), &IvmFlags::paper_defaults())
            .unwrap();
        for stmt in artifacts.setup_statements() {
            db.execute(&stmt)
                .unwrap_or_else(|e| panic!("setup failed: {e}\n{stmt}"));
        }
        let r = db
            .query("SELECT group_index, total_value FROM query_groups ORDER BY group_index")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][1], ivm_engine::Value::Integer(3));
        assert_eq!(r.rows[1][1], ivm_engine::Value::Integer(5));
    }
}
