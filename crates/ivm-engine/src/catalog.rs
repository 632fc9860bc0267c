//! The database catalog: tables and (non-materialized) views.

use std::collections::HashMap;
use std::sync::Arc;

use ivm_sql::ast::Query;
use ivm_sql::Dialect;

use crate::error::EngineError;
use crate::storage::wal::{Wal, WalRecord};
use crate::storage::Table;

/// Holds every table and view of one database.
///
/// In a durable database a WAL handle is attached
/// (`Catalog::set_wal`); DDL then emits logical redo records, and the
/// handle is propagated to every table so DML does too.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    views: HashMap<String, Query>,
    wal: Option<Arc<Wal>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Attach (or detach) the redo log. Propagates to every table and
    /// to tables registered later.
    pub(crate) fn set_wal(&mut self, wal: Option<Arc<Wal>>) {
        for table in self.tables.values_mut() {
            table.set_wal(wal.clone());
        }
        self.wal = wal;
    }

    /// Freeze a copy-on-write snapshot of the whole catalog: every
    /// table is [`Table::snapshot`]ed (O(columns) refcount bumps per
    /// table, no rows copied), view definitions are cloned. The
    /// snapshot carries no WAL handle —
    /// it is a read-only image for concurrent readers, and mutating it
    /// would never reach the redo log by construction.
    pub fn snapshot(&self) -> Catalog {
        Catalog {
            tables: self
                .tables
                .iter()
                .map(|(name, table)| (name.clone(), table.snapshot()))
                .collect(),
            views: self.views.clone(),
            wal: None,
        }
    }

    /// Register a table. Errors when a table or view of the same name exists.
    pub fn create_table(&mut self, mut table: Table) -> Result<(), EngineError> {
        let name = table.name.clone();
        if self.tables.contains_key(&name) || self.views.contains_key(&name) {
            return Err(EngineError::catalog(format!("{name} already exists")));
        }
        if let Some(wal) = &self.wal {
            wal.log(&WalRecord::CreateTable {
                name: name.clone(),
                columns: table.schema.columns.clone(),
                primary_key: table.primary_key.clone(),
            });
            // Rows inserted *before* registration are part of the redo
            // stream too: replay recreates the table empty.
            for (_, row) in table.scan() {
                wal.log(&WalRecord::Insert {
                    table: name.clone(),
                    row,
                });
            }
        }
        table.set_wal(self.wal.clone());
        self.tables.insert(name, table);
        Ok(())
    }

    /// Register a logical (non-materialized) view.
    pub fn create_view(
        &mut self,
        name: impl Into<String>,
        query: Query,
    ) -> Result<(), EngineError> {
        let name = name.into();
        if self.tables.contains_key(&name) || self.views.contains_key(&name) {
            return Err(EngineError::catalog(format!("{name} already exists")));
        }
        if let Some(wal) = &self.wal {
            wal.log(&WalRecord::CreateView {
                name: name.clone(),
                sql: ivm_sql::print_query(&query, Dialect::DuckDb),
            });
        }
        self.views.insert(name, query);
        Ok(())
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Result<&Table, EngineError> {
        self.tables
            .get(name)
            .ok_or_else(|| EngineError::catalog(format!("table {name} does not exist")))
    }

    /// Mutably borrow a table.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, EngineError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| EngineError::catalog(format!("table {name} does not exist")))
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Borrow a view's defining query.
    pub fn view(&self, name: &str) -> Option<&Query> {
        self.views.get(name)
    }

    /// Whether a view exists.
    pub fn has_view(&self, name: &str) -> bool {
        self.views.contains_key(name)
    }

    /// Drop a table; `if_exists` suppresses the missing-object error.
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<bool, EngineError> {
        if self.tables.remove(name).is_some() {
            if let Some(wal) = &self.wal {
                wal.log(&WalRecord::DropTable {
                    name: name.to_string(),
                });
            }
            Ok(true)
        } else if if_exists {
            Ok(false)
        } else {
            Err(EngineError::catalog(format!("table {name} does not exist")))
        }
    }

    /// Drop a view; `if_exists` suppresses the missing-object error.
    pub fn drop_view(&mut self, name: &str, if_exists: bool) -> Result<bool, EngineError> {
        if self.views.remove(name).is_some() {
            if let Some(wal) = &self.wal {
                wal.log(&WalRecord::DropView {
                    name: name.to_string(),
                });
            }
            Ok(true)
        } else if if_exists {
            Ok(false)
        } else {
            Err(EngineError::catalog(format!("view {name} does not exist")))
        }
    }

    /// Names of all tables (sorted, for deterministic output).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Names of all views (sorted).
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.views.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::types::DataType;

    fn t(name: &str) -> Table {
        Table::new(
            name,
            Schema::new(vec![Column::new("a", DataType::Integer)]),
            vec![],
        )
    }

    #[test]
    fn create_and_lookup() {
        let mut c = Catalog::new();
        c.create_table(t("x")).unwrap();
        assert!(c.has_table("x"));
        assert!(c.table("x").is_ok());
        assert!(c.table("y").is_err());
        assert!(c.create_table(t("x")).is_err(), "duplicate");
        assert_eq!(c.table_names(), vec!["x"]);
    }

    #[test]
    fn drop_semantics() {
        let mut c = Catalog::new();
        c.create_table(t("x")).unwrap();
        assert!(c.drop_table("x", false).unwrap());
        assert!(!c.drop_table("x", true).unwrap());
        assert!(c.drop_table("x", false).is_err());
    }

    #[test]
    fn views_share_namespace_with_tables() {
        let mut c = Catalog::new();
        c.create_table(t("x")).unwrap();
        let q = match ivm_sql::parse_statement("SELECT 1").unwrap() {
            ivm_sql::ast::Statement::Query(q) => *q,
            _ => unreachable!(),
        };
        assert!(c.create_view("x", q.clone()).is_err());
        c.create_view("v", q).unwrap();
        assert!(c.has_view("v"));
        assert!(c.drop_view("v", false).unwrap());
    }
}
