//! # ivm-core — the OpenIVM SQL-to-SQL compiler
//!
//! Reproduction of the core contribution of *"OpenIVM: a SQL-to-SQL
//! Compiler for Incremental Computations"* (SIGMOD-Companion 2024):
//! a compiler that turns `CREATE MATERIALIZED VIEW` definitions into
//!
//! 1. **DDL** for delta tables (with the boolean
//!    `_duckdb_ivm_multiplicity` column), the materialized table, index
//!    structures, and metadata tables;
//! 2. **propagation SQL** implementing the four maintenance steps of the
//!    paper's §2, following DBSP's incremental operator rewrites; and
//! 3. an **extension session** ([`IvmSession`]) that wires the compiler
//!    into the embedded engine: a fall-back handler for
//!    `CREATE MATERIALIZED VIEW`, base-table writes captured into delta
//!    tables by the engine, and eager / lazy / batched refresh.
//!
//! ## Quick example
//!
//! ```
//! use ivm_core::{IvmFlags, IvmSession};
//!
//! let mut ivm = IvmSession::new(IvmFlags::paper_defaults());
//! ivm.execute("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)").unwrap();
//! ivm.execute(
//!     "CREATE MATERIALIZED VIEW query_groups AS \
//!      SELECT group_index, SUM(group_value) AS total_value \
//!      FROM groups GROUP BY group_index",
//! ).unwrap();
//! ivm.execute("INSERT INTO groups VALUES ('apple', 5), ('banana', 2)").unwrap();
//! let result = ivm.query_view("query_groups").unwrap();
//! assert_eq!(result.rows.len(), 2);
//! assert!(ivm.check_consistency("query_groups").unwrap());
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod compiler;
pub mod ddl;
mod duckast;
mod error;
pub mod extension;
mod flags;
pub mod metadata;
pub mod names;
pub mod propagation;
pub mod rewrite;
mod unbind;

pub use analyze::{analyze_view, ViewAnalysis, ViewClass};
pub use compiler::{IvmArtifacts, IvmCompiler};
pub use duckast::{DuckAst, SelectFrame};
pub use error::IvmError;
pub use extension::{rows_equal_as_multisets, IvmSession, RegisteredView, SessionStats};
pub use flags::{Dialect, IndexCreation, IvmFlags, PropagationMode, UpsertStrategy};
pub use propagation::{PropagationScript, PropagationStep};
