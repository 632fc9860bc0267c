//! # ivm-sql — SQL frontend for OpenIVM
//!
//! A self-contained SQL lexer, parser, AST, and dialect-aware printer for
//! the SQL subset that the OpenIVM compiler consumes (view definitions and
//! base-table DDL/DML) and produces (delta-table DDL and the incremental
//! propagation scripts of the paper's Listing 2).
//!
//! The crate plays the role DuckDB's parser plays in the paper, plus the
//! Coral-style dialect emission of footnote 5: the same AST prints as
//! DuckDB-flavoured or PostgreSQL-flavoured SQL.
//!
//! ## Quick example
//!
//! ```
//! use ivm_sql::{parse_statement, print_statement, Dialect};
//!
//! let ast = parse_statement(
//!     "CREATE MATERIALIZED VIEW query_groups AS \
//!      SELECT group_index, SUM(group_value) AS total_value \
//!      FROM groups GROUP BY group_index",
//! ).unwrap();
//! let sql = print_statement(&ast, Dialect::DuckDb);
//! assert!(sql.starts_with("CREATE MATERIALIZED VIEW query_groups"));
//! ```

#![warn(missing_docs)]

pub mod ast;
mod dialect;
mod error;
mod ident;
mod lexer;
mod parser;
mod printer;
mod shape;
pub mod token;

pub use dialect::Dialect;
pub use error::SqlError;
pub use ident::Ident;
pub use lexer::tokenize;
pub use parser::{parse_statement, parse_statements};
pub use printer::{print_expr, print_query, print_statement};
pub use shape::lift_literals;
