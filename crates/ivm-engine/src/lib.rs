//! # ivm-engine — an embedded analytical SQL engine
//!
//! This crate plays the role DuckDB plays in the OpenIVM paper: an
//! embeddable engine whose parser, planner, optimizer, and executor the
//! SQL-to-SQL compiler piggybacks on, and which then *executes* the
//! generated propagation scripts.
//!
//! Components:
//! - columnar in-memory storage with tombstone deletes, zero-copy batch
//!   scans, and predicate-pushdown filtered scans ([`storage`])
//! - an Adaptive Radix Tree index with order-preserving key encoding
//!   ([`index`]) — used for primary keys, `INSERT OR REPLACE`, and scan
//!   point reads on pushed-down equality predicates
//! - expression binding and evaluation with SQL NULL semantics ([`expr`]),
//!   plus vectorized chunk-at-a-time kernels ([`expr::vector`])
//! - a logical planner ([`planner`]), rule-based optimizer ([`optimizer`]),
//!   and physical lowering ([`planner::physical`]: join-side selection,
//!   equi-key extraction, aggregate mode, top-k, scan pushdown)
//! - a batched pull-based executor over columnar [`exec::RowBatch`]es:
//!   streaming scan/filter/project/limit, build-probe hash join
//!   (INNER/LEFT/RIGHT/FULL/CROSS) with bounded output batches, hash
//!   aggregate, set operations, sorting, bounded-heap top-k ([`exec`])
//! - a morsel-driven parallel executor ([`exec::parallel`]): scoped
//!   `std::thread` workers claim table morsels from a lock-free cursor,
//!   hash joins and aggregates run hash-partitioned, and per-morsel
//!   results merge in morsel order (serial-identical output)
//! - memory-budgeted spill-to-disk ([`exec::spill`]): under a bounded
//!   [`MemoryBudget`], join builds, group tables, DISTINCT, and set
//!   operations overflow radix partitions to temp files (columnar frame
//!   codec in [`storage::frame`]) and rehydrate partition-at-a-time,
//!   with results row-identical to in-memory execution
//! - the `Database` session API ([`session`]), with parallelism and
//!   memory-budget knobs and a DDL-invalidated bound-plan cache for
//!   repeated scripts
//! - a durable storage subsystem ([`storage::durability`],
//!   [`storage::wal`], [`storage::checksum`]): each table at rest is one
//!   file of CRC-framed records, read once at open and written to a new
//!   file when a checkpoint finds it dirty; a logical-redo write-ahead
//!   log with group commit; and an atomically renamed `catalog.meta` —
//!   `Database::open` recovers tables, views, and row ids to the last
//!   committed statement
//!
//! ## Quick example
//!
//! ```
//! use ivm_engine::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)").unwrap();
//! db.execute("INSERT INTO groups VALUES ('a', 1), ('a', 2), ('b', 5)").unwrap();
//! let result = db
//!     .query("SELECT group_index, SUM(group_value) FROM groups GROUP BY group_index ORDER BY 1")
//!     .unwrap();
//! assert_eq!(result.rows.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod concurrent;
pub mod error;
pub mod exec;
pub mod expr;
pub mod index;
pub mod optimizer;
mod plan_cache;
pub mod planner;
pub mod schema;
pub mod session;
pub mod storage;
pub mod types;
pub mod value;

pub use catalog::Catalog;
pub use concurrent::{ReadSession, Snapshot, SnapshotHub};
pub use error::{EngineError, ErrorKind};
pub use exec::{ExecConfig, ExecContext, MemoryBudget, RowBatch, SpillStats};
pub use planner::{plan_query, LogicalPlan, PhysicalPlan};
pub use schema::{Column, Schema};
pub use session::{Database, QueryResult};
pub use storage::{
    parse_fault_plan_setting, set_fault_plan, BufferPoolStats, Durability, FaultKind, FaultPlan,
    OpClass, RecoveryStats, Table, Trigger, Wal, WalRecord, WalStats, FAULT_PLAN_ENV,
};
pub use types::DataType;
pub use value::Value;
