//! Table storage: in-memory columnar tables, the spill frame codec, and
//! the durability stack (slotted pages, page file, write-ahead log,
//! checkpoint/recovery orchestration).

pub mod checksum;
pub mod durability;
pub mod frame;
pub mod io;
pub mod page;
pub mod pagefile;
pub mod wal;

mod table;

pub use durability::{Durability, DurabilityOptions, RecoveryStats, TableMeta};
pub use io::{
    parse_fault_plan_setting, set_fault_plan, FaultKind, FaultPlan, OpClass, Trigger,
    FAULT_PLAN_ENV,
};
pub use pagefile::{BufferPoolStats, PageFile, PageStore};
pub use table::{MorselCursor, Table};
pub use wal::{Wal, WalRecord, WalStats};
