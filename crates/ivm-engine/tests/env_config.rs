//! Process-level environment-configuration tests: `Database::new` must
//! honor valid `OPENIVM_PARALLELISM` / `OPENIVM_MEMORY_BUDGET` settings
//! and fail *loudly* (panic with the parse error) on invalid ones —
//! never silently fall back, which is how a typo'd budget used to turn
//! into an unbudgeted (or serial) run nobody notices.
//!
//! Environment variables are process-global, so every scenario lives in
//! ONE `#[test]` function (this file is its own test binary): there is
//! no concurrent test that could observe the temporary values.

use ivm_engine::Database;

struct EnvGuard {
    name: &'static str,
    saved: Option<std::ffi::OsString>,
}

impl EnvGuard {
    fn set(name: &'static str, value: &str) -> EnvGuard {
        let saved = std::env::var_os(name);
        std::env::set_var(name, value);
        EnvGuard { name, saved }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match &self.saved {
            Some(v) => std::env::set_var(self.name, v),
            None => std::env::remove_var(self.name),
        }
    }
}

fn new_database_panic_message() -> Option<String> {
    // A loud startup error is a panic from `Database::new`; capture it
    // without letting the default hook spam the test output.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(Database::new);
    std::panic::set_hook(prev);
    match result {
        Ok(_) => None,
        Err(payload) => Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default(),
        ),
    }
}

#[test]
fn env_settings_apply_and_invalid_values_fail_loudly() {
    // Valid settings flow into the session defaults.
    {
        let _p = EnvGuard::set("OPENIVM_PARALLELISM", "3");
        let _m = EnvGuard::set("OPENIVM_MEMORY_BUDGET", "64KB");
        let db = Database::new();
        assert_eq!(db.parallelism(), 3);
        assert_eq!(db.memory_budget(), Some(64 * 1024));
    }
    // `0` / `unbounded` budgets disable the limit.
    {
        let _m = EnvGuard::set("OPENIVM_MEMORY_BUDGET", "0");
        assert_eq!(Database::new().memory_budget(), None);
    }
    {
        let _m = EnvGuard::set("OPENIVM_MEMORY_BUDGET", "unbounded");
        assert_eq!(Database::new().memory_budget(), None);
    }
    // Invalid parallelism: loud error naming the variable and value.
    {
        let _p = EnvGuard::set("OPENIVM_PARALLELISM", "many");
        let msg = new_database_panic_message().expect("invalid parallelism must panic");
        assert!(
            msg.contains("OPENIVM_PARALLELISM") && msg.contains("many"),
            "{msg}"
        );
    }
    {
        let _p = EnvGuard::set("OPENIVM_PARALLELISM", "0");
        let msg = new_database_panic_message().expect("zero workers must panic");
        assert!(msg.contains("OPENIVM_PARALLELISM"), "{msg}");
    }
    // Invalid budget: loud error naming the variable and value.
    {
        let _m = EnvGuard::set("OPENIVM_MEMORY_BUDGET", "lots");
        let msg = new_database_panic_message().expect("invalid budget must panic");
        assert!(
            msg.contains("OPENIVM_MEMORY_BUDGET") && msg.contains("lots"),
            "{msg}"
        );
    }
    // A valid OPENIVM_DATA_DIR makes every `new` database durable in a
    // fresh ephemeral subdirectory of that path, removed on drop.
    {
        let root = std::env::temp_dir().join(format!("openivm-envdata-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let root_str = root.to_str().unwrap().to_string();
        let _d = EnvGuard::set("OPENIVM_DATA_DIR", Box::leak(root_str.into_boxed_str()));
        let subdir;
        {
            let mut db = Database::new();
            assert!(db.is_durable(), "OPENIVM_DATA_DIR must make `new` durable");
            subdir = db.data_dir().unwrap().to_path_buf();
            assert!(subdir.starts_with(&root), "{subdir:?} not under {root:?}");
            db.execute("CREATE TABLE t (k INTEGER)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            assert!(subdir.join("wal.log").exists());
        }
        // Dropping the database removes its ephemeral subdirectory.
        assert!(!subdir.exists(), "ephemeral data dir leaked: {subdir:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }
    // OPENIVM_FAULT_PLAN: the documented grammar parses; garbage is an
    // error naming the variable (the env path panics with this message
    // rather than silently running fault-free). A parsed plan installed
    // process-wide turns the first matching durable operation into a
    // clean `EngineError`, never a panic.
    {
        use ivm_engine::{parse_fault_plan_setting, set_fault_plan, FAULT_PLAN_ENV};
        assert!(parse_fault_plan_setting("transient@*:%7").is_ok());
        assert!(parse_fault_plan_setting("enospc@wal.:3;fsync@*:1").is_ok());
        for bad in ["gremlin@*:1", "enospc@x", "transient@*:%0", "short@*:zero"] {
            let err = parse_fault_plan_setting(bad).unwrap_err();
            assert!(err.to_string().contains(FAULT_PLAN_ENV), "{bad:?} → {err}");
        }

        let dir = std::env::temp_dir().join(format!("openivm-envfault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let plan = parse_fault_plan_setting("enospc@openivm-envfault:1").unwrap();
        let prev = set_fault_plan(Some(std::sync::Arc::new(plan)));
        let result = std::panic::catch_unwind(|| Database::open(&dir));
        set_fault_plan(prev);
        let err = result.expect("injected ENOSPC must not panic").unwrap_err();
        assert!(
            err.to_string().to_lowercase().contains("space")
                || err.to_string().contains("os error"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    // An empty OPENIVM_DATA_DIR is a loud startup error, not a silent
    // fall-back to in-memory.
    {
        let _d = EnvGuard::set("OPENIVM_DATA_DIR", "   ");
        let msg = new_database_panic_message().expect("blank data dir must panic");
        assert!(msg.contains("OPENIVM_DATA_DIR"), "{msg}");
    }
    // The spill-dir override lands in the budget's directory config, and
    // a session constrained through env actually spills into it.
    {
        let dir = std::env::temp_dir().join(format!("openivm-envtest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let _m = EnvGuard::set("OPENIVM_MEMORY_BUDGET", "1");
        let dir_str = dir.to_str().unwrap().to_string();
        let _d = EnvGuard::set("OPENIVM_SPILL_DIR", Box::leak(dir_str.into_boxed_str()));
        let mut db = Database::new();
        db.set_parallelism(1);
        db.execute("CREATE TABLE t (k INTEGER)").unwrap();
        let values: Vec<String> = (0..200).map(|i| format!("({})", i % 5)).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
        assert_eq!(
            db.query("SELECT k, COUNT(*) FROM t GROUP BY k")
                .unwrap()
                .rows
                .len(),
            5
        );
        assert!(db.spill_stats().spilled());
        // Spill files are removed as soon as their partitions are read.
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(leftovers.is_empty(), "leaked spill files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
