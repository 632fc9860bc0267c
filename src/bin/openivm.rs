//! The standalone OpenIVM command-line compiler.
//!
//! §2: "the OpenIVM SQL-to-SQL compiler can be used as a standalone
//! command-line tool". Give it a schema and a view definition; it prints
//! the compiled DDL + propagation script without touching any database.
//!
//! ```text
//! openivm --schema schema.sql --view view.sql [--dialect duckdb|postgres]
//!         [--strategy left_join_upsert|union_regroup|full_outer_join]
//!         [--index inline|after_populate|none] [--no-comments]
//! ```
//!
//! `--schema`/`--view` also accept inline SQL instead of a file path.
//! `--data-dir <dir>` compiles against the recovered catalog of a durable
//! database directory instead of a `--schema` script.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use openivm::ivm_core::{
    Dialect, IndexCreation, IvmCompiler, IvmFlags, IvmSession, PropagationMode, UpsertStrategy,
};
use openivm::ivm_engine::{Database, SnapshotHub, Value};

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(script) => {
            println!("{script}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("openivm: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: openivm (--schema <file|sql> | --data-dir <dir>) --view <file|sql>
       [--dialect duckdb|postgres]
       [--strategy left_join_upsert|union_regroup|full_outer_join]
       [--index inline|after_populate|none]
       [--no-comments]
       openivm --data-dir <dir> --wal-stats
       openivm --serve <addr> [--schema <file|sql>] [--data-dir <dir>]";

fn run(args: Vec<String>) -> Result<String, String> {
    let mut schema: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut view: Option<String> = None;
    let mut serve_addr: Option<String> = None;
    let mut wal_stats = false;
    let mut flags = IvmFlags::paper_defaults();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--schema" => schema = Some(value("--schema")?),
            "--data-dir" => data_dir = Some(value("--data-dir")?),
            "--view" => view = Some(value("--view")?),
            "--serve" => serve_addr = Some(value("--serve")?),
            "--dialect" => {
                let v = value("--dialect")?;
                flags.dialect = Dialect::parse(&v).ok_or_else(|| format!("unknown dialect {v}"))?;
            }
            "--strategy" => {
                let v = value("--strategy")?;
                flags.upsert_strategy =
                    UpsertStrategy::parse(&v).ok_or_else(|| format!("unknown strategy {v}"))?;
                if !flags.upsert_strategy.needs_index() {
                    flags.index_creation = IndexCreation::None;
                }
            }
            "--index" => {
                flags.index_creation = match value("--index")?.as_str() {
                    "inline" => IndexCreation::Inline,
                    "after_populate" | "after" => IndexCreation::AfterPopulate,
                    "none" => IndexCreation::None,
                    other => return Err(format!("unknown index mode {other}")),
                };
            }
            "--no-comments" => flags.comments = false,
            "--wal-stats" => wal_stats = true,
            "--help" | "-h" => return Err("help requested".to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // `--serve`: become a line-protocol SQL server instead of compiling.
    if let Some(addr) = serve_addr {
        return serve(&addr, schema.as_deref(), data_dir.as_deref(), flags);
    }

    // `--wal-stats`: report what opening the directory recovered (the
    // open ends with a checkpoint that resets the log, so the log's own
    // counters would read zero) and whether the log is poisoned, and exit.
    if wal_stats {
        let dir = data_dir.ok_or("--wal-stats requires --data-dir")?;
        let db = Database::open(&dir).map_err(|e| format!("cannot open {dir}: {e}"))?;
        let r = db
            .recovery_stats()
            .ok_or("database has no write-ahead log")?;
        return Ok(format!(
            "recovery replayed_records={} wal_bytes={} tables_loaded={} poisoned={}",
            r.replayed_records,
            r.wal_bytes,
            r.tables_loaded,
            db.is_degraded()
        ));
    }

    let view = view.ok_or("missing --view")?;
    let view_sql = read_arg(&view)?;

    // Obtain a catalog: either load a schema script into a scratch engine
    // or reopen a durable database and compile against its recovered state.
    let db = match (schema, data_dir) {
        (Some(_), Some(_)) => {
            return Err("--schema and --data-dir are mutually exclusive".to_string())
        }
        (None, None) => return Err("missing --schema or --data-dir".to_string()),
        (Some(schema), None) => {
            let schema_sql = read_arg(&schema)?;
            let mut db = Database::new();
            db.execute_script(&schema_sql)
                .map_err(|e| format!("schema error: {e}"))?;
            db
        }
        (None, Some(dir)) => Database::open(&dir).map_err(|e| format!("cannot open {dir}: {e}"))?,
    };
    let artifacts = IvmCompiler::new()
        .compile_sql(view_sql.trim().trim_end_matches(';'), db.catalog(), &flags)
        .map_err(|e| format!("compile error: {e}"))?;
    Ok(artifacts.to_script())
}

/// Line-protocol SQL server. One statement per line; the reply is zero or
/// more `ROW\t<v1>\t<v2>…` lines (values escaped by [`write_wire_value`])
/// followed by `OK <count>`, or one `ERR <message>` line. `SELECT`s run on a per-connection
/// [`ivm_engine::ReadSession`] pinned to the latest committed snapshot;
/// everything else serializes through the single writer session, which
/// republishes the snapshot when the statement completes.
/// Write one value of a `ROW` line. The four bytes the framing gives
/// meaning to — tab, newline, carriage return, and the backslash that
/// escapes them — go out as `\t`, `\n`, `\r`, `\\`; every other value is
/// its `Display` text, byte for byte.
fn write_wire_value(out: &mut impl Write, value: &Value) -> std::io::Result<()> {
    match value {
        Value::Varchar(text) if text.contains(['\t', '\n', '\r', '\\']) => {
            text.chars().try_for_each(|c| match c {
                '\t' => out.write_all(b"\\t"),
                '\n' => out.write_all(b"\\n"),
                '\r' => out.write_all(b"\\r"),
                '\\' => out.write_all(b"\\\\"),
                c => write!(out, "{c}"),
            })
        }
        _ => write!(out, "{value}"),
    }
}

fn serve(
    addr: &str,
    schema: Option<&str>,
    data_dir: Option<&str>,
    mut flags: IvmFlags,
) -> Result<String, String> {
    // Hub readers bypass the session's lazy-refresh interception (they
    // only ever see published snapshots), so serve mode propagates
    // eagerly: every committed write leaves the views fresh.
    flags.propagation = PropagationMode::Eager;
    let mut session = match data_dir {
        Some(dir) => IvmSession::open(dir, flags).map_err(|e| format!("cannot open {dir}: {e}"))?,
        None => IvmSession::new(flags),
    };
    if let Some(schema) = schema {
        let sql = read_arg(schema)?;
        session
            .execute_script(&sql)
            .map_err(|e| format!("schema error: {e}"))?;
    }
    let hub = session.share();
    let writer = Arc::new(Mutex::new(Some(session)));
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    // Tests bind port 0 and parse the resolved address off this line.
    println!("openivm: serving on {local}");
    std::io::stdout().flush().ok();
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let hub = hub.clone();
        let writer = Arc::clone(&writer);
        std::thread::spawn(move || {
            let _ = handle_client(stream, hub, writer);
        });
    }
    Ok(String::new())
}

/// The longest statement line a client may send, newline excluded. A
/// longer line is answered `ERR line too long` and the connection
/// closed, so a client cannot grow the server's buffer without bound.
const MAX_LINE_BYTES: usize = 16 << 20;

fn handle_client(
    stream: TcpStream,
    hub: SnapshotHub,
    writer: Arc<Mutex<Option<IvmSession>>>,
) -> std::io::Result<()> {
    let mut reader = hub.reader();
    let mut out = BufWriter::new(stream.try_clone()?);
    let mut input = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        let cap = MAX_LINE_BYTES as u64 + 1;
        if (&mut input).take(cap).read_until(b'\n', &mut line)? == 0 {
            break;
        }
        if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
            writeln!(out, "ERR line too long")?;
            out.flush()?;
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            writeln!(out, "ERR statement is not valid UTF-8")?;
            out.flush()?;
            continue;
        };
        let sql = text.trim();
        if sql.is_empty() {
            continue;
        }
        if sql.eq_ignore_ascii_case("quit") || sql.eq_ignore_ascii_case("exit") {
            break;
        }
        // Clean server stop: checkpoint + drop the session (releasing
        // the durable directory and its ephemeral-mode guard), ack,
        // then exit the process.
        if sql.eq_ignore_ascii_case("shutdown") {
            let session = writer.lock().ok().and_then(|mut guard| guard.take());
            let result = match session {
                Some(session) => session.close().map_err(|e| e.to_string()),
                None => Ok(()),
            };
            match result {
                Ok(()) => writeln!(out, "OK 0")?,
                Err(msg) => writeln!(out, "ERR {}", msg.replace(['\n', '\r'], " "))?,
            }
            out.flush()?;
            std::process::exit(0);
        }
        let is_select = sql
            .split_whitespace()
            .next()
            .is_some_and(|w| w.eq_ignore_ascii_case("select"));
        let result = if is_select {
            reader.query(sql).map_err(|e| e.to_string())
        } else {
            match writer.lock() {
                Ok(mut guard) => match guard.as_mut() {
                    Some(session) => session.execute(sql).map_err(|e| e.to_string()),
                    None => Err("server is shutting down".to_string()),
                },
                Err(_) => Err("writer session poisoned".to_string()),
            }
        };
        match result {
            Ok(res) => {
                let count = if res.columns.is_empty() {
                    res.rows_affected
                } else {
                    res.rows.len()
                };
                for row in &res.rows {
                    out.write_all(b"ROW")?;
                    for value in row {
                        out.write_all(b"\t")?;
                        write_wire_value(&mut out, value)?;
                    }
                    out.write_all(b"\n")?;
                }
                writeln!(out, "OK {count}")?;
            }
            Err(msg) => writeln!(out, "ERR {}", msg.replace(['\n', '\r'], " "))?,
        }
        out.flush()?;
    }
    Ok(())
}

/// Interpret an argument as a file path when one exists, else inline SQL.
fn read_arg(arg: &str) -> Result<String, String> {
    if std::path::Path::new(arg).exists() {
        std::fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"))
    } else if arg.to_ascii_uppercase().contains("CREATE") {
        Ok(arg.to_string())
    } else {
        Err(format!("{arg} is neither a file nor SQL"))
    }
}
