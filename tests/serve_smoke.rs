//! End-to-end smoke test of `openivm --serve`: boot the real binary on an
//! ephemeral port, then drive it with 4 concurrent read clients × 100
//! queries each while a writer client streams inserts (each of which
//! triggers incremental view maintenance). Every reply must be a
//! well-formed `ROW*`/`OK` frame — an `ERR` or a torn frame fails.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const CLIENTS: usize = 4;
const QUERIES: usize = 100;

/// Kill the server on drop so a failing assert can't leak the child.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn start_server() -> (Server, String) {
    // `framing` holds the four bytes the wire protocol escapes; a line
    // protocol cannot carry a raw LF or CR inside a statement, so the row
    // is inserted here.
    let schema = "CREATE TABLE t (g VARCHAR, v INTEGER); \
                  CREATE MATERIALIZED VIEW mv AS \
                  SELECT g, COUNT(*) AS c, SUM(v) AS s FROM t GROUP BY g; \
                  CREATE TABLE framing (x VARCHAR, y INTEGER); \
                  INSERT INTO framing VALUES ('a\tb\nc\\d\re', 7)";
    let mut child = Command::new(env!("CARGO_BIN_EXE_openivm"))
        .args(["--serve", "127.0.0.1:0", "--schema", schema])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn openivm --serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read banner");
    let addr = line
        .trim()
        .strip_prefix("openivm: serving on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    (Server(child), addr)
}

fn connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

/// Send one statement, collect the reply frame. Returns (rows, ok_count).
fn roundtrip(
    input: &mut BufReader<TcpStream>,
    out: &mut TcpStream,
    sql: &str,
) -> (Vec<String>, usize) {
    writeln!(out, "{sql}").expect("send");
    let mut rows = Vec::new();
    loop {
        let mut line = String::new();
        assert!(
            input.read_line(&mut line).expect("reply") > 0,
            "server hung up"
        );
        let line = line.trim_end().to_string();
        if let Some(rest) = line.strip_prefix("OK ") {
            return (rows, rest.parse().expect("OK count"));
        }
        assert!(!line.starts_with("ERR"), "server error for {sql:?}: {line}");
        rows.push(
            line.strip_prefix("ROW\t")
                .unwrap_or_else(|| panic!("torn frame for {sql:?}: {line:?}"))
                .to_string(),
        );
    }
}

#[test]
fn four_clients_hundred_queries_during_active_refresh() {
    let (_server, addr) = start_server();

    std::thread::scope(|scope| {
        // Writer client: stream inserts; each one runs view maintenance
        // server-side, so reads below race an actively refreshing view.
        let writer_addr = addr.clone();
        let writer = scope.spawn(move || {
            let (mut input, mut out) = connect(&writer_addr);
            for i in 0..200 {
                let (_, n) = roundtrip(
                    &mut input,
                    &mut out,
                    &format!("INSERT INTO t VALUES ('g{}', {i})", i % 8),
                );
                assert_eq!(n, 1, "insert {i} affected {n} rows");
            }
        });

        let mut readers = Vec::new();
        for _ in 0..CLIENTS {
            let addr = addr.clone();
            readers.push(scope.spawn(move || {
                let (mut input, mut out) = connect(&addr);
                for q in 0..QUERIES {
                    let sql = if q % 2 == 0 {
                        "SELECT g, c, s FROM mv"
                    } else {
                        "SELECT g, COUNT(*) AS c, SUM(v) AS s FROM t GROUP BY g"
                    };
                    let (rows, n) = roundtrip(&mut input, &mut out, sql);
                    assert_eq!(rows.len(), n, "frame count mismatch");
                    for row in &rows {
                        assert_eq!(row.split('\t').count(), 3, "bad row {row:?}");
                    }
                }
            }));
        }

        writer.join().expect("writer client panicked");
        for r in readers {
            r.join().expect("reader client panicked");
        }

        // Quiesced totals: all 200 inserts visible through both paths.
        let (mut input, mut out) = connect(&addr);
        let (rows, _) = roundtrip(&mut input, &mut out, "SELECT SUM(c) AS total FROM mv");
        assert_eq!(rows, vec!["200".to_string()]);
        let (rows, _) = roundtrip(&mut input, &mut out, "SELECT COUNT(*) AS total FROM t");
        assert_eq!(rows, vec!["200".to_string()]);
        // Clean stop: the server checkpoints, drops its session (and
        // any ephemeral durable directory), acks, and exits.
        let (rows, n) = roundtrip(&mut input, &mut out, "SHUTDOWN");
        assert!(rows.is_empty() && n == 0, "unexpected shutdown reply");
    });
}

/// The next reply line, newline stripped.
fn reply_line(input: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    assert!(
        input.read_line(&mut line).expect("reply") > 0,
        "server hung up"
    );
    line.trim_end().to_string()
}

#[test]
fn invalid_utf8_line_gets_err_and_the_connection_keeps_serving() {
    let (_server, addr) = start_server();
    let (mut input, mut out) = connect(&addr);
    out.write_all(b"\xff\xfe\nSELECT 1\n").expect("send");
    let err = reply_line(&mut input);
    assert!(err.starts_with("ERR "), "expected ERR, got {err:?}");
    assert_eq!(reply_line(&mut input), "ROW\t1");
    assert_eq!(reply_line(&mut input), "OK 1");
    roundtrip(&mut input, &mut out, "SHUTDOWN");
}

#[test]
fn overlong_line_gets_err_and_the_connection_closes() {
    // Twice the server's 16 MiB line cap, with no newline anywhere.
    const CHUNK: usize = 1 << 20;
    const TOTAL: usize = 32 << 20;
    let (_server, addr) = start_server();
    let (mut input, mut out) = connect(&addr);
    out.set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let writer = std::thread::spawn(move || {
        let chunk = vec![b'x'; CHUNK];
        let mut sent = 0;
        while sent < TOTAL {
            if out.write_all(&chunk).is_err() {
                return sent;
            }
            sent += CHUNK;
        }
        sent
    });
    assert_eq!(reply_line(&mut input), "ERR line too long");
    let mut rest = String::new();
    let closed = input.read_line(&mut rest).map_or(true, |n| n == 0);
    assert!(
        closed,
        "connection still open after an overlong line: {rest:?}"
    );
    let sent = writer.join().expect("writer thread");
    assert!(
        sent < TOTAL,
        "the server read all {sent} bytes of an overlong line"
    );
    // Other connections are unaffected; a clean stop releases the
    // server's data directory.
    let (mut input, mut out) = connect(&addr);
    let (rows, _) = roundtrip(&mut input, &mut out, "SELECT 1");
    assert_eq!(rows, vec!["1".to_string()]);
    roundtrip(&mut input, &mut out, "SHUTDOWN");
}

/// Undo the wire escaping of one `ROW` field.
fn unescape(field: &str) -> String {
    let mut out = String::new();
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next().expect("dangling backslash") {
                't' => '\t',
                'n' => '\n',
                'r' => '\r',
                '\\' => '\\',
                other => panic!("unknown escape \\{other}"),
            },
            c => c,
        });
    }
    out
}

#[test]
fn framing_bytes_in_values_round_trip() {
    let (_server, addr) = start_server();
    let (mut input, mut out) = connect(&addr);
    // One row comes back as one ROW line of two fields, however many
    // tabs and line breaks the value holds.
    let (rows, n) = roundtrip(&mut input, &mut out, "SELECT x, y FROM framing");
    assert_eq!((rows.len(), n), (1, 1), "torn frame: {rows:?}");
    let fields: Vec<&str> = rows[0].split('\t').collect();
    assert_eq!(fields, vec!["a\\tb\\nc\\\\d\\re", "7"]);
    assert_eq!(unescape(fields[0]), "a\tb\nc\\d\re");
    // Values without those bytes frame exactly as before.
    let (rows, _) = roundtrip(&mut input, &mut out, "SELECT 'plain', y FROM framing");
    assert_eq!(rows, vec!["plain\t7".to_string()]);
    roundtrip(&mut input, &mut out, "SHUTDOWN");
}

/// Pieces of hostile statement lines: NUL, a lone CR, bytes that are not
/// UTF-8, unbalanced quotes, placeholder text, and plausible SQL around
/// them.
const FUZZ_PIECES: &[&[u8]] = &[
    b"\0",
    b"\r",
    b"\xff",
    b"\xc3",
    b"\xe2\x82",
    b"'",
    b"\"",
    b"''",
    b"$1",
    b"$0",
    b"$",
    b"?",
    b"SELECT ",
    b"SELECT g, c FROM mv WHERE g = ",
    b"FROM t",
    b" WHERE ",
    b"v = ",
    b"'g1'",
    b"1",
    b"99999999999999999999",
    b"(",
    b")",
    b",",
    b" UNION ALL ",
    b" ",
    b"\t",
    b"--",
    b"/*",
];

/// Lines that are blank once trimmed; each still gets one reply.
const BLANK_LINES: &[&[u8]] = &[b"", b" ", b"   ", b"\t", b" \t ", b"\r", b"\r\r", b" \r"];

#[test]
fn fuzzed_lines_get_one_reply_each_and_the_connection_keeps_serving() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let (_server, addr) = start_server();
    let (mut input, mut out) = connect(&addr);
    let mut rng = StdRng::seed_from_u64(0xF022);
    for _ in 0..300 {
        let mut line = Vec::new();
        if rng.gen_bool(0.1) {
            // Blank after trimming: empty, spaces, tabs, a lone CR.
            line.extend_from_slice(BLANK_LINES[rng.gen_range(0..BLANK_LINES.len())]);
        } else {
            if rng.gen_bool(0.5) {
                line.extend_from_slice(b"SELECT ");
            }
            for _ in 0..rng.gen_range(1..8) {
                line.extend_from_slice(FUZZ_PIECES[rng.gen_range(0..FUZZ_PIECES.len())]);
            }
        }
        line.push(b'\n');
        out.write_all(&line).expect("send");
        // Any number of ROW lines, then exactly one OK or ERR.
        loop {
            let reply = reply_line(&mut input);
            if reply.starts_with("OK ") || reply.starts_with("ERR ") {
                break;
            }
            assert!(reply.starts_with("ROW"), "{line:?} got {reply:?}");
        }
    }
    // Nothing is left over, and the connection still serves.
    let (rows, n) = roundtrip(&mut input, &mut out, "SELECT 1");
    assert_eq!((rows, n), (vec!["1".to_string()], 1));
    roundtrip(&mut input, &mut out, "SHUTDOWN");
}
