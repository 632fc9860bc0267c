//! The `openivm --serve` child process and a client for its line protocol.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use crate::sys;

/// The server child. Dropping it kills and reaps the process, so every exit
/// path — a failed check or a panic included — leaves nothing running.
#[derive(Debug)]
pub struct Server {
    child: Child,
    pub addr: String,
    /// Held so the server's stdout stays open for its lifetime.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start `openivm --serve 127.0.0.1:0` (in-memory) from the directory
    /// of the running executable and wait for its listening address.
    pub fn spawn() -> Result<Server, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
        let path = exe.with_file_name("openivm");
        if !path.is_file() {
            return Err(format!(
                "{} not found: build the server next to the bench first \
                 (`cargo build --release --bin openivm` into the same target directory, \
                 as openivm-bench/run.sh does)",
                path.display()
            ));
        }
        let mut child = Command::new(&path)
            .args(["--serve", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", path.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("openivm: serving on ")
                .map(str::to_string),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not announce its address: {line:?}"));
        };
        Ok(Server {
            child,
            addr,
            _stdout: stdout,
        })
    }

    /// Peak resident set of the server so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        sys::peak_rss_mb(Some(self.child.id()))
    }

    /// CPU seconds (user + system) the server has used so far.
    pub fn cpu_seconds(&self) -> Option<f64> {
        sys::cpu_seconds(self.child.id())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One reply: the `ROW` lines (tab-separated values, prefix removed) and
/// the count of the closing `OK`.
#[derive(Debug, Default, PartialEq)]
pub struct Reply {
    pub rows: Vec<String>,
    pub count: usize,
}

#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A reply that takes this long is a failed operation, not a hang.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { reader, stream })
    }

    /// Send one statement and read its reply. `ERR`, a closed connection
    /// and a timeout are all errors.
    pub fn request(&mut self, sql: &str) -> Result<Reply, String> {
        self.stream
            .write_all(format!("{sql}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = Reply::default();
        loop {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("connection closed".to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
            let line = line.trim_end_matches(['\n', '\r']);
            if let Some(row) = line.strip_prefix("ROW\t") {
                reply.rows.push(row.to_string());
            } else if let Some(count) = line.strip_prefix("OK ") {
                reply.count = count.parse().map_err(|_| format!("bad reply: {line}"))?;
                return Ok(reply);
            } else {
                return Err(line.to_string());
            }
        }
    }
}
