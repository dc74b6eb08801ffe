//! The benchmark's side of the wire: an `ehw-serve` child process and a
//! plain blocking HTTP/1.1 client.
//!
//! The client keeps default socket options (no `TCP_NODELAY`, no
//! `TCP_QUICKACK`) and sends each request in one write, so the server sees
//! the traffic an ordinary client produces.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use ehw_server::json::{self, Value};

/// Longest a client waits on one response before the job counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// An `ehw-serve` process on an ephemeral loopback port.  Dropping it kills
/// the process and waits for it to end.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    pub fn spawn(bin: &Path, platforms: usize, workers: usize) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .arg("127.0.0.1:0")
            .env("EHW_PLATFORMS", platforms.to_string())
            .env("EHW_WORKERS", workers.to_string())
            .env_remove("EHW_CHUNK")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "ehw-serve did not report its address: {line:?}"
            )));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// The server's `/proc/<pid>` directory.
    pub fn proc_dir(&self) -> String {
        format!("/proc/{}", self.child.id())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of the process behind a `/proc/<pid>` directory, in MiB (0 when
/// unreadable).
pub fn peak_rss_mb(proc_dir: &str) -> f64 {
    std::fs::read_to_string(format!("{proc_dir}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Restarts a process's `VmHWM` from its current RSS, so a later read
/// covers only what follows.
pub fn reset_peak_rss(proc_dir: &str) -> Result<(), String> {
    std::fs::write(format!("{proc_dir}/clear_refs"), "5")
        .map_err(|e| format!("cannot reset the peak RSS of {proc_dir}: {e}"))
}

pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Response {
    pub fn json(&self) -> io::Result<Value> {
        json::parse(&self.body).map_err(|e| io::Error::other(format!("bad JSON: {e}")))
    }
}

/// One keep-alive connection, reopened when the server announces
/// `Connection: close`.
pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<Response> {
        if self.conn.is_none() {
            let stream = connect(self.addr)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((stream, reader));
        }
        let (stream, reader) = self.conn.as_mut().expect("connection was just opened");
        let outcome = stream
            .write_all(&request_bytes(method, path, body))
            .and_then(|()| read_response(reader));
        match outcome {
            Ok((response, keep_alive)) => {
                if !keep_alive {
                    self.conn = None;
                }
                Ok(response)
            }
            Err(error) => {
                self.conn = None;
                Err(error)
            }
        }
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// The whole request — head and body — as one buffer, sent in one write.
fn request_bytes(method: &str, path: &str, body: Option<&str>) -> Vec<u8> {
    let body = body.unwrap_or("");
    let mut bytes = format!(
        "{method} {path} HTTP/1.1\r\nHost: ehw-bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Reads a status line and headers; returns the status, the
/// `Content-Length` (if any) and whether the connection stays open.
fn read_head(reader: &mut impl BufRead) -> io::Result<(u16, Option<usize>, bool)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
    let mut length = None;
    let mut keep_alive = true;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    Ok((status, length, keep_alive))
}

fn read_response(reader: &mut impl BufRead) -> io::Result<(Response, bool)> {
    let (status, length, keep_alive) = read_head(reader)?;
    let length = length.ok_or_else(|| io::Error::other("response has no Content-Length"))?;
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| io::Error::other("body is not UTF-8"))?;
    Ok((Response { status, body }, keep_alive))
}

/// What one NDJSON event stream delivered.
#[derive(Debug, Default, Clone, Copy)]
pub struct EventStream {
    pub bytes: u64,
    pub lines: u64,
    pub frame_lines: u64,
}

/// Reads `GET /jobs/:id/events` on a connection of its own until the server
/// closes it.
pub fn read_events(addr: SocketAddr, job_id: u64) -> io::Result<EventStream> {
    let mut stream = connect(addr)?;
    stream.write_all(&request_bytes(
        "GET",
        &format!("/jobs/{job_id}/events"),
        None,
    ))?;
    let mut reader = BufReader::new(stream);
    let (status, _, _) = read_head(&mut reader)?;
    if status != 200 {
        return Err(io::Error::other(format!("event stream answered {status}")));
    }
    let mut seen = EventStream::default();
    let mut line = String::new();
    while reader.read_line(&mut line)? > 0 {
        seen.bytes += line.len() as u64;
        seen.lines += 1;
        if line.contains("\"phase\":\"frame\"") {
            seen.frame_lines += 1;
        }
        line.clear();
    }
    Ok(seen)
}
