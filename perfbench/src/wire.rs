//! A minimal HTTP/1.1 client for the `serve` load generator.
//!
//! Each request goes out in one write. The response head and body are
//! timed separately, so a stall between them shows. A connection is kept
//! alive until the daemon answers `Connection: close` (its keep-alive
//! request cap), and the next request opens a new one. A socket that
//! closes mid-response is a failed request, never a spin on empty reads.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest the client waits on a socket before it calls the request
/// failed.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);
/// Largest response head accepted.
const MAX_HEAD: usize = 64 * 1024;

/// One received response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// When the request was written.
    pub sent: Instant,
    /// When the first response byte arrived.
    pub first_byte: Instant,
    /// When the head (through the blank line) was complete.
    pub head: Instant,
    /// When the body was complete.
    pub done: Instant,
}

impl Reply {
    pub fn round_trip(&self) -> Duration {
        self.done - self.sent
    }
}

/// A keep-alive connection that reconnects when the daemon closes it.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Connections opened so far.
    pub connects: u64,
}

/// Bytes of one request with `Connection: keep-alive`.
pub fn request(method: &str, path: &str, body: Option<&str>) -> Vec<u8> {
    let mut text =
        format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n");
    if let Some(body) = body {
        text.push_str("Content-Type: application/json\r\n");
        text.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    } else {
        text.push_str("\r\n");
    }
    text.into_bytes()
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            connects: 0,
        }
    }

    /// Send `req` and read one response. On any error the connection is
    /// dropped, so the next request starts on a fresh one.
    pub fn exchange(&mut self, req: &[u8]) -> Result<Reply, String> {
        let result = self.try_exchange(req);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    /// Open the connection now (if it is not open), so that the next
    /// request's timing starts on an established connection.
    pub fn connect(&mut self) -> Result<(), String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream
                .set_read_timeout(Some(SOCKET_TIMEOUT))
                .and_then(|()| stream.set_write_timeout(Some(SOCKET_TIMEOUT)))
                .map_err(|e| format!("socket options: {e}"))?;
            self.stream = Some(stream);
            self.connects += 1;
        }
        Ok(())
    }

    fn try_exchange(&mut self, req: &[u8]) -> Result<Reply, String> {
        self.connect()?;
        let stream = self.stream.as_mut().expect("connected above");
        let sent = Instant::now();
        stream.write_all(req).map_err(|e| format!("send: {e}"))?;

        let mut buf: Vec<u8> = Vec::with_capacity(4096);
        let mut chunk = [0u8; 16 * 1024];
        let mut first_byte = None;
        let head_len = loop {
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("read head: {e}"))?;
            if n == 0 {
                return Err("connection closed before the response head".into());
            }
            first_byte.get_or_insert_with(Instant::now);
            buf.extend_from_slice(&chunk[..n]);
            if let Some(end) = find_blank_line(&buf) {
                break end;
            }
            if buf.len() > MAX_HEAD {
                return Err("response head too large".into());
            }
        };
        let head_at = Instant::now();
        let head =
            std::str::from_utf8(&buf[..head_len]).map_err(|_| "response head is not UTF-8")?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or("malformed status line")?;
        let mut length = 0usize;
        let mut close = false;
        for line in head.lines().skip(1) {
            if let Some((key, value)) = line.split_once(':') {
                let key = key.trim();
                if key.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| "bad Content-Length")?;
                } else if key.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        while buf.len() < head_len + length {
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("read body: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-body".into());
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        let done = Instant::now();
        let body = String::from_utf8(buf[head_len..head_len + length].to_vec())
            .map_err(|_| "response body is not UTF-8")?;
        if close {
            self.stream = None;
        }
        Ok(Reply {
            status,
            body,
            sent,
            first_byte: first_byte.expect("set on the first read"),
            head: head_at,
            done,
        })
    }
}
