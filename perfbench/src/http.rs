//! A minimal keep-alive HTTP/1.1 client that times each request.
//!
//! The daemon's own test client reads response heads one byte per system
//! call, which would dominate a 50 µs memo hit; this one reads in blocks
//! and splits the latency into time to first byte and body drain.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One timed response.
#[derive(Clone, Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Request write to first response byte, µs.
    pub ttfb_us: f64,
    /// Request write to last body byte, µs.
    pub total_us: f64,
}

/// A client holding at most one keep-alive connection.
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
}

const READ_TIMEOUT: Duration = Duration::from_secs(30);

impl Client {
    /// A client for `addr`; connects on first use.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            buf: vec![0u8; 64 * 1024],
        }
    }

    /// GET `target`, reusing the connection while the server keeps it
    /// open. Any error closes the connection; the next call reconnects.
    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        let result = self.try_get(target);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn try_get(&mut self, target: &str) -> io::Result<Reply> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            self.conn = Some(stream);
        }
        let stream = self.conn.as_mut().expect("connected above");
        let request = format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        let start = Instant::now();
        stream.write_all(request.as_bytes())?;
        let mut head: Vec<u8> = Vec::new();
        let mut ttfb_us = None;
        let head_end = loop {
            let n = stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a response",
                ));
            }
            ttfb_us.get_or_insert_with(|| start.elapsed().as_secs_f64() * 1e6);
            head.extend_from_slice(&self.buf[..n]);
            if let Some(pos) = head.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            if head.len() > 64 * 1024 {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized head"));
            }
        };
        let (status, length, close) = parse_head(&head[..head_end])?;
        let mut body = head.split_off(head_end);
        if body.len() > length {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "more bytes than Content-Length",
            ));
        }
        body.reserve(length - body.len());
        while body.len() < length {
            let want = (length - body.len()).min(self.buf.len());
            let n = stream.read(&mut self.buf[..want])?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "torn body"));
            }
            body.extend_from_slice(&self.buf[..n]);
        }
        let total_us = start.elapsed().as_secs_f64() * 1e6;
        if close {
            self.conn = None;
        }
        Ok(Reply {
            status,
            body,
            ttfb_us: ttfb_us.unwrap_or(total_us),
            total_us,
        })
    }
}

/// `(status, Content-Length, Connection: close)` from a response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize, bool)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let text = std::str::from_utf8(head).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    if !status_line.starts_with("HTTP/1.1 ") {
        return Err(bad("not an HTTP/1.1 response"));
    }
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let (key, value) = (key.trim().to_ascii_lowercase(), value.trim());
        if key == "content-length" {
            length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
        } else if key == "connection" && value.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    Ok((
        status,
        length.ok_or_else(|| bad("no Content-Length"))?,
        close,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection server that answers each request with `replies`
    /// in turn, then closes.
    fn serve(replies: Vec<&'static str>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 4096];
            for reply in replies {
                let mut seen = Vec::new();
                while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = stream.read(&mut buf).expect("read");
                    if n == 0 {
                        return;
                    }
                    seen.extend_from_slice(&buf[..n]);
                }
                stream.write_all(reply.as_bytes()).expect("write");
            }
        });
        (addr, handle)
    }

    #[test]
    fn keep_alive_replies_are_parsed_and_timed() {
        let (addr, server) = serve(vec![
            "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        ]);
        let mut client = Client::new(addr);
        let a = client.get("/a").expect("first reply");
        assert_eq!((a.status, a.body.as_slice()), (200, &b"hello"[..]));
        assert!(a.ttfb_us <= a.total_us);
        let b = client.get("/b").expect("second reply");
        assert_eq!(b.status, 503);
        assert!(client.conn.is_none(), "Connection: close drops the socket");
        server.join().expect("server");
    }

    #[test]
    fn a_refused_or_torn_request_is_an_error_not_a_reply() {
        let (addr, server) = serve(vec!["HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort"]);
        let mut client = Client::new(addr);
        assert!(client.get("/torn").is_err());
        server.join().expect("server");
        // Nothing listens any more: the connection is refused.
        assert!(client.get("/refused").is_err());
    }
}
