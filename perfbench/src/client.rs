//! A minimal HTTP/1.1 client for the server's `Connection: close`
//! responses: one connection per request, read to end of stream.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One response: status code and body bytes.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Sends one request and reads the whole response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Response> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
    conn.write_all(&out)?;
    let mut raw = Vec::with_capacity(4096);
    conn.read_to_end(&mut raw)?;
    parse(&raw)
}

/// Splits a raw `Connection: close` response into status and body.
fn parse(raw: &[u8]) -> std::io::Result<Response> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no head terminator"))?;
    let status_line = raw[..split]
        .split(|&b| b == b'\r')
        .next()
        .ok_or_else(|| bad("empty response"))?;
    let status = std::str::from_utf8(status_line)
        .ok()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("unparseable status line"))?;
    Ok(Response {
        status,
        body: raw[split + 4..].to_vec(),
    })
}

/// `POST /explain` with one goal literal per line.
pub fn explain(addr: SocketAddr, body: &str) -> std::io::Result<Response> {
    request(addr, "POST", "/explain", body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let r = parse(b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\r\n{\"error\":1}")
            .unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.body, b"{\"error\":1}");
        assert!(parse(b"HTTP/1.1 200 OK\r\n").is_err());
    }
}
