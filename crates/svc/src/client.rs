//! A blocking HTTP/1.1 client for the campaign service, used by the
//! CLI (`soteria submit` / `soteria http`), the load generator, and the
//! integration tests. One request per connection, mirroring the
//! server's `Connection: close` policy.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use soteria_rt::json::Json;

/// Connection behaviour for [`request_with`]: how long to wait for a
/// connect and for response bytes. The fleet coordinator tightens these
/// so a dead worker is detected in seconds, not TCP-stack minutes.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Maximum time to establish the TCP connection.
    pub connect_timeout: Duration,
    /// Maximum time to wait on any single read or write.
    pub read_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// Runs `op` up to `attempts` times, sleeping `backoff` (doubled each
/// retry, capped at two seconds) between failures. Returns the first
/// success or the last error — the retry helper behind the fleet
/// coordinator's worker RPCs.
///
/// # Errors
///
/// The last attempt's error, once every attempt has failed.
pub fn retrying<T>(
    attempts: u32,
    backoff: Duration,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let attempts = attempts.max(1);
    let mut delay = backoff;
    let mut last: Option<io::Error> = None;
    for attempt in 0..attempts {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => last = Some(e),
        }
        if attempt + 1 < attempts {
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_secs(2));
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("no attempts made")))
}

/// A parsed response: status line, lower-cased headers, raw body.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// The numeric status code.
    pub status: u16,
    /// The reason phrase (informational only).
    pub reason: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The raw response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The first header with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy: this is for display and tests).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The body parsed as JSON.
    ///
    /// # Errors
    ///
    /// Returns a one-line message when the body is not valid JSON.
    pub fn json(&self) -> Result<Json, String> {
        Json::parse(&self.text()).map_err(|e| format!("response body is not valid JSON: {e}"))
    }
}

/// Sends one request and reads the full response.
///
/// `body` is `(content_type, bytes)`; pass `None` for bodyless methods.
///
/// # Errors
///
/// Any socket or framing failure surfaces as [`io::Error`].
pub fn request<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    path: &str,
    body: Option<(&str, &[u8])>,
) -> io::Result<HttpResponse> {
    request_with(addr, method, path, body, &ClientConfig::default())
}

/// [`request`] with explicit connect/read timeouts.
///
/// # Errors
///
/// Any socket or framing failure surfaces as [`io::Error`]; a connect
/// slower than `config.connect_timeout` or a read stalled longer than
/// `config.read_timeout` fails instead of hanging.
pub fn request_with<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    path: &str,
    body: Option<(&str, &[u8])>,
    config: &ClientConfig,
) -> io::Result<HttpResponse> {
    let mut last: Option<io::Error> = None;
    let mut stream = None;
    for candidate in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&candidate, config.connect_timeout) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) => last = Some(e),
        }
    }
    let mut stream = stream.ok_or_else(|| {
        last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            )
        })
    })?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.read_timeout))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: soteria\r\nConnection: close\r\n");
    if let Some((content_type, bytes)) = body {
        head.push_str(&format!(
            "Content-Type: {content_type}\r\nContent-Length: {}\r\n",
            bytes.len()
        ));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    if let Some((_, bytes)) = body {
        stream.write_all(bytes)?;
    }
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// `GET path`.
pub fn get<A: ToSocketAddrs>(addr: A, path: &str) -> io::Result<HttpResponse> {
    request(addr, "GET", path, None)
}

/// `POST path` with a JSON body.
pub fn post_json<A: ToSocketAddrs>(addr: A, path: &str, body: &Json) -> io::Result<HttpResponse> {
    let bytes = body.to_string().into_bytes();
    request(addr, "POST", path, Some(("application/json", &bytes)))
}

fn bad(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

fn parse_response(raw: &[u8]) -> io::Result<HttpResponse> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header/body separator".into()))?;
    let head = std::str::from_utf8(&raw[..split])
        .map_err(|_| bad("response head is not valid UTF-8".into()))?;
    let body = raw[split + 4..].to_vec();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    let (_version, status, reason) = (
        parts.next().unwrap_or(""),
        parts.next().unwrap_or(""),
        parts.next().unwrap_or("").to_string(),
    );
    let status: u16 = status
        .parse()
        .map_err(|_| bad(format!("malformed status line '{status_line}'")))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("malformed response header '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let response = HttpResponse {
        status,
        reason,
        headers,
        body,
    };
    if let Some(len) = response.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| bad(format!("invalid response Content-Length '{len}'")))?;
        if response.body.len() != len {
            return Err(bad(format!(
                "response body truncated: got {} of {len} bytes",
                response.body.len()
            )));
        }
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_simple_response() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\nContent-Length: 2\r\nRetry-After: 1\r\n\r\n{}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 202);
        assert_eq!(r.reason, "Accepted");
        assert_eq!(r.header("retry-after"), Some("1"));
        assert_eq!(r.text(), "{}");
    }

    #[test]
    fn truncated_body_is_an_error() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nok";
        assert!(parse_response(raw).is_err());
    }
}
