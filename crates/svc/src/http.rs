//! A minimal HTTP/1.1 wire layer.
//!
//! Only the subset the campaign service and the fleet control plane
//! need: one request per connection (`Connection: close`),
//! `Content-Length` bodies, and hard limits on header-section and body
//! size. Anything outside that subset is a [`SvcError::BadRequest`].
//!
//! The layer is transport-free: [`parse_request`] consumes a byte buffer
//! and either yields a complete request, asks for more bytes, or fails
//! with the pinned error, and `Response` renders the reply. The one
//! transport is the reactor in the private `nio` module, which adds the
//! read timeout ([`SvcError::RequestTimeout`]) and the bounded drain
//! before a `413`.

use soteria_rt::json::Json;

use crate::error::SvcError;
use crate::server::RETRY_AFTER_SECS;

/// Size limits applied while reading a request.
#[derive(Clone, Copy, Debug)]
pub struct ReadLimits {
    /// Maximum bytes for the request line + headers (incl. `\r\n\r\n`).
    pub max_head_bytes: usize,
    /// Maximum bytes for the body (`Content-Length` is checked before
    /// the body is read).
    pub max_body_bytes: usize,
}

impl Default for ReadLimits {
    fn default() -> Self {
        Self {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// A parsed request: method, path, lower-cased header names, raw body.
#[derive(Clone, Debug)]
pub struct Request {
    /// The request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// The request target, e.g. `/v1/jobs/3/trace` (query strings are
    /// kept verbatim; the service does not use them).
    pub path: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The raw request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Locates the end of the header section (`\r\n\r\n`) in `buf`.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Parses the request line + headers (everything before the body).
fn parse_head(head: &[u8]) -> Result<Request, SvcError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| SvcError::BadRequest("request head is not valid UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(SvcError::BadRequest(format!(
                "malformed request line '{request_line}'"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(SvcError::BadRequest(format!(
            "unsupported protocol '{version}' (use HTTP/1.1)"
        )));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| SvcError::BadRequest(format!("malformed header line '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    })
}

/// The declared `Content-Length` of a parsed head, after framing checks.
fn body_length(request: &Request, limits: &ReadLimits) -> Result<usize, SvcError> {
    if request.header("transfer-encoding").is_some() {
        return Err(SvcError::BadRequest(
            "chunked bodies are not supported; send Content-Length".into(),
        ));
    }
    let Some(len) = request.header("content-length") else {
        return Ok(0);
    };
    let len: usize = len
        .parse()
        .map_err(|_| SvcError::BadRequest(format!("invalid Content-Length '{len}'")))?;
    if len > limits.max_body_bytes {
        return Err(SvcError::PayloadTooLarge {
            what: "body",
            limit: limits.max_body_bytes,
        });
    }
    Ok(len)
}

/// Incrementally parses one request from `buf`, enforcing `limits`.
///
/// Returns `Ok(Some((request, consumed)))` once a complete request is
/// buffered (`consumed` bytes belong to it), `Ok(None)` when more bytes
/// are needed, and the pinned [`SvcError`] on oversized or malformed
/// input.
pub fn parse_request(
    buf: &[u8],
    limits: &ReadLimits,
) -> Result<Option<(Request, usize)>, SvcError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() >= limits.max_head_bytes {
            return Err(SvcError::PayloadTooLarge {
                what: "header section",
                limit: limits.max_head_bytes,
            });
        }
        return Ok(None);
    };
    if head_end > limits.max_head_bytes {
        return Err(SvcError::PayloadTooLarge {
            what: "header section",
            limit: limits.max_head_bytes,
        });
    }
    let mut request = parse_head(&buf[..head_end])?;
    let len = body_length(&request, limits)?;
    if buf.len() < head_end + len {
        return Ok(None);
    }
    request.body = buf[head_end..head_end + len].to_vec();
    Ok(Some((request, head_end + len)))
}

/// How many declared-but-unread body bytes are still owed by the peer —
/// the bounded-drain budget after an oversized-body rejection.
pub fn drain_budget(buf: &[u8]) -> usize {
    find_head_end(buf)
        .and_then(|head_end| {
            let request = parse_head(&buf[..head_end]).ok()?;
            let len: usize = request.header("content-length")?.parse().ok()?;
            Some(len.saturating_sub(buf.len() - head_end))
        })
        .unwrap_or(0)
}

/// The `405` for a request whose path exists under another method.
pub(crate) fn method_not_allowed(req: &Request, allowed: &'static str) -> SvcError {
    SvcError::MethodNotAllowed {
        method: req.method.clone(),
        allowed,
    }
}

/// One routed reply, rendered by [`Response::to_wire`].
pub(crate) struct Response {
    pub(crate) status: u16,
    reason: &'static str,
    content_type: &'static str,
    extra: Vec<(&'static str, String)>,
    body: Vec<u8>,
}

impl Response {
    /// A `200 OK` carrying `body` as `content_type`.
    pub(crate) fn ok(content_type: &'static str, body: Vec<u8>) -> Response {
        Response {
            status: 200,
            reason: "OK",
            content_type,
            extra: Vec::new(),
            body,
        }
    }

    /// A pretty-printed JSON reply.
    pub(crate) fn json(status: u16, reason: &'static str, value: Json) -> Response {
        Response {
            status,
            reason,
            content_type: "application/json",
            extra: Vec::new(),
            body: value.to_pretty_string().into_bytes(),
        }
    }

    /// The error reply for `err`: a JSON body with the pinned one-line
    /// message, plus `Retry-After` for queue-full rejections.
    pub(crate) fn error(err: &SvcError) -> Response {
        let (status, reason) = err.status();
        let mut response = Response::json(
            status,
            reason,
            Json::Obj(vec![("error".into(), Json::Str(err.to_string()))]),
        );
        if let SvcError::QueueFull = err {
            response
                .extra
                .push(("Retry-After", RETRY_AFTER_SECS.to_string()));
        }
        response
    }

    /// Renders the `Connection: close` wire bytes: the standard headers,
    /// then `extra`; `Content-Length` is always derived from `body`.
    pub(crate) fn to_wire(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        wire
    }
}
