//! The service's user-facing failure vocabulary.
//!
//! Every error a client can observe maps to exactly one HTTP status and
//! one actionable one-line message. The CLI and tests pin the exact
//! strings, so changes here are API changes.

use std::fmt;

use crate::server::RETRY_AFTER_SECS;

/// A request-level failure, carrying everything needed to render both an
/// HTTP error response and a CLI one-liner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SvcError {
    /// The request was syntactically or semantically invalid (bad config
    /// JSON, bad job id, missing body).
    BadRequest(String),
    /// The path or job does not exist.
    NotFound(String),
    /// The path exists but not for this method.
    MethodNotAllowed {
        /// The method the client used.
        method: String,
        /// The methods the path accepts.
        allowed: &'static str,
    },
    /// The client sent bytes too slowly (or stopped mid-request).
    RequestTimeout,
    /// The request head or body exceeded a configured size limit.
    PayloadTooLarge {
        /// Which part overflowed (`"body"` or `"header section"`).
        what: &'static str,
        /// The configured limit in bytes.
        limit: usize,
    },
    /// The bounded job queue is full; the client should back off for
    /// the `Retry-After` seconds.
    QueueFull,
    /// The server is shutting down and only drains already-accepted work.
    Draining,
    /// A job or shard panicked; the message names it and the panic.
    JobFailed(String),
}

impl SvcError {
    /// The HTTP status code and reason phrase for this error.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            SvcError::BadRequest(_) => (400, "Bad Request"),
            SvcError::NotFound(_) => (404, "Not Found"),
            SvcError::MethodNotAllowed { .. } => (405, "Method Not Allowed"),
            SvcError::RequestTimeout => (408, "Request Timeout"),
            SvcError::PayloadTooLarge { .. } => (413, "Payload Too Large"),
            SvcError::QueueFull => (429, "Too Many Requests"),
            SvcError::Draining => (503, "Service Unavailable"),
            SvcError::JobFailed(_) => (500, "Internal Server Error"),
        }
    }
}

impl fmt::Display for SvcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvcError::BadRequest(detail) => write!(f, "bad request: {detail}"),
            SvcError::NotFound(what) => write!(f, "not found: {what}"),
            SvcError::MethodNotAllowed { method, allowed } => {
                write!(f, "method {method} not allowed here (use {allowed})")
            }
            SvcError::RequestTimeout => write!(
                f,
                "request timed out: send the complete request within the server's read timeout"
            ),
            SvcError::PayloadTooLarge { what, limit } => {
                write!(f, "request {what} exceeds the {limit}-byte limit")
            }
            SvcError::QueueFull => write!(
                f,
                "job queue is full; retry after {RETRY_AFTER_SECS}s (see Retry-After)"
            ),
            SvcError::Draining => {
                write!(f, "server is draining: finishing accepted jobs, not taking new ones")
            }
            SvcError::JobFailed(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for SvcError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact user-facing strings — every failure a client can hit
    /// must print an actionable one-liner.
    #[test]
    fn display_strings_are_pinned() {
        let cases: Vec<(SvcError, &str)> = vec![
            (
                SvcError::BadRequest("field 'fit' must be a positive number".into()),
                "bad request: field 'fit' must be a positive number",
            ),
            (
                SvcError::NotFound("job 7".into()),
                "not found: job 7",
            ),
            (
                SvcError::MethodNotAllowed {
                    method: "PUT".into(),
                    allowed: "GET",
                },
                "method PUT not allowed here (use GET)",
            ),
            (
                SvcError::RequestTimeout,
                "request timed out: send the complete request within the server's read timeout",
            ),
            (
                SvcError::PayloadTooLarge {
                    what: "body",
                    limit: 65536,
                },
                "request body exceeds the 65536-byte limit",
            ),
            (
                SvcError::QueueFull,
                "job queue is full; retry after 1s (see Retry-After)",
            ),
            (
                SvcError::Draining,
                "server is draining: finishing accepted jobs, not taking new ones",
            ),
            (
                SvcError::JobFailed("job 3 failed: boom".into()),
                "job 3 failed: boom",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn statuses_map_one_to_one() {
        assert_eq!(SvcError::BadRequest(String::new()).status().0, 400);
        assert_eq!(SvcError::NotFound(String::new()).status().0, 404);
        assert_eq!(
            SvcError::MethodNotAllowed {
                method: "GET".into(),
                allowed: "POST"
            }
            .status()
            .0,
            405
        );
        assert_eq!(SvcError::RequestTimeout.status().0, 408);
        assert_eq!(
            SvcError::PayloadTooLarge {
                what: "body",
                limit: 1
            }
            .status()
            .0,
            413
        );
        assert_eq!(SvcError::QueueFull.status().0, 429);
        assert_eq!(SvcError::Draining.status().0, 503);
        assert_eq!(SvcError::JobFailed(String::new()).status().0, 500);
    }
}
