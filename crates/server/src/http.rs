//! A deliberately small HTTP/1.1 server substrate.
//!
//! This workspace vendors every dependency and carries no async runtime
//! or web framework, so the experiment service speaks HTTP the way the
//! protocol was written: one blocking [`TcpStream`] per connection, a
//! request parser that understands exactly what the API needs (method,
//! target, headers, `Content-Length` bodies), and response writers for
//! JSON and Server-Sent Event streams. Connections are `close`-only —
//! one request per connection keeps the state machine trivial, and both
//! `curl` and the integration tests are fine with that.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};

/// Largest request body accepted, in bytes. Experiment specs are a few
/// hundred bytes; anything near this bound is not a spec.
pub const MAX_BODY: usize = 1 << 20;

/// Largest request head (request line plus headers) accepted, in bytes.
/// The API's own requests carry a few short headers.
pub const MAX_HEAD: usize = 16 << 10;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Request target with any query string stripped (`/experiments/ab12`).
    pub path: String,
    /// Body bytes (empty when the request carried none).
    pub body: Vec<u8>,
}

/// A request refused before routing, with the status to answer it with.
#[derive(Debug)]
struct Rejected {
    status: u16,
    reason: &'static str,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.reason)
    }
}

impl std::error::Error for Rejected {}

/// Read and parse one request from `stream`. Returns `Ok(None)` for a
/// connection closed before a full request line arrived; protocol errors
/// surface as `Err`, answered with [`rejection_status`]. The head may
/// not exceed [`MAX_HEAD`] bytes, nor the body [`MAX_BODY`].
pub fn read_request(stream: &mut impl Read) -> std::io::Result<Option<Request>> {
    let mut reader = BufReader::new(stream);
    let mut head = (&mut reader).take(MAX_HEAD as u64);
    let mut line = String::new();
    if read_head_line(&mut head, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_ascii_uppercase(), t.to_string()),
        _ => return Err(bad("malformed request line")),
    };

    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if read_head_line(&mut head, &mut header)? == 0 {
            return Err(bad("eof inside headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(bad("body too large"));
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    let path = target.split('?').next().unwrap_or("").to_string();
    Ok(Some(Request { method, path, body }))
}

/// `read_line` within the head budget: a line the budget cuts short
/// refuses the request with 431.
fn read_head_line<R: BufRead>(
    head: &mut std::io::Take<R>,
    buf: &mut String,
) -> std::io::Result<usize> {
    let n = head.read_line(buf)?;
    if head.limit() == 0 && !buf.ends_with('\n') {
        return Err(rejected(431, "request head too large"));
    }
    Ok(n)
}

fn bad(reason: &'static str) -> std::io::Error {
    rejected(400, reason)
}

fn rejected(status: u16, reason: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, Rejected { status, reason })
}

/// The status that answers a failed [`read_request`]: 431 for a head
/// over [`MAX_HEAD`], 400 for any other malformed request.
pub fn rejection_status(e: &std::io::Error) -> u16 {
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<Rejected>())
        .map_or(400, |r| r.status)
}

/// Close a connection whose request was refused part-read. The write
/// half closes first, so the client reads the whole response and then
/// end-of-file; the input it is still sending is read and discarded, up
/// to [`MAX_BODY`] bytes or the socket's read deadline. Closing with
/// unread input would make the kernel reset the connection, and the
/// client could lose the response.
pub fn discard_unread(stream: &mut TcpStream) {
    if stream.shutdown(Shutdown::Write).is_ok() {
        let _ = std::io::copy(&mut stream.take(MAX_BODY as u64), &mut std::io::sink());
    }
}

/// Did this I/O error come from an expired socket deadline? Unix
/// surfaces `EAGAIN` (`WouldBlock`) for a timed-out blocking socket;
/// other platforms use `TimedOut`.
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "",
    }
}

/// Write a complete response with the given content type, head and body
/// in one `write_all`. Responders return the status they wrote so the
/// routing layer can record it in the request metrics without
/// re-deriving it.
pub fn respond(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<u16> {
    let response = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        status_text(status),
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()?;
    Ok(status)
}

/// Write a complete JSON response and close-frame headers.
pub fn respond_json(stream: &mut impl Write, status: u16, body: &str) -> std::io::Result<u16> {
    respond(stream, status, "application/json", body)
}

/// Write an error response with a `{"error": …}` JSON body.
pub fn respond_error(stream: &mut impl Write, status: u16, msg: &str) -> std::io::Result<u16> {
    let body = serde_json::to_string(&serde::Value::Object(vec![(
        "error".to_string(),
        serde::Value::String(msg.to_string()),
    )]))
    .expect("serialize error body");
    respond_json(stream, status, &body)
}

/// Begin a Server-Sent Events response: headers only, in one write;
/// events follow via [`write_sse_event`] until the caller closes the
/// stream.
pub fn start_sse(stream: &mut impl Write) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\n\
          cache-control: no-store\r\nconnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// Write one SSE event frame in one write. `data` must be a single line
/// (the JSON payloads this server emits are compact, never
/// pretty-printed).
pub fn write_sse_event(stream: &mut impl Write, event: &str, data: &str) -> std::io::Result<()> {
    debug_assert!(!data.contains('\n'), "SSE data must be single-line");
    stream.write_all(format!("event: {event}\ndata: {data}\n\n").as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct WriteLog {
        writes: Vec<Vec<u8>>,
    }

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_leaves_in_one_write() {
        let mut log = WriteLog::default();
        assert_eq!(respond_json(&mut log, 202, r#"{"id":"ab"}"#).unwrap(), 202);
        assert_eq!(
            respond_error(&mut log, 404, "unknown experiment").unwrap(),
            404
        );
        assert_eq!(log.writes.len(), 2);
        let first = String::from_utf8(log.writes[0].clone()).unwrap();
        assert_eq!(
            first,
            "HTTP/1.1 202 Accepted\r\ncontent-type: application/json\r\n\
             content-length: 11\r\nconnection: close\r\n\r\n{\"id\":\"ab\"}"
        );
        let second = String::from_utf8(log.writes[1].clone()).unwrap();
        assert!(second.starts_with("HTTP/1.1 404 Not Found\r\n"), "{second}");
        assert!(
            second.ends_with(r#"{"error":"unknown experiment"}"#),
            "{second}"
        );
    }

    #[test]
    fn each_sse_frame_leaves_in_one_write() {
        let mut log = WriteLog::default();
        start_sse(&mut log).unwrap();
        write_sse_event(&mut log, "progress", r#"{"done":0,"total":4}"#).unwrap();
        write_sse_event(&mut log, "done", r#"{"id":"ab"}"#).unwrap();
        let writes: Vec<String> = log
            .writes
            .into_iter()
            .map(|w| String::from_utf8(w).unwrap())
            .collect();
        assert_eq!(writes.len(), 3);
        assert!(writes[0].starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(writes[0].ends_with("\r\n\r\n"));
        assert_eq!(
            writes[1],
            "event: progress\ndata: {\"done\":0,\"total\":4}\n\n"
        );
        assert_eq!(writes[2], "event: done\ndata: {\"id\":\"ab\"}\n\n");
    }

    #[test]
    fn head_is_bounded() {
        let parse = |raw: &[u8]| read_request(&mut &raw[..]);

        let ok = format!(
            "POST /experiments?x=1 HTTP/1.1\r\nx-pad: {}\r\ncontent-length: 2\r\n\r\n{{}}",
            "a".repeat(MAX_HEAD / 2)
        );
        let req = parse(ok.as_bytes()).unwrap().unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/experiments")
        );
        assert_eq!(req.body, b"{}");

        for raw in [
            format!(
                "GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n",
                "a".repeat(MAX_HEAD)
            ),
            format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD)),
            // Many short headers add up to the same bound.
            format!(
                "GET /healthz HTTP/1.1\r\n{}\r\n",
                "x: y\r\n".repeat(MAX_HEAD / 6)
            ),
        ] {
            let e = parse(raw.as_bytes()).unwrap_err();
            assert_eq!(rejection_status(&e), 431, "{e}");
        }

        let e = parse(b"GET\r\n\r\n").unwrap_err();
        assert_eq!(rejection_status(&e), 400, "{e}");
        assert!(parse(b"").unwrap().is_none());
    }
}
