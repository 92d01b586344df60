//! Minimal HTTP/1.1 on top of [`std::net::TcpStream`]: request parsing,
//! response writing, and nothing else.
//!
//! The server speaks the subset real clients (curl, the bundled
//! [`Client`](crate::client::Client)) actually need:
//!
//! * request line + headers + `Content-Length`-delimited bodies;
//!   `Transfer-Encoding` is refused with a `400` (chunked framing is
//!   not implemented, and half-parsing it would desync the stream), and
//!   so are a length that is not all digits and repeated lengths that
//!   disagree;
//! * `Expect: 100-continue` gets its interim `100 Continue`, and body
//!   reads ride out short stalls (`BODY_DEADLINE`, 10 s) instead of
//!   inheriting the between-request poll timeout;
//! * persistent connections — requests are served in a loop until the
//!   peer closes, sends `Connection: close`, or the idle window expires;
//! * hard bounds on header and body sizes, so a hostile peer cannot make
//!   a worker allocate unboundedly.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest accepted header block, bytes.
pub const MAX_HEAD: usize = 16 * 1024;

/// Largest accepted request body, bytes (a verilog-carrying flow request
/// fits with two orders of magnitude to spare).
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string included (the protocol uses none).
    pub path: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to close the connection after this request.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why reading a request ended without one.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed (or the idle window expired) between requests —
    /// the normal end of a keep-alive connection.
    Closed,
    /// The socket's read timeout expired with **no bytes consumed** —
    /// the connection is intact and the read can simply be retried. The
    /// worker loop uses this window to poll the shutdown flag.
    TimedOut,
    /// The bytes on the wire were not a well-formed request. The
    /// connection cannot be resynchronized and must be dropped after the
    /// `400` response.
    Malformed(String),
    /// The head or body exceeded [`MAX_HEAD`] / [`MAX_BODY`].
    TooLarge,
}

/// Reads one request from a buffered stream. [`ReadError::Closed`] is
/// the clean end of the connection; the other variants warrant a `400` /
/// `413` response before dropping it. `write_half` is only used to nod
/// at `Expect: 100-continue` clients before their body is read.
pub fn read_request(
    stream: &mut BufReader<TcpStream>,
    write_half: &mut TcpStream,
) -> Result<Request, ReadError> {
    let request_line = read_line(stream, true)?;
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ReadError::Malformed(format!(
            "bad request line `{request_line}`"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("bad version `{version}`")));
    }

    let mut headers = Vec::new();
    let mut head_bytes = request_line.len();
    loop {
        let line = read_line(stream, false)?;
        if line.is_empty() {
            break;
        }
        head_bytes += line.len();
        if head_bytes > MAX_HEAD {
            return Err(ReadError::TooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };
    // Chunked framing is not implemented; pretending the body is empty
    // would desync the keep-alive stream (chunk lines would parse as the
    // next request). Refuse it outright; the caller closes after the 400.
    if request.header("transfer-encoding").is_some() {
        return Err(ReadError::Malformed(
            "transfer-encoding is not supported; send a content-length body".into(),
        ));
    }
    if let Some(len) = content_length(&request.headers)? {
        if len > MAX_BODY {
            return Err(ReadError::TooLarge);
        }
        // curl (and other clients) default to `Expect: 100-continue` for
        // larger bodies and hold the body back until the server nods.
        if request
            .header("expect")
            .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
        {
            let _ = write_half.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
            let _ = write_half.flush();
        }
        let mut body = vec![0u8; len];
        read_body(stream, &mut body)?;
        request.body = body;
    }
    Ok(request)
}

/// The body length the `content-length` headers declare. Every value
/// must be all ASCII digits (`usize::parse` alone would take `+5`), and
/// repeated headers must agree: with two different lengths the peer and
/// the server would disagree on where the next keep-alive request
/// starts.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, ReadError> {
    let mut length = None;
    for (_, value) in headers.iter().filter(|(name, _)| name == "content-length") {
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ReadError::Malformed(format!(
                "bad content-length `{value}`"
            )));
        }
        // All digits, so a parse failure is an overflow: far past MAX_BODY.
        let len: usize = value.parse().map_err(|_| ReadError::TooLarge)?;
        if length.is_some_and(|seen| seen != len) {
            return Err(ReadError::Malformed(
                "conflicting content-length headers".into(),
            ));
        }
        length = Some(len);
    }
    Ok(length)
}

/// How long a started request's body may take to dribble in before the
/// connection is declared dead. Distinct from the short between-request
/// poll timeout: mid-request stalls (a WAN client, an `Expect:
/// 100-continue` pause) must not kill the request.
const BODY_DEADLINE: std::time::Duration = std::time::Duration::from_secs(10);

/// `read_exact` that rides out read-timeout ticks (the socket keeps the
/// short between-request poll timeout) until `BODY_DEADLINE`.
fn read_body(stream: &mut BufReader<TcpStream>, body: &mut [u8]) -> Result<(), ReadError> {
    let deadline = std::time::Instant::now() + BODY_DEADLINE;
    let mut filled = 0;
    while filled < body.len() {
        match stream.read(&mut body[filled..]) {
            Ok(0) => return Err(ReadError::Closed),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if std::time::Instant::now() >= deadline {
                    return Err(ReadError::Closed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(ReadError::Closed),
        }
    }
    Ok(())
}

/// Reads one CRLF- (or LF-) terminated line, without the terminator.
/// `first` marks the request line, where EOF is the clean keep-alive end
/// rather than a truncation.
fn read_line(stream: &mut BufReader<TcpStream>, first: bool) -> Result<String, ReadError> {
    let mut line = Vec::new();
    let mut limited = stream.take(MAX_HEAD as u64 + 1);
    match limited.read_until(b'\n', &mut line) {
        Ok(0) if first => return Err(ReadError::Closed),
        Ok(0) => return Err(ReadError::Malformed("truncated head".into())),
        Ok(_) => {}
        // A clean timeout before any byte of the request line arrived is
        // retryable; anything else (resets, mid-line timeouts) ends the
        // connection.
        Err(e)
            if first
                && line.is_empty()
                && matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
        {
            return Err(ReadError::TimedOut)
        }
        Err(_) => return Err(ReadError::Closed),
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() > MAX_HEAD {
        return Err(ReadError::TooLarge);
    } else if first && line.is_empty() {
        return Err(ReadError::Closed);
    }
    String::from_utf8(line).map_err(|_| ReadError::Malformed("non-UTF-8 head".into()))
}

/// The reason phrase of the status codes the protocol emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        406 => "Not Acceptable",
        408 => "Request Timeout",
        410 => "Gone",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Writes one `application/json` response. `close` adds
/// `Connection: close` so the client knows not to reuse the socket.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    close: bool,
) -> io::Result<()> {
    write_response_bytes(stream, status, "application/json", body.as_bytes(), close)
}

/// Writes one response with an explicit content type and a raw byte
/// body — the binary result encodings of [`crate::encode`] ride this.
pub fn write_response_bytes(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Opens a `Transfer-Encoding: chunked` response. Streamed responses
/// always close the connection afterwards: the peer may abandon the
/// stream mid-chunk, at which point the framing (not the connection) is
/// the only thing left in a known state.
pub fn start_chunked(stream: &mut TcpStream, status: u16, content_type: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
        reason(status),
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes and flushes one non-empty chunk. (An empty slice is skipped:
/// a zero-length chunk is the terminator, [`finish_chunked`]'s job.)
pub fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    stream.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminates a chunked response.
pub fn finish_chunked(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}
