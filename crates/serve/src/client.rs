//! A minimal blocking HTTP/1.1 client for the wire protocol — enough
//! for the bundled example, the integration tests, and the bench; real
//! deployments can use any HTTP client (the protocol is plain JSON over
//! HTTP, see `ARCHITECTURE.md` for curl transcripts).
//!
//! Requests are built with [`Client::request`]: a typed builder that
//! carries the method, path, optional JSON body, and the negotiated
//! result [`Format`]. On top of it sits one job-protocol helper,
//! [`Client::submit_and_stream`]: submit, then consume the chunked
//! `/stream` response incrementally as [`StreamEvent`]s — in either
//! negotiated format, through one callback.

use crate::encode::{self, Format};
use crate::json::{self, Json};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// The parsed JSON body, or [`Json::Null`] for non-JSON content
    /// types (check [`bytes`](ClientResponse::bytes) instead).
    pub body: Json,
    /// The raw response body bytes, whatever the content type.
    pub bytes: Vec<u8>,
    /// The response's `content-type` header (empty when absent).
    pub content_type: String,
}

impl ClientResponse {
    /// Fails loudly unless the status is the expected one — test and
    /// example ergonomics.
    ///
    /// # Panics
    ///
    /// Panics (with the body in the message) on any other status.
    pub fn expect_status(self, status: u16) -> Json {
        assert!(
            self.status == status,
            "expected {status}, got {}: {}",
            self.status,
            self.body.render()
        );
        self.body
    }
}

/// One event of a `GET /v1/jobs/{id}/stream` response, decoded from
/// either negotiated format.
#[derive(Clone, Debug)]
pub enum StreamEvent {
    /// The stream opened: the job id and the number of rows to expect
    /// (`0` for non-composite jobs).
    Start {
        /// The job being streamed.
        job: u64,
        /// Total rows the job will deliver (corner rows for a sweep,
        /// die outcomes for a repair lot, candidate evaluations for an
        /// optimization).
        total: u64,
    },
    /// One corner row, die outcome, or optimize candidate, in canonical
    /// report order.
    Row {
        /// Zero-based position of this row in the final report.
        index: u64,
        /// The row, rendered exactly as in the buffered JSON report.
        row: Json,
    },
    /// Terminal: the job succeeded; for composites the payload is the
    /// full report (every row again, plus summaries).
    Done(Json),
    /// Terminal: the job failed; the payload is the whole error event.
    Error(Json),
    /// Terminal: the job was canceled by server shutdown.
    Canceled,
}

/// A request under construction — returned by [`Client::request`].
pub struct RequestBuilder<'a> {
    client: &'a mut Client,
    method: String,
    path: String,
    body: Option<String>,
    accept: Format,
}

impl RequestBuilder<'_> {
    /// Attaches a JSON body (rendered immediately).
    pub fn body(mut self, body: &Json) -> Self {
        self.body = Some(body.render());
        self
    }

    /// Negotiates the result format (sent as the `Accept` header).
    /// JSON is the default.
    pub fn accept(mut self, format: Format) -> Self {
        self.accept = format;
        self
    }

    /// Performs the request and reads the full response.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures.
    pub fn send(self) -> io::Result<ClientResponse> {
        self.client
            .perform(&self.method, &self.path, self.body.as_deref(), self.accept)
    }
}

/// Whether an error is the signature of a keep-alive connection the
/// server closed between requests (safe to retry on a fresh socket —
/// the server never processes a request without writing a response, so
/// zero response bytes means zero processing). Timeouts are excluded:
/// a slow server may still be working on the request.
fn is_stale_connection(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// Parsed response head: status line plus the framing headers the
/// client needs.
struct Head {
    status: u16,
    content_type: String,
    content_length: usize,
    chunked: bool,
    close: bool,
}

/// A keep-alive connection to a running server.
pub struct Client {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for the given server address. The connection is opened
    /// lazily on the first request and reused across requests.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    /// Starts building a request; finish with
    /// [`send`](RequestBuilder::send).
    pub fn request(&mut self, method: &str, path: &str) -> RequestBuilder<'_> {
        RequestBuilder {
            client: self,
            method: method.to_string(),
            path: path.to_string(),
            body: None,
            accept: Format::Json,
        }
    }

    /// Submits one request to `/v1/submit`, then consumes
    /// `GET /v1/jobs/{id}/stream` in the given format, invoking
    /// `on_event` for every decoded [`StreamEvent`] until the terminal
    /// one. Returns the job id.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures; a non-`202` submit
    /// answer and a non-chunked stream answer (`404`/`406`/`410`)
    /// surface as [`io::ErrorKind::Other`] errors carrying the
    /// response body.
    pub fn submit_and_stream(
        &mut self,
        request: &Json,
        format: Format,
        on_event: impl FnMut(StreamEvent),
    ) -> io::Result<u64> {
        let id = match self.submit_one(request)? {
            Ok(id) => id,
            Err(response) => {
                return Err(io::Error::other(format!(
                    "submit answered {}: {}",
                    response.status,
                    response.body.render()
                )));
            }
        };
        self.stream_job(id, format, on_event)?;
        Ok(id)
    }

    /// Consumes `GET /v1/jobs/{id}/stream` for an already-submitted
    /// job, invoking `on_event` per decoded [`StreamEvent`].
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures; a non-chunked
    /// answer (`404`/`406`/`410`) surfaces as an error carrying the
    /// response body.
    pub fn stream_job(
        &mut self,
        id: u64,
        format: Format,
        mut on_event: impl FnMut(StreamEvent),
    ) -> io::Result<()> {
        let path = format!("/v1/jobs/{id}/stream");
        let head = self.exchange("GET", &path, None, format)?;
        if !head.chunked {
            // A refusal (404 / 406 / 410): ordinary JSON body.
            let response = self.finish_buffered(head)?;
            return Err(io::Error::other(format!(
                "stream answered {}: {}",
                response.status,
                response.body.render()
            )));
        }
        let reader = self.stream.as_mut().expect("connected by exchange");
        let mut buffer = Vec::new();
        let mut consumed = 0usize;
        let mut next_row = 0u64;
        while let Some(chunk) = read_chunk(reader)? {
            buffer.extend_from_slice(&chunk);
            match format {
                Format::Json => {
                    while let Some(nl) = buffer[consumed..].iter().position(|&b| b == b'\n') {
                        let line = &buffer[consumed..consumed + nl];
                        let event = parse_event_line(line)?;
                        consumed += nl + 1;
                        on_event(event);
                    }
                }
                Format::Binary => {
                    while let Some((tag, payload, used)) = encode::read_frame(&buffer[consumed..]) {
                        let event = match tag {
                            encode::FRAME_ROW | encode::FRAME_DIE => {
                                let row = if tag == encode::FRAME_ROW {
                                    encode::decode_row(payload)
                                } else {
                                    encode::decode_die(payload)
                                }
                                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                                let index = next_row;
                                next_row += 1;
                                StreamEvent::Row { index, row }
                            }
                            encode::FRAME_EVENT => parse_event_line(payload)?,
                            other => {
                                return Err(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!("unknown stream frame tag {other}"),
                                ));
                            }
                        };
                        consumed += used;
                        on_event(event);
                    }
                }
            }
            // Already-dispatched bytes never shrink the buffer between
            // chunks; reclaim them here so long streams stay bounded.
            buffer.drain(..consumed);
            consumed = 0;
        }
        // Chunked responses are always `connection: close`.
        self.stream = None;
        Ok(())
    }

    /// `POST`s `{"requests": [request]}` to `/v1/submit`; `Ok(id)` on
    /// `202`, the raw response otherwise.
    fn submit_one(&mut self, request: &Json) -> io::Result<Result<u64, ClientResponse>> {
        let body = Json::obj([("requests", Json::Arr(vec![request.clone()]))]);
        let response = self.request("POST", "/v1/submit").body(&body).send()?;
        if response.status != 202 {
            return Ok(Err(response));
        }
        let id = response
            .body
            .get("jobs")
            .and_then(Json::as_arr)
            .and_then(|jobs| jobs.first())
            .and_then(Json::as_u64)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "submit answered 202 without a job id: {}",
                        response.body.render()
                    ),
                )
            })?;
        Ok(Ok(id))
    }

    /// One full buffered request/response exchange.
    fn perform(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        accept: Format,
    ) -> io::Result<ClientResponse> {
        let head = self.exchange(method, path, body, accept)?;
        if head.chunked {
            // Buffered callers never expect a stream; drain it whole.
            let reader = self.stream.as_mut().expect("connected by exchange");
            let mut bytes = Vec::new();
            while let Some(chunk) = read_chunk(reader)? {
                bytes.extend_from_slice(&chunk);
            }
            self.stream = None;
            return finish_response(head, bytes);
        }
        self.finish_buffered(head)
    }

    /// Reads the `content-length` body of a non-chunked response and
    /// parses it per its content type.
    fn finish_buffered(&mut self, head: Head) -> io::Result<ClientResponse> {
        let reader = self.stream.as_mut().expect("connected by exchange");
        let mut bytes = vec![0u8; head.content_length];
        // A truncation here is mid-response, after the server committed
        // to processing: surface it under a kind `is_stale_connection`
        // will not retry.
        reader.read_exact(&mut bytes).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("truncated response body: {e}"),
            )
        })?;
        if head.close {
            self.stream = None;
        }
        finish_response(head, bytes)
    }

    /// Writes the request and parses the response head, with one
    /// reconnect attempt when a *reused* keep-alive socket died without
    /// a single response byte. A timeout or a mid-response failure is
    /// NOT retried — the server may have processed the request, and
    /// blindly resending a POST (e.g. `/v1/submit`) would duplicate its
    /// effect.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        accept: Format,
    ) -> io::Result<Head> {
        let reused = self.stream.is_some();
        match self.exchange_once(method, path, body, accept) {
            Ok(head) => Ok(head),
            Err(e) if reused && is_stale_connection(&e) => {
                self.stream = None;
                self.exchange_once(method, path, body, accept)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn exchange_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        accept: Format,
    ) -> io::Result<Head> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            stream.set_nodelay(true)?;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let body = body.unwrap_or("");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: cnfet\r\ncontent-length: {}\r\n",
            body.len()
        );
        // JSON is the protocol default; only a non-default negotiation
        // needs the header on the wire.
        if accept == Format::Binary {
            head.push_str("accept: ");
            head.push_str(accept.media_type());
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        {
            let stream = reader.get_mut();
            stream.write_all(head.as_bytes())?;
            stream.write_all(body.as_bytes())?;
            stream.flush()?;
        }

        let mut status_line = String::new();
        if reader.read_line(&mut status_line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
        }
        let status: u16 = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line `{}`", status_line.trim()),
                )
            })?;

        let mut parsed = Head {
            status,
            content_type: String::new(),
            content_length: 0,
            chunked: false,
            close: false,
        };
        loop {
            let mut line = String::new();
            reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    parsed.content_length = value.parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
                if name.eq_ignore_ascii_case("content-type") {
                    parsed.content_type = value.to_string();
                }
                if name.eq_ignore_ascii_case("transfer-encoding")
                    && value.eq_ignore_ascii_case("chunked")
                {
                    parsed.chunked = true;
                }
                if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
                    parsed.close = true;
                }
            }
        }
        Ok(parsed)
    }
}

/// Builds the final [`ClientResponse`]: JSON bodies are parsed, binary
/// bodies are kept raw with `body` left [`Json::Null`].
fn finish_response(head: Head, bytes: Vec<u8>) -> io::Result<ClientResponse> {
    let binary = head.content_type.starts_with(encode::BINARY_CONTENT_TYPE);
    let body = if binary {
        Json::Null
    } else {
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        json::parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
    };
    Ok(ClientResponse {
        status: head.status,
        body,
        bytes,
        content_type: head.content_type,
    })
}

/// Reads one chunk of a `transfer-encoding: chunked` body; `None` is
/// the zero-length terminator.
fn read_chunk(reader: &mut BufReader<TcpStream>) -> io::Result<Option<Vec<u8>>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-stream",
        ));
    }
    let size = usize::from_str_radix(line.trim(), 16).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad chunk size line `{}`", line.trim()),
        )
    })?;
    if size == 0 {
        let mut terminator = String::new();
        reader.read_line(&mut terminator)?;
        return Ok(None);
    }
    let mut data = vec![0u8; size];
    reader.read_exact(&mut data)?;
    let mut crlf = [0u8; 2];
    reader.read_exact(&mut crlf)?;
    Ok(Some(data))
}

/// Decodes one event object (an ndjson line or a `FRAME_EVENT`
/// payload) into a [`StreamEvent`].
fn parse_event_line(line: &[u8]) -> io::Result<StreamEvent> {
    let text = std::str::from_utf8(line)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 stream event"))?;
    let event =
        json::parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let kind = event
        .get("event")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    Ok(match kind.as_str() {
        "start" => StreamEvent::Start {
            job: event.get("job").and_then(Json::as_u64).unwrap_or(0),
            total: event.get("total").and_then(Json::as_u64).unwrap_or(0),
        },
        "row" => StreamEvent::Row {
            index: event.get("index").and_then(Json::as_u64).unwrap_or(0),
            row: event.get("row").cloned().unwrap_or(Json::Null),
        },
        "done" => StreamEvent::Done(event.get("result").cloned().unwrap_or(Json::Null)),
        "canceled" => StreamEvent::Canceled,
        "error" => StreamEvent::Error(event),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown stream event `{other}`"),
            ));
        }
    })
}
