//! Integration tests for the wire layer: a real server on an ephemeral
//! port, driven over TCP by the bundled [`Client`].

use cnfet_serve::json::Json;
use cnfet_serve::{encode, Client, Format, ServeConfig, Server, StreamEvent};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn server() -> Server {
    Server::start(ServeConfig::default().addr("127.0.0.1:0")).expect("bind ephemeral port")
}

fn cell(kind: &str) -> Json {
    Json::obj([("type", Json::str("cell")), ("kind", Json::str(kind))])
}

fn small_sweep(seed: u64) -> Json {
    Json::obj([
        ("type", Json::str("sweep")),
        (
            "cells",
            Json::Arr(vec![cell_fields("inv"), cell_fields("nand2")]),
        ),
        (
            "grid",
            Json::obj([
                ("tube_counts", [26u64, 10].into_iter().collect::<Json>()),
                ("seeds", [seed].into_iter().collect::<Json>()),
            ]),
        ),
        ("metrics", Json::str("immunity")),
        ("mc", Json::obj([("tubes", Json::from(100u64))])),
    ])
}

fn cell_fields(kind: &str) -> Json {
    Json::obj([("kind", Json::str(kind))])
}

fn class_stat(stats: &Json, class: &str, counter: &str) -> u64 {
    stats
        .get("classes")
        .and_then(|c| c.get(class))
        .and_then(|c| c.get(counter))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing classes.{class}.{counter}"))
}

#[test]
fn healthz_run_and_stats_round_trip() {
    let server = server();
    let mut client = Client::new(server.addr());

    let health = client
        .request("GET", "/v1/healthz")
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(health.get("ok").unwrap().as_bool(), Some(true));

    let first = client
        .request("POST", "/v1/run")
        .body(&cell("nand3"))
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(first.get("type").unwrap().as_str(), Some("cell"));
    assert_eq!(first.get("cached").unwrap().as_bool(), Some(false));
    // The paper's Figure 3(b) accounting survives the wire.
    assert_eq!(
        first.get("pun_active_area_l2").unwrap().as_f64(),
        Some(120.0)
    );

    let again = client
        .request("POST", "/v1/run")
        .body(&cell("nand3"))
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(again.get("cached").unwrap().as_bool(), Some(true));

    let stats = client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(class_stat(&stats, "cell", "hits"), 1);
    assert_eq!(class_stat(&stats, "cell", "misses"), 1);
    assert_eq!(class_stat(&stats, "cell", "entries"), 1);
    assert!(
        stats
            .get("server")
            .unwrap()
            .get("requests")
            .unwrap()
            .as_u64()
            >= Some(3)
    );

    let report = server.shutdown();
    assert!(report.requests_served >= 4);
    assert_eq!(report.jobs_canceled, 0);
}

#[test]
fn batch_preserves_order_and_carries_item_errors() {
    let server = server();
    let mut client = Client::new(server.addr());
    let body = Json::obj([(
        "requests",
        Json::Arr(vec![
            cell("inv"),
            Json::obj([
                ("type", Json::str("flow")),
                (
                    "source",
                    Json::obj([("verilog", Json::str("this is not verilog"))]),
                ),
                ("target", Json::str("s1")),
            ]),
            Json::obj([
                ("type", Json::str("immunity")),
                ("cell", cell_fields("inv")),
            ]),
        ]),
    )]);
    let results = client
        .request("POST", "/v1/batch")
        .body(&body)
        .send()
        .unwrap()
        .expect_status(200);
    let results = results.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(
        results[0].get("ok").unwrap().get("type").unwrap().as_str(),
        Some("cell")
    );
    // The failing flow answers in place, structured.
    let error = results[1].get("error").expect("error payload");
    assert_eq!(error.get("kind").unwrap().as_str(), Some("verilog"));
    assert_eq!(
        results[2]
            .get("ok")
            .unwrap()
            .get("immune")
            .unwrap()
            .as_bool(),
        Some(true)
    );
    server.shutdown();
}

#[test]
fn submit_poll_and_job_expiry() {
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .job_ttl(Duration::from_millis(100)),
    )
    .unwrap();
    let mut client = Client::new(server.addr());

    let submitted = client
        .request("POST", "/v1/submit")
        .body(&small_sweep(7))
        .send()
        .unwrap()
        .expect_status(202);
    let jobs = submitted.get("jobs").unwrap().as_arr().unwrap();
    assert_eq!(jobs.len(), 1);
    let id = jobs[0].as_u64().unwrap();

    let done = loop {
        let poll = client
            .request("GET", &format!("/v1/jobs/{id}"))
            .send()
            .unwrap()
            .expect_status(200);
        match poll.get("status").unwrap().as_str() {
            Some("pending") => std::thread::sleep(Duration::from_millis(5)),
            Some("done") => break poll,
            other => panic!("unexpected job status {other:?}"),
        }
    };
    let result = done.get("result").unwrap();
    assert_eq!(result.get("type").unwrap().as_str(), Some("sweep"));
    assert_eq!(result.get("rows").unwrap().as_arr().unwrap().len(), 4);

    // Past the ttl the id answers a distinct `410 Gone` — the job was
    // real, its result just expired — while an id that was never issued
    // stays a plain 404.
    std::thread::sleep(Duration::from_millis(150));
    let expired = client
        .request("GET", &format!("/v1/jobs/{id}"))
        .send()
        .unwrap();
    assert_eq!(expired.status, 410);
    assert_eq!(
        expired
            .body
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("job_expired")
    );
    let missing = client.request("GET", "/v1/jobs/424242").send().unwrap();
    assert_eq!(missing.status, 404);
    server.shutdown();
}

#[test]
fn concurrent_clients_share_one_warm_cache() {
    let server = server();

    // Client A pays for the sweep...
    let mut a = Client::new(server.addr());
    let first = a
        .request("POST", "/v1/run")
        .body(&small_sweep(1))
        .send()
        .unwrap()
        .expect_status(200);
    let stats = a
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    let misses_after_first = class_stat(&stats, "sweeps", "misses");
    let hits_after_first = class_stat(&stats, "sweeps", "hits");

    // ...and client B, a separate TCP connection, replays it for free.
    let mut b = Client::new(server.addr());
    let second = b
        .request("POST", "/v1/run")
        .body(&small_sweep(1))
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(second.render(), first.render(), "identical replay");
    let stats = b
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(
        class_stat(&stats, "sweeps", "misses"),
        misses_after_first,
        "client B's sweep executed nothing"
    );
    assert_eq!(
        class_stat(&stats, "sweeps", "hits"),
        hits_after_first + 1,
        "client B's sweep was one pure whole-sweep hit"
    );
    server.shutdown();
}

#[test]
fn tran_requests_run_the_mna_engine_over_the_wire() {
    let server = server();
    let mut client = Client::new(server.addr());

    // An RC charge through one time constant: out ≈ 1 − e⁻¹.
    let request = Json::obj([
        ("type", Json::str("tran")),
        (
            "deck",
            Json::str("V1 in 0 PWL(0 0 1e-12 1)\nR1 in out 1k\nC1 out 0 1p\n.end"),
        ),
        ("dt", Json::from(1e-11)),
        ("t_stop", Json::from(1e-9)),
        ("probes", Json::Arr(vec![Json::str("out")])),
    ]);
    let result = client
        .request("POST", "/v1/run")
        .body(&request)
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(result.get("type").unwrap().as_str(), Some("tran"));
    let points = result.get("points").unwrap().as_u64().unwrap();
    assert!(points > 10, "a real waveform came back ({points} points)");
    let out = result
        .get("probes")
        .unwrap()
        .get("out")
        .unwrap()
        .as_arr()
        .unwrap();
    assert_eq!(out.len(), points as usize);
    let last = out.last().unwrap().as_f64().unwrap();
    assert!((last - 0.63).abs() < 0.01, "1τ RC charge, got {last}");

    // A deliberately singular deck — two voltage sources fighting over
    // one node — answers 422 with the structured singular kind.
    let singular = Json::obj([
        ("type", Json::str("tran")),
        ("deck", Json::str("V1 a 0 DC 1\nV2 a 0 DC 2\n.end")),
        ("dt", Json::from(1e-11)),
        ("t_stop", Json::from(1e-10)),
    ]);
    let refused = client
        .request("POST", "/v1/run")
        .body(&singular)
        .send()
        .unwrap();
    assert_eq!(refused.status, 422);
    let error = refused.body.get("error").unwrap();
    assert_eq!(error.get("kind").unwrap().as_str(), Some("sim_singular"));

    // An unknown probe name is a deck-level failure, kind `deck`.
    let bad_probe = Json::obj([
        ("type", Json::str("tran")),
        ("deck", Json::str("V1 a 0 DC 1\nR1 a 0 1k\n.end")),
        ("dt", Json::from(1e-11)),
        ("t_stop", Json::from(1e-10)),
        ("probes", Json::Arr(vec![Json::str("nope")])),
    ]);
    let refused = client
        .request("POST", "/v1/run")
        .body(&bad_probe)
        .send()
        .unwrap();
    assert_eq!(refused.status, 422);
    let error = refused.body.get("error").unwrap();
    assert_eq!(error.get("kind").unwrap().as_str(), Some("deck"));
    assert!(error
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("nope"));
    server.shutdown();
}

#[test]
fn malformed_source_specs_answer_errors_and_spare_the_workers() {
    // One bad deck per HTTP worker, plus one: a request that took its
    // worker down would leave nobody to answer the health check.
    let workers = 2;
    let server =
        Server::start(ServeConfig::default().addr("127.0.0.1:0").workers(workers)).unwrap();
    let bad = Json::obj([
        ("type", Json::str("tran")),
        ("deck", Json::str("V1 a 0 )(\nR1 a 0 1k\n.end")),
        ("dt", Json::from(1e-11)),
        ("t_stop", Json::from(1e-10)),
    ]);
    for _ in 0..=workers {
        let refused = Client::new(server.addr())
            .request("POST", "/v1/run")
            .body(&bad)
            .send()
            .unwrap();
        assert_eq!(refused.status, 422);
        let error = refused.body.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("deck"));
    }
    Client::new(server.addr())
        .request("GET", "/v1/healthz")
        .send()
        .unwrap()
        .expect_status(200);
    server.shutdown();
}

#[test]
fn json_escaping_survives_the_round_trip() {
    let server = server();
    let mut client = Client::new(server.addr());
    // A cell name exercising quotes, backslashes, control characters,
    // and non-ASCII — it must come back byte-identical.
    let name = "INV \"quoted\" back\\slash\nnewline\ttab λ→😀";
    let request = Json::obj([
        ("type", Json::str("cell")),
        ("kind", Json::str("inv")),
        ("name", Json::str(name)),
    ]);
    let result = client
        .request("POST", "/v1/run")
        .body(&request)
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(result.get("name").unwrap().as_str(), Some(name));
    server.shutdown();
}

#[test]
fn malformed_requests_answer_structured_400s() {
    let server = server();
    let mut client = Client::new(server.addr());

    // Broken JSON: the error names the byte position.
    let response = client
        .request("POST", "/v1/run")
        .body(&Json::str("placeholder"))
        .send()
        .unwrap();
    assert_eq!(response.status, 400, "a bare string is not a request");
    let raw = raw_request(
        server.addr(),
        "POST /v1/run HTTP/1.1\r\nconnection: close\r\ncontent-length: 9\r\n\r\n{\"type\": ",
    );
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    assert!(raw.contains("\"position\":9"), "{raw}");

    // Well-formed JSON, semantically wrong: the error names the field.
    let response = client
        .request("POST", "/v1/run")
        .body(&Json::obj([
            ("type", Json::str("cell")),
            ("kind", Json::str("frob")),
        ]))
        .send()
        .unwrap();
    assert_eq!(response.status, 400);
    let message = response
        .body
        .get("error")
        .unwrap()
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(message.starts_with("kind:"), "{message}");

    // Unknown routes and unsupported methods.
    assert_eq!(
        client
            .request("GET", "/v1/frobnicate")
            .send()
            .unwrap()
            .status,
        404
    );
    assert_eq!(client.request("GET", "/v1/run").send().unwrap().status, 405);
    assert_eq!(
        client
            .request("POST", "/v1/healthz")
            .body(&Json::Null)
            .send()
            .unwrap()
            .status,
        405
    );
    assert_eq!(
        client
            .request("GET", "/v1/jobs/notanumber")
            .send()
            .unwrap()
            .status,
        400
    );

    // A request that is not HTTP at all.
    let raw = raw_request(server.addr(), "EHLO wire\r\n\r\n");
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

    // Chunked framing is refused rather than half-parsed (which would
    // desync the keep-alive stream).
    let raw = raw_request(
        server.addr(),
        "POST /v1/run HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
    );
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    assert!(raw.contains("transfer-encoding"), "{raw}");
    server.shutdown();
}

/// Adversarial framing: a head dribbled one byte per write, heads and
/// bodies past their bounds, a body cut short, and `content-length`
/// values that would desync a keep-alive stream.
#[test]
fn hostile_framing_is_bounded_and_never_desyncs() {
    use cnfet_serve::http::{MAX_BODY, MAX_HEAD};
    let server = server();

    // One byte per write still parses.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    for byte in b"GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n" {
        stream.write_all(&[*byte]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    let raw = String::from_utf8_lossy(&out);
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");

    // A head past MAX_HEAD is 413: one long header line, or many short
    // ones.
    let long_line = format!(
        "GET /v1/healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n",
        "a".repeat(MAX_HEAD)
    );
    let many_lines = format!(
        "GET /v1/healthz HTTP/1.1\r\n{}\r\n",
        "x-pad: aaaaaaaaaaaaaaaaaaaaaaaaa\r\n".repeat(MAX_HEAD / 32 + 1)
    );
    for head in [long_line, many_lines] {
        let raw = raw_request(server.addr(), &head);
        assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
    }

    // A declared body past MAX_BODY is 413 before a byte of it is read:
    // none is sent, and the answer still comes.
    let raw = raw_request(
        server.addr(),
        &format!(
            "POST /v1/run HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        ),
    );
    assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
    let raw = raw_request(
        server.addr(),
        "POST /v1/run HTTP/1.1\r\ncontent-length: 99999999999999999999999\r\n\r\n",
    );
    assert!(
        raw.starts_with("HTTP/1.1 413"),
        "an overflowing length: {raw}"
    );

    // A body cut short by the peer closes without a response.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"POST /v1/run HTTP/1.1\r\ncontent-length: 100\r\n\r\n{\"type\"")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    assert!(out.is_empty(), "{}", String::from_utf8_lossy(&out));

    // Conflicting or signed lengths are 400: either would let the two
    // ends disagree on where the next request starts.
    for (lengths, why) in [
        ("content-length: 5\r\ncontent-length: 6\r\n", "conflicting"),
        ("content-length: +5\r\n", "bad content-length"),
        ("content-length: -5\r\n", "bad content-length"),
        ("content-length: 0x5\r\n", "bad content-length"),
        ("content-length: \r\n", "bad content-length"),
    ] {
        let raw = raw_request(
            server.addr(),
            &format!("POST /v1/run HTTP/1.1\r\n{lengths}\r\n"),
        );
        assert!(raw.starts_with("HTTP/1.1 400"), "{lengths} -> {raw}");
        assert!(raw.contains(why), "{lengths} -> {raw}");
    }

    // Repeated lengths that agree are one length.
    let body = cell("inv").render();
    let raw = raw_request(
        server.addr(),
        &format!(
            "POST /v1/run HTTP/1.1\r\nconnection: close\r\ncontent-length: {n}\r\ncontent-length: {n}\r\n\r\n{body}",
            n = body.len()
        ),
    );
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    server.shutdown();
}

/// A client that stalls past the server's read poll inside the request
/// head — inside the request line, or inside a header — still gets its
/// answer, and the connection stays usable for the next request.
#[test]
fn stalled_heads_ride_out_the_read_poll() {
    use std::io::BufRead;
    let server = server();
    let head = "GET /v1/healthz HTTP/1.1\r\nhost: localhost\r\n\r\n";
    for split in [10, 30] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&head.as_bytes()[..split]).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        stream.write_all(&head.as_bytes()[split..]).unwrap();

        // One keep-alive response: status, headers, then the body by its
        // declared length.
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert!(
            status.starts_with("HTTP/1.1 200"),
            "split {split}: `{status}`"
        );
        let mut length = 0;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.trim().is_empty() {
                break;
            }
            if let Some(value) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                length = value.trim().parse().unwrap();
            }
        }
        let mut body = vec![0; length];
        reader.read_exact(&mut body).unwrap();
        assert!(String::from_utf8_lossy(&body).contains("\"ok\""));

        // The same connection still parses a second request.
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut out = Vec::new();
        let _ = reader.read_to_end(&mut out);
        let raw = String::from_utf8_lossy(&out);
        assert!(
            raw.starts_with("HTTP/1.1 200"),
            "split {split}, second: {raw}"
        );
    }
}

#[test]
fn head_and_foreign_methods_route_sanely() {
    let server = server();
    // HEAD answers like GET with no payload — the load-balancer probe.
    let raw = raw_request(
        server.addr(),
        "HEAD /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(raw.contains("content-length: 0"), "{raw}");
    // Unsupported methods on known routes are 405, not 404.
    for request in [
        "PUT /v1/run HTTP/1.1\r\nconnection: close\r\n\r\n",
        "DELETE /v1/stats HTTP/1.1\r\nconnection: close\r\n\r\n",
        "POST /v1/jobs/1 HTTP/1.1\r\nconnection: close\r\ncontent-length: 0\r\n\r\n",
    ] {
        let raw = raw_request(server.addr(), request);
        assert!(raw.starts_with("HTTP/1.1 405"), "{request} -> {raw}");
    }
    server.shutdown();
}

#[test]
fn expect_100_continue_clients_get_their_nod() {
    // curl defaults to `Expect: 100-continue` for larger bodies and
    // holds the body until the server answers the interim 100.
    let server = server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = cell("nand2").render();
    let head = format!(
        "POST /v1/run HTTP/1.1\r\nexpect: 100-continue\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    // Wait for the interim response before sending a single body byte.
    let mut interim = [0u8; 25];
    stream.read_exact(&mut interim).unwrap();
    assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n");
    stream.write_all(body.as_bytes()).unwrap();
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let response = String::from_utf8_lossy(&response);
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"kind\":\"nand2\""), "{response}");
    server.shutdown();
}

#[test]
fn submit_backpressure_answers_429_and_recovers() {
    // Capacity zero: always refused — deterministic backpressure.
    let server = Server::start(ServeConfig::default().addr("127.0.0.1:0").job_capacity(0)).unwrap();
    let mut client = Client::new(server.addr());
    let refused = client
        .request("POST", "/v1/submit")
        .body(&cell("inv"))
        .send()
        .unwrap();
    assert_eq!(refused.status, 429);
    assert_eq!(
        refused
            .body
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("backpressure")
    );
    server.shutdown();

    // Capacity one: refusals stop once the pending job settles.
    let server = Server::start(ServeConfig::default().addr("127.0.0.1:0").job_capacity(1)).unwrap();
    let mut client = Client::new(server.addr());
    let first = client
        .request("POST", "/v1/submit")
        .body(&small_sweep(2))
        .send()
        .unwrap()
        .expect_status(202);
    let id = first.get("jobs").unwrap().as_arr().unwrap()[0]
        .as_u64()
        .unwrap();
    // Poll the job to completion, then the table has room again.
    loop {
        let poll = client
            .request("GET", &format!("/v1/jobs/{id}"))
            .send()
            .unwrap()
            .expect_status(200);
        if poll.get("status").unwrap().as_str() != Some("pending") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    client
        .request("POST", "/v1/submit")
        .body(&cell("inv"))
        .send()
        .unwrap()
        .expect_status(202);
    server.shutdown();
}

#[test]
fn graceful_shutdown_cancels_queued_jobs() {
    // One engine worker and a queue of slow, distinct sweeps: shutdown
    // must complete promptly, and the jobs that never ran settle as
    // canceled rather than hanging anything.
    let server =
        Server::start(ServeConfig::default().addr("127.0.0.1:0").engine_workers(1)).unwrap();
    let mut client = Client::new(server.addr());
    for seed in 100..106 {
        let slow = Json::obj([
            ("type", Json::str("sweep")),
            ("cells", Json::Arr(vec![cell_fields("aoi22")])),
            (
                "grid",
                Json::obj([("seeds", [seed as u64].into_iter().collect::<Json>())]),
            ),
            ("metrics", Json::str("immunity")),
            ("mc", Json::obj([("tubes", Json::from(50_000u64))])),
        ]);
        client
            .request("POST", "/v1/submit")
            .body(&slow)
            .send()
            .unwrap()
            .expect_status(202);
    }
    let report = server.shutdown();
    assert!(
        report.jobs_canceled >= 1,
        "queued jobs settle as canceled on shutdown (got {report:?})"
    );
}

#[test]
fn shutdown_refuses_new_connections() {
    let server = server();
    let addr = server.addr();
    let mut client = Client::new(addr);
    client
        .request("GET", "/v1/healthz")
        .send()
        .unwrap()
        .expect_status(200);
    server.shutdown();
    // The listener is gone: connects fail outright (or are reset before
    // a response arrives).
    let after = TcpStream::connect(addr).and_then(|mut stream| {
        stream.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n")?;
        stream.set_read_timeout(Some(Duration::from_millis(500)))?;
        let mut buf = [0u8; 1];
        match stream.read(&mut buf) {
            Ok(0) => Err(std::io::Error::other("closed")),
            Ok(_) => Ok(()),
            Err(e) => Err(e),
        }
    });
    assert!(after.is_err(), "no server behind the address anymore");
}

#[test]
fn streamed_sweep_matches_the_buffered_report() {
    let server = server();
    let mut client = Client::new(server.addr());

    // Cold sweep: every row must arrive as its own event, in report
    // order, strictly before the terminal `done`.
    let mut events = Vec::new();
    client
        .submit_and_stream(&small_sweep(11), Format::Json, |event| events.push(event))
        .unwrap();
    let mut streamed_rows = Vec::new();
    let mut total = 0;
    let mut done = None;
    for (at, event) in events.iter().enumerate() {
        match event {
            StreamEvent::Start { total: t, .. } => {
                assert_eq!(at, 0, "start comes first");
                total = *t;
            }
            StreamEvent::Row { index, row } => {
                assert!(done.is_none(), "rows precede the terminal event");
                assert_eq!(*index, streamed_rows.len() as u64, "rows are in order");
                streamed_rows.push(row.clone());
            }
            StreamEvent::Done(result) => done = Some(result.clone()),
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(total, 4);
    assert_eq!(streamed_rows.len(), 4, "every corner row was streamed");
    let done = done.expect("terminal done event");

    // The buffered report — a pure cache hit now — is row-identical to
    // what was streamed, and to the `done` payload.
    let buffered = client
        .request("POST", "/v1/run")
        .body(&small_sweep(11))
        .send()
        .unwrap()
        .expect_status(200);
    let buffered_rows = buffered.get("rows").unwrap().as_arr().unwrap();
    for (streamed, buffered) in streamed_rows.iter().zip(buffered_rows) {
        assert_eq!(streamed.render(), buffered.render());
    }
    assert_eq!(
        done.get("rows").unwrap().as_arr().unwrap().len(),
        4,
        "the done payload carries the full report"
    );

    // Streaming a whole-report cache hit back-fills the same rows.
    let mut replayed = Vec::new();
    client
        .submit_and_stream(&small_sweep(11), Format::Json, |event| {
            if let StreamEvent::Row { row, .. } = event {
                replayed.push(row);
            }
        })
        .unwrap();
    assert_eq!(replayed.len(), 4);
    for (replayed, streamed) in replayed.iter().zip(&streamed_rows) {
        assert_eq!(replayed.render(), streamed.render());
    }
    server.shutdown();
}

#[test]
fn just_submitted_cached_streams_wake_when_the_job_resolves() {
    // A whole-report cache hit resolves a moment after its submit. Its
    // stream must wake on that, not on the server's 200 ms shutdown-check
    // interval, which a stream that races the resolve would wait out.
    const READ_POLL: Duration = Duration::from_millis(200);
    let server = server();
    let mut client = Client::new(server.addr());
    let sweep = small_sweep(21);
    client
        .request("POST", "/v1/run")
        .body(&sweep)
        .send()
        .unwrap()
        .expect_status(200);
    let mut slowest = Duration::ZERO;
    for _ in 0..300 {
        let (mut rows, mut done) = (0, false);
        let start = Instant::now();
        client
            .submit_and_stream(&sweep, Format::Json, |event| match event {
                StreamEvent::Row { .. } => rows += 1,
                StreamEvent::Done(_) => done = true,
                _ => {}
            })
            .unwrap();
        slowest = slowest.max(start.elapsed());
        assert_eq!((rows, done), (4, true), "every row, then done");
    }
    assert!(
        slowest < READ_POLL,
        "a cached stream took {slowest:?}, waiting out the read poll"
    );
    server.shutdown();
}

#[test]
fn binary_rows_reassemble_identical_to_json() {
    let server = server();
    let mut client = Client::new(server.addr());

    // Buffered: the binary row table decodes to exactly the JSON rows.
    let json_report = client
        .request("POST", "/v1/run")
        .body(&small_sweep(12))
        .send()
        .unwrap()
        .expect_status(200);
    let json_rows = json_report.get("rows").unwrap().as_arr().unwrap();
    let binary = client
        .request("POST", "/v1/run")
        .body(&small_sweep(12))
        .accept(Format::Binary)
        .send()
        .unwrap();
    assert_eq!(binary.status, 200);
    assert_eq!(binary.content_type, "application/x-cnfet-rows");
    assert_eq!(binary.body, Json::Null, "binary responses skip the parser");
    let decoded = encode::decode_row_table(&binary.bytes).unwrap();
    assert_eq!(decoded.len(), json_rows.len());
    for (decoded, json) in decoded.iter().zip(json_rows) {
        assert_eq!(decoded.render(), json.render());
    }

    // Streamed: binary frames decode to the same rows too.
    let mut streamed = Vec::new();
    client
        .submit_and_stream(&small_sweep(12), Format::Binary, |event| {
            if let StreamEvent::Row { row, .. } = event {
                streamed.push(row);
            }
        })
        .unwrap();
    assert_eq!(streamed.len(), json_rows.len());
    for (streamed, json) in streamed.iter().zip(json_rows) {
        assert_eq!(streamed.render(), json.render());
    }
    server.shutdown();
}

#[test]
fn format_negotiation_answers_406_when_it_cannot_deliver() {
    let server = server();
    let mut client = Client::new(server.addr());

    // An Accept naming no supported format.
    let raw = raw_request(
        server.addr(),
        "GET /v1/stats HTTP/1.1\r\naccept: text/html\r\nconnection: close\r\n\r\n",
    );
    assert!(raw.starts_with("HTTP/1.1 406"), "{raw}");
    assert!(raw.contains("not_acceptable"), "{raw}");

    // The binary encoding is defined only for sweep results: asking for
    // it on stats, or on a non-sweep run, is also 406.
    let raw = raw_request(
        server.addr(),
        "GET /v1/stats HTTP/1.1\r\naccept: application/x-cnfet-rows\r\nconnection: close\r\n\r\n",
    );
    assert!(raw.starts_with("HTTP/1.1 406"), "{raw}");
    let refused = client
        .request("POST", "/v1/run")
        .body(&cell("inv"))
        .accept(Format::Binary)
        .send()
        .unwrap();
    assert_eq!(refused.status, 406);

    // A wildcard or weighted JSON Accept still negotiates fine — curl's
    // default `*/*` must keep working.
    let raw = raw_request(
        server.addr(),
        "GET /v1/healthz HTTP/1.1\r\naccept: */*\r\nconnection: close\r\n\r\n",
    );
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    let raw = raw_request(
        server.addr(),
        "GET /v1/healthz HTTP/1.1\r\naccept: application/json;q=0.9, text/html\r\nconnection: close\r\n\r\n",
    );
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    server.shutdown();
}

#[test]
fn mid_stream_disconnect_frees_the_worker() {
    // One engine worker: if a dropped stream connection pinned it, the
    // follow-up requests below would hang.
    let server =
        Server::start(ServeConfig::default().addr("127.0.0.1:0").engine_workers(1)).unwrap();
    let mut client = Client::new(server.addr());
    let slow = Json::obj([
        ("type", Json::str("sweep")),
        ("cells", Json::Arr(vec![cell_fields("aoi22")])),
        (
            "grid",
            Json::obj([("seeds", [31u64, 32].into_iter().collect::<Json>())]),
        ),
        ("metrics", Json::str("immunity")),
        ("mc", Json::obj([("tubes", Json::from(20_000u64))])),
    ]);
    let submitted = client
        .request("POST", "/v1/submit")
        .body(&slow)
        .send()
        .unwrap()
        .expect_status(202);
    let id = submitted.get("jobs").unwrap().as_arr().unwrap()[0]
        .as_u64()
        .unwrap();

    // While the only worker grinds on the sweep, a queued poll reports
    // pending with its backoff metadata.
    let poll = client
        .request("GET", &format!("/v1/jobs/{id}"))
        .send()
        .unwrap()
        .expect_status(200);
    if poll.get("status").unwrap().as_str() == Some("pending") {
        assert!(poll.get("age_ms").and_then(Json::as_u64).is_some());
        assert!(poll.get("queued").and_then(Json::as_u64).is_some());
    }

    // Open the stream raw, read the head + first bytes, then vanish.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            format!("GET /v1/jobs/{id}/stream HTTP/1.1\r\ncontent-length: 0\r\n\r\n").as_bytes(),
        )
        .unwrap();
    let mut first = [0u8; 64];
    stream.read_exact(&mut first).unwrap();
    assert!(first.starts_with(b"HTTP/1.1 200"));
    drop(stream);

    // The server stays responsive and the job still settles.
    client
        .request("GET", "/v1/healthz")
        .send()
        .unwrap()
        .expect_status(200);
    loop {
        let poll = client
            .request("GET", &format!("/v1/jobs/{id}"))
            .send()
            .unwrap()
            .expect_status(200);
        match poll.get("status").unwrap().as_str() {
            Some("pending") => std::thread::sleep(Duration::from_millis(10)),
            Some("done") => break,
            other => panic!("job ended {other:?}"),
        }
    }
    server.shutdown();
}

/// A fresh path in the target dir for snapshot files — unique per test
/// so parallel runs never collide.
fn scratch_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cnfet-wire-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn snapshot_warm_boot_replays_as_pure_hits() {
    let path = scratch_path("warm.snap");
    let _ = std::fs::remove_file(&path);

    // Server 1 pays for the sweep, then persists it on shutdown.
    let server = Server::start(ServeConfig::default().addr("127.0.0.1:0").snapshot(&path)).unwrap();
    let mut client = Client::new(server.addr());
    let report = client
        .request("POST", "/v1/run")
        .body(&small_sweep(21))
        .send()
        .unwrap()
        .expect_status(200);
    server.shutdown();
    assert!(path.exists(), "graceful shutdown wrote the snapshot");

    // Server 2 warm-boots from it: the same sweep replays without a
    // single new miss, byte-identical.
    let server = Server::start(ServeConfig::default().addr("127.0.0.1:0").snapshot(&path)).unwrap();
    let mut client = Client::new(server.addr());
    let stats = client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    let misses_at_boot = class_stat(&stats, "sweeps", "misses");
    let replay = client
        .request("POST", "/v1/run")
        .body(&small_sweep(21))
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(replay.render(), report.render(), "deterministic replay");
    let stats = client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(
        class_stat(&stats, "sweeps", "misses"),
        misses_at_boot,
        "the warm-booted sweep executed nothing"
    );
    assert!(class_stat(&stats, "sweeps", "hits") >= 1);
    server.shutdown();

    // A corrupt snapshot degrades to a cold boot, never a crash.
    let corrupt = scratch_path("corrupt.snap");
    std::fs::write(&corrupt, b"not a snapshot at all").unwrap();
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .snapshot(&corrupt),
    )
    .unwrap();
    let mut client = Client::new(server.addr());
    let stats = client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(class_stat(&stats, "sweeps", "entries"), 0, "cold boot");
    server.shutdown();

    // So does a version-mismatched one (future format rev).
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let future = scratch_path("future.snap");
    std::fs::write(&future, bytes).unwrap();
    let server =
        Server::start(ServeConfig::default().addr("127.0.0.1:0").snapshot(&future)).unwrap();
    let mut client = Client::new(server.addr());
    let stats = client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(class_stat(&stats, "sweeps", "entries"), 0, "cold boot");
    server.shutdown();
}

#[test]
fn periodic_flush_warm_boots_while_the_first_server_still_runs() {
    let path = scratch_path("midrun.snap");
    let _ = std::fs::remove_file(&path);

    // Server 1 flushes on a tight cadence; pay for a sweep, then wait
    // for the background flusher — not shutdown — to persist it.
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .snapshot(&path)
            .snapshot_interval(Duration::from_millis(50)),
    )
    .unwrap();
    let mut client = Client::new(server.addr());
    let report = client
        .request("POST", "/v1/run")
        .body(&small_sweep(23))
        .send()
        .unwrap()
        .expect_status(200);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !path.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "periodic flusher never wrote {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Server 2 warm-boots from the mid-run flush while server 1 is
    // still alive — the abrupt-death story: whatever was flushed last
    // is enough to replay the sweep without re-executing it.
    let warm = Server::start(ServeConfig::default().addr("127.0.0.1:0").snapshot(&path)).unwrap();
    let mut warm_client = Client::new(warm.addr());
    let stats = warm_client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    assert!(
        class_stat(&stats, "sweeps", "entries") > 0,
        "warm boot restored the flushed sweep cache"
    );
    let misses_at_boot = class_stat(&stats, "sweeps", "misses");
    let replay = warm_client
        .request("POST", "/v1/run")
        .body(&small_sweep(23))
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(replay.render(), report.render(), "deterministic replay");
    let stats = warm_client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(
        class_stat(&stats, "sweeps", "misses"),
        misses_at_boot,
        "the warm-booted sweep executed nothing"
    );
    warm.shutdown();
    server.shutdown();
}

fn repair_lot(dies: u64) -> Json {
    Json::obj([
        ("type", Json::str("repair")),
        (
            "cells",
            Json::Arr(vec![cell_fields("inv"), cell_fields("nand2")]),
        ),
        ("dies", Json::from(dies)),
        ("seed", Json::from(0xB0BBAu64)),
        ("spares", Json::from(2u64)),
        (
            "params",
            Json::obj([
                ("metallic_fraction", Json::from(0.05)),
                ("misposition_fraction", Json::from(0.2)),
            ]),
        ),
    ])
}

#[test]
fn repair_lot_streams_dies_and_reuses_overlap() {
    let server = server();
    let mut client = Client::new(server.addr());

    // A 1000-die lot over the wire: the start event announces the lot
    // size, every die arrives as its own row in order, and the terminal
    // payload carries the assembled report.
    let mut total = 0;
    let mut rows = 0u64;
    let mut done = None;
    client
        .submit_and_stream(&repair_lot(1000), Format::Json, |event| match event {
            StreamEvent::Start { total: t, .. } => total = t,
            StreamEvent::Row { index, row } => {
                assert_eq!(index, rows, "dies stream in order");
                assert_eq!(row.get("die").and_then(Json::as_u64), Some(rows));
                rows += 1;
            }
            StreamEvent::Done(result) => done = Some(result),
            other => panic!("unexpected event {other:?}"),
        })
        .unwrap();
    assert_eq!(total, 1000);
    assert_eq!(rows, 1000, "every die was streamed");
    let done = done.expect("terminal done event");
    assert_eq!(done.get("type").unwrap().as_str(), Some("repair"));
    assert_eq!(done.get("dies").unwrap().as_arr().unwrap().len(), 1000);

    let stats = client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    let hits = class_stat(&stats, "repairs", "hits");
    let misses = class_stat(&stats, "repairs", "misses");

    // Replaying the identical lot is one pure whole-report hit.
    let replay = client
        .request("POST", "/v1/run")
        .body(&repair_lot(1000))
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(replay.get("dies").unwrap().as_arr().unwrap().len(), 1000);
    let stats = client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(class_stat(&stats, "repairs", "hits"), hits + 1);
    assert_eq!(
        class_stat(&stats, "repairs", "misses"),
        misses,
        "no die re-ran"
    );

    // Growing the lot to 1200 dies reuses all 1000 cached dies and
    // executes only the 200 new ones (plus the grown report itself).
    let grown = client
        .request("POST", "/v1/run")
        .body(&repair_lot(1200))
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(grown.get("dies").unwrap().as_arr().unwrap().len(), 1200);
    let stats = client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(
        class_stat(&stats, "repairs", "hits"),
        hits + 1 + 1000,
        "the grown lot reused every previously repaired die"
    );
    assert_eq!(
        class_stat(&stats, "repairs", "misses"),
        misses + 200 + 1,
        "only the added dies (and the new report key) executed"
    );
    server.shutdown();
}

#[test]
fn repair_site_counts_past_u32_and_bad_params_answer_400() {
    // Three cells plus u32::MAX spares used to wrap to two sites per die
    // and report every die unrepairable.
    let server = server();
    let mut client = Client::new(server.addr());
    let cells = || {
        Json::Arr(vec![
            cell_fields("inv"),
            cell_fields("nand2"),
            cell_fields("nor2"),
        ])
    };
    for (body, field) in [
        (
            Json::obj([
                ("type", Json::str("repair")),
                ("cells", cells()),
                ("spares", Json::from(u64::from(u32::MAX))),
            ]),
            "spares",
        ),
        (
            Json::obj([
                ("type", Json::str("die")),
                ("cells", cells()),
                ("die", Json::from(3u64)),
                ("spares", Json::from(u64::from(u32::MAX))),
            ]),
            "spares",
        ),
        (
            Json::obj([
                ("type", Json::str("repair")),
                ("cells", cells()),
                ("params", Json::obj([("tau", Json::from(-1.0))])),
            ]),
            "params.tau",
        ),
    ] {
        let response = client
            .request("POST", "/v1/run")
            .body(&body)
            .send()
            .unwrap();
        assert_eq!(response.status, 400, "{field}");
        let error = response.body.get("error").unwrap();
        assert_eq!(
            error.get("kind").unwrap().as_str(),
            Some("invalid_request"),
            "{field}"
        );
        let message = error.get("message").unwrap().as_str().unwrap();
        assert!(
            message.contains(&format!(" {field}: ")),
            "the 400 names the offending field: {message}"
        );
    }
    server.shutdown();
}

#[test]
fn oversized_fan_outs_answer_400_before_anything_is_enqueued() {
    // A trillion-die lot used to build one boxed job per die before any
    // ran; a 2,097,152-row sweep multiplied its axes unchecked, and a
    // sweep with no cells allocated its whole grid of corners.
    let server = server();
    let mut client = Client::new(server.addr());
    let axis = |n: u64| (0..n).collect::<Json>();
    for (body, field) in [
        (
            Json::obj([
                ("type", Json::str("repair")),
                ("cells", Json::Arr(vec![cell_fields("inv")])),
                ("dies", Json::from(1_000_000_000_000u64)),
            ]),
            "dies",
        ),
        (
            Json::obj([
                ("type", Json::str("sweep")),
                ("cells", Json::Arr(vec![cell_fields("inv")])),
                (
                    "grid",
                    Json::obj([
                        ("tube_counts", (1..=128u64).collect::<Json>()),
                        ("pitch_scales", axis(128)),
                        ("metallic_fractions", axis(128)),
                    ]),
                ),
            ]),
            "grid",
        ),
        (
            // No cells means no rows, but all 2^40 corners would still
            // be allocated.
            Json::obj([
                ("type", Json::str("sweep")),
                ("cells", Json::Arr(vec![])),
                (
                    "grid",
                    Json::obj([
                        ("tube_counts", (1..=1024u64).collect::<Json>()),
                        ("pitch_scales", axis(1024)),
                        ("metallic_fractions", axis(1024)),
                        ("seeds", axis(1024)),
                    ]),
                ),
            ]),
            "grid",
        ),
    ] {
        let response = client
            .request("POST", "/v1/run")
            .body(&body)
            .send()
            .unwrap();
        assert_eq!(response.status, 400, "{field}");
        let error = response.body.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("invalid_request"));
        let message = error.get("message").unwrap().as_str().unwrap();
        assert!(message.contains(&format!(" {field}: ")), "{message}");
    }
    let stats = client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    let engine = stats.get("engine").unwrap();
    assert_eq!(engine.get("submitted").and_then(Json::as_u64), Some(0));
    server.shutdown();
}

#[test]
fn oversized_transients_answer_400_before_any_engine_runs() {
    // 1e15 and 1e300 steps: a waveform that size cannot be allocated,
    // and the 1e-300 step used to wrap the preallocation to zero and
    // loop without end. Both are refused at decode time, and the server
    // keeps answering.
    let server = server();
    let mut client = Client::new(server.addr());
    for dt in [1e-15, 1e-300] {
        let body = Json::obj([
            ("type", Json::str("tran")),
            (
                "deck",
                Json::str("V1 in 0 DC 1\nR1 in out 1k\nC1 out 0 1p\n.end"),
            ),
            ("dt", Json::from(dt)),
            ("t_stop", Json::from(1.0)),
        ]);
        let response = client
            .request("POST", "/v1/run")
            .body(&body)
            .send()
            .unwrap();
        assert_eq!(response.status, 400, "dt {dt:e}");
        let error = response.body.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("bad_request"));
        let message = error.get("message").unwrap().as_str().unwrap();
        assert!(message.contains("t_stop: "), "names t_stop: {message}");
    }
    client
        .request("GET", "/v1/healthz")
        .send()
        .unwrap()
        .expect_status(200);
    server.shutdown();
}

#[test]
fn oversized_decks_answer_422_before_any_buffer_is_allocated() {
    // Past the dense solver's dimension bound, and a four-unknown deck
    // whose million-step waveform is past the sample bound: both are
    // deck errors, and the server keeps answering.
    let server = server();
    let mut client = Client::new(server.addr());
    let mut wide = String::from("V1 n0 0 DC 1\n");
    for i in 0..cnfet::mna::MAX_DENSE_DIM {
        wide.push_str(&format!("R{i} n{i} n{} 1\n", i + 1));
    }
    wide.push_str(".end");
    let long = "V1 in 0 DC 1\nR1 in a 1k\nR2 a b 1k\nC1 b 0 1p\n.end";
    for (deck, t_stop, names) in [
        (wide.as_str(), 1e-11, "unknowns"),
        (long, 0.9e-6, "waveform"),
    ] {
        let body = Json::obj([
            ("type", Json::str("tran")),
            ("deck", Json::str(deck)),
            ("dt", Json::from(1e-12)),
            ("t_stop", Json::from(t_stop)),
        ]);
        let response = client
            .request("POST", "/v1/run")
            .body(&body)
            .send()
            .unwrap();
        assert_eq!(response.status, 422, "{names}");
        let error = response.body.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("deck"));
        let message = error.get("message").unwrap().as_str().unwrap();
        assert!(message.contains(names), "{message}");
    }
    client
        .request("GET", "/v1/healthz")
        .send()
        .unwrap()
        .expect_status(200);
    server.shutdown();
}

/// A one-HTTP-worker server: a request that panicked the thread running
/// it would leave every later request hanging.
fn one_worker_server() -> Server {
    Server::start(ServeConfig::default().addr("127.0.0.1:0").workers(1)).unwrap()
}

#[test]
fn bad_loads_answer_400_and_a_one_worker_server_keeps_serving() {
    let server = one_worker_server();
    let mut client = Client::new(server.addr());
    let loads = || Json::Arr(vec![Json::from(-1e-15)]);
    let corner = Json::obj([
        ("type", Json::str("sweep_corner")),
        ("cell", cell_fields("inv")),
        ("metrics", Json::str("timing")),
        ("loads_f", loads()),
    ]);
    let sweep = Json::obj([
        ("type", Json::str("sweep")),
        ("cells", Json::Arr(vec![cell_fields("inv")])),
        ("metrics", Json::str("timing")),
        ("loads_f", loads()),
    ]);
    for (name, body) in [("sweep_corner", corner), ("sweep", sweep)] {
        let response = client
            .request("POST", "/v1/run")
            .body(&body)
            .send()
            .unwrap();
        assert_eq!(response.status, 400, "{name}");
        let error = response.body.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("invalid_request"));
        let message = error.get("message").unwrap().as_str().unwrap();
        assert!(message.contains("loads_f[0]"), "{name}: {message}");
    }
    client
        .request("POST", "/v1/run")
        .body(&cell("inv"))
        .send()
        .unwrap()
        .expect_status(200);
    server.shutdown();
}

#[test]
fn tube_counts_past_their_bounds_answer_400_and_a_one_worker_server_keeps_serving() {
    let server = one_worker_server();
    let mut client = Client::new(server.addr());
    let immunity = Json::obj([
        ("type", Json::str("immunity")),
        ("cell", cell_fields("inv")),
        ("engine", Json::str("monte_carlo")),
        (
            "mc",
            Json::obj([("tubes", Json::from(1_000_000_000_000_000u64))]),
        ),
    ]);
    let lot = Json::obj([
        ("type", Json::str("repair")),
        ("cells", Json::Arr(vec![cell_fields("inv")])),
        (
            "params",
            Json::obj([("tubes_per_site", Json::from(u64::from(u32::MAX)))]),
        ),
    ]);
    // Each analysis or site within its bound, the request's total past
    // `MAX_TOTAL_TUBES`: 17 immunity rows of `MAX_MC_TUBES` tubes, and a
    // 200,000-die lot of three cells and two spares.
    let sweep = Json::obj([
        ("type", Json::str("sweep")),
        ("cells", Json::Arr(vec![cell_fields("inv")])),
        ("grid", Json::obj([("seeds", (0..17u64).collect::<Json>())])),
        ("metrics", Json::str("immunity")),
        (
            "mc",
            Json::obj([("tubes", Json::from(cnfet::MAX_MC_TUBES))]),
        ),
    ]);
    let big_lot = Json::obj([
        ("type", Json::str("repair")),
        (
            "cells",
            Json::Arr(vec![
                cell_fields("inv"),
                cell_fields("nand2"),
                cell_fields("nor2"),
            ]),
        ),
        ("dies", Json::from(200_000u64)),
        ("spares", Json::from(2u64)),
    ]);
    for (body, field) in [
        (immunity, "mc.tubes"),
        (lot, "params.tubes_per_site"),
        (sweep, "mc.tubes"),
        (big_lot, "params.tubes_per_site"),
    ] {
        let response = client
            .request("POST", "/v1/run")
            .body(&body)
            .send()
            .unwrap();
        assert_eq!(response.status, 400, "{field}");
        let error = response.body.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("invalid_request"));
        let message = error.get("message").unwrap().as_str().unwrap();
        assert!(message.contains(field), "{field}: {message}");
    }
    client
        .request("POST", "/v1/run")
        .body(&cell("inv"))
        .send()
        .unwrap()
        .expect_status(200);
    server.shutdown();
}

#[test]
fn oversized_flow_sims_answer_422_and_a_one_worker_server_keeps_serving() {
    let server = one_worker_server();
    let mut client = Client::new(server.addr());
    // About one MNA unknown per inverter: past the dense solver's bound.
    let n = cnfet::mna::MAX_DENSE_DIM + 100;
    let mut verilog = String::from("module chain (input n0, output y);\n");
    for i in 0..n {
        let out = if i + 1 == n {
            "y".to_string()
        } else {
            format!("n{}", i + 1)
        };
        verilog.push_str(&format!("  INV_X1 u{i} (.A(n{i}), .OUT({out}));\n"));
    }
    verilog.push_str("endmodule\n");
    let flow = Json::obj([
        ("type", Json::str("flow")),
        ("source", Json::obj([("verilog", Json::str(&verilog))])),
        ("target", Json::str("s1")),
        (
            "sim",
            Json::obj([
                ("toggle_in", Json::str("n0")),
                ("watch_out", Json::str("y")),
            ]),
        ),
    ]);
    let response = client
        .request("POST", "/v1/run")
        .body(&flow)
        .send()
        .unwrap();
    assert_eq!(response.status, 422);
    let error = response.body.get("error").unwrap();
    assert_eq!(error.get("kind").unwrap().as_str(), Some("sim_too_large"));
    let message = error.get("message").unwrap().as_str().unwrap();
    assert!(message.contains("unknowns"), "{message}");
    client
        .request("GET", "/v1/healthz")
        .send()
        .unwrap()
        .expect_status(200);
    server.shutdown();
}

#[test]
fn binary_die_tables_reassemble_identical_to_json() {
    let server = server();
    let mut client = Client::new(server.addr());

    // Buffered: the binary die table decodes to exactly the JSON dies.
    let json_report = client
        .request("POST", "/v1/run")
        .body(&repair_lot(6))
        .send()
        .unwrap()
        .expect_status(200);
    let json_dies = json_report.get("dies").unwrap().as_arr().unwrap();
    let binary = client
        .request("POST", "/v1/run")
        .body(&repair_lot(6))
        .accept(Format::Binary)
        .send()
        .unwrap();
    assert_eq!(binary.status, 200);
    assert_eq!(binary.content_type, "application/x-cnfet-rows");
    let decoded = encode::decode_die_table(&binary.bytes).unwrap();
    assert_eq!(decoded.len(), json_dies.len());
    for (decoded, json) in decoded.iter().zip(json_dies) {
        assert_eq!(decoded.render(), json.render());
    }

    // Streamed: FRAME_DIE frames decode to the same dies too.
    let mut streamed = Vec::new();
    client
        .submit_and_stream(&repair_lot(6), Format::Binary, |event| {
            if let StreamEvent::Row { row, .. } = event {
                streamed.push(row);
            }
        })
        .unwrap();
    assert_eq!(streamed.len(), json_dies.len());
    for (streamed, json) in streamed.iter().zip(json_dies) {
        assert_eq!(streamed.render(), json.render());
    }
    server.shutdown();
}

/// A small co-optimization body: one cell, a 2-value tube axis,
/// fixed-seed cheap Monte-Carlo — 4 candidate evaluations per pass.
fn small_optimize(min_yield: f64) -> Json {
    Json::obj([
        ("type", Json::str("optimize")),
        ("cells", Json::Arr(vec![cell_fields("inv")])),
        (
            "grid",
            Json::obj([
                ("tube_counts", [6u64, 26].into_iter().collect::<Json>()),
                ("seeds", [7u64].into_iter().collect::<Json>()),
            ]),
        ),
        ("target", Json::obj([("min_yield", Json::from(min_yield))])),
        ("passes", Json::from(1u64)),
        ("metrics", Json::str("immunity")),
        ("mc", Json::obj([("tubes", Json::from(60u64))])),
    ])
}

#[test]
fn optimize_runs_streams_and_reuses_over_the_wire() {
    let server = server();
    let mut client = Client::new(server.addr());

    // Synchronous run: the buffered report carries the full trajectory.
    let report = client
        .request("POST", "/v1/run")
        .body(&small_optimize(0.9))
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(report.get("type").unwrap().as_str(), Some("optimize"));
    let candidates = report.get("candidates").unwrap().as_arr().unwrap();
    assert_eq!(candidates.len(), 4, "2 tubes + 1 pitch + 1 metallic");
    assert!(report.get("best_index").unwrap().as_u64().is_some());

    let stats = client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    let opt_misses = class_stat(&stats, "optimizations", "misses");
    let sweep_misses = class_stat(&stats, "sweeps", "misses");
    assert!(opt_misses > 0, "the search populated its class");

    // Streaming the identical search: the trajectory is a pure cache
    // hit, and every candidate back-fills as a row before `done`.
    let mut rows = 0u64;
    let mut done = None;
    client
        .submit_and_stream(&small_optimize(0.9), Format::Json, |event| match event {
            StreamEvent::Start { total, .. } => assert_eq!(total, 4),
            StreamEvent::Row { index, row } => {
                assert_eq!(index, rows, "candidates stream in schedule order");
                assert_eq!(row.get("index").and_then(Json::as_u64), Some(rows));
                assert!(row.get("axis").unwrap().as_str().is_some());
                rows += 1;
            }
            StreamEvent::Done(result) => done = Some(result),
            other => panic!("unexpected event {other:?}"),
        })
        .unwrap();
    assert_eq!(rows, 4, "every candidate was streamed");
    let done = done.expect("terminal done event");
    assert_eq!(
        done.render(),
        report.render(),
        "the streamed terminal payload is the buffered report"
    );

    // A widened-target search misses only its new trajectory key: every
    // candidate sweep is target-free, so no sweep corner re-executes —
    // the acceptance check, observed entirely through `/v1/stats`.
    client
        .request("POST", "/v1/run")
        .body(&small_optimize(0.5))
        .send()
        .unwrap()
        .expect_status(200);
    let stats = client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(
        class_stat(&stats, "optimizations", "misses"),
        opt_misses + 1,
        "only the widened trajectory key is new"
    );
    assert_eq!(
        class_stat(&stats, "sweeps", "misses"),
        sweep_misses,
        "no sweep corner re-executed"
    );

    // Non-finite / negative grid axes are a structured 400 naming the
    // offending element — never a cache entry.
    let bad = Json::obj([
        ("type", Json::str("optimize")),
        ("cells", Json::Arr(vec![cell_fields("inv")])),
        (
            "grid",
            Json::obj([(
                "pitch_scales",
                Json::Arr(vec![Json::from(1.0), Json::from(-2.0)]),
            )]),
        ),
    ]);
    let response = client.request("POST", "/v1/run").body(&bad).send().unwrap();
    assert_eq!(response.status, 400);
    let message = response
        .body
        .get("error")
        .unwrap()
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(
        message.starts_with("grid.pitch_scales[1]:"),
        "the 400 names the offending element: {message}"
    );
    server.shutdown();
}

/// A hierarchical adder-macro body: kind ∈ ripple|cla, width ∈ 8|32|64.
fn adder_macro(kind: &str, width: u64, seed: u64) -> Json {
    Json::obj([
        ("type", Json::str("macro")),
        ("kind", Json::str(kind)),
        ("width", Json::from(width)),
        ("seed", Json::from(seed)),
    ])
}

#[test]
fn adder_macros_round_trip_run_batch_and_submit() {
    let server = server();
    let mut client = Client::new(server.addr());

    // Synchronous run: the buffered report carries every bit slice plus
    // the hierarchical artifact sizes.
    let report = client
        .request("POST", "/v1/run")
        .body(&adder_macro("cla", 8, 5))
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(report.get("type").unwrap().as_str(), Some("macro"));
    assert_eq!(report.get("kind").unwrap().as_str(), Some("cla"));
    assert_eq!(report.get("width").unwrap().as_u64(), Some(8));
    assert_eq!(report.get("fa_instances").unwrap().as_u64(), Some(8));
    let slices = report.get("slices").unwrap().as_arr().unwrap();
    assert_eq!(slices.len(), 8, "one row per bit");
    for (bit, slice) in slices.iter().enumerate() {
        assert_eq!(slice.get("bit").and_then(Json::as_u64), Some(bit as u64));
        assert!(slice.get("carry_delay_s").unwrap().as_f64().unwrap() > 0.0);
    }
    assert!(report.get("critical_path_s").unwrap().as_f64().unwrap() > 0.0);
    assert!(report.get("spice_len").unwrap().as_u64().unwrap() > 0);
    assert!(report.get("gds_len").unwrap().as_u64().unwrap() > 0);

    // Batch: a macro rides alongside other request types, in order.
    let results = client
        .request("POST", "/v1/batch")
        .body(&Json::obj([(
            "requests",
            Json::Arr(vec![cell("inv"), adder_macro("ripple", 8, 5)]),
        )]))
        .send()
        .unwrap()
        .expect_status(200);
    let results = results.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 2);
    let ripple = results[1].get("ok").expect("macro result");
    assert_eq!(ripple.get("type").unwrap().as_str(), Some("macro"));
    assert_eq!(ripple.get("kind").unwrap().as_str(), Some("ripple"));

    // Submit + poll: the non-blocking shape settles with the same report
    // (a pure cache hit now — the sync run above already paid for it).
    let submitted = client
        .request("POST", "/v1/submit")
        .body(&adder_macro("cla", 8, 5))
        .send()
        .unwrap()
        .expect_status(202);
    let id = submitted.get("jobs").unwrap().as_arr().unwrap()[0]
        .as_u64()
        .unwrap();
    let done = loop {
        let poll = client
            .request("GET", &format!("/v1/jobs/{id}"))
            .send()
            .unwrap()
            .expect_status(200);
        match poll.get("status").unwrap().as_str() {
            Some("pending") => std::thread::sleep(Duration::from_millis(5)),
            Some("done") => break poll,
            other => panic!("unexpected job status {other:?}"),
        }
    };
    assert_eq!(
        done.get("result").unwrap().render(),
        report.render(),
        "the submitted macro settles byte-identical to the buffered run"
    );

    // A width outside 8|32|64 is a structured 400 naming the field —
    // never a cache entry.
    let refused = client
        .request("POST", "/v1/run")
        .body(&adder_macro("cla", 7, 0))
        .send()
        .unwrap();
    assert_eq!(refused.status, 400);
    let message = refused
        .body
        .get("error")
        .unwrap()
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(
        message.starts_with("width: expected one of 8|32|64"),
        "the 400 names the offending field: {message}"
    );
    server.shutdown();
}

#[test]
fn macro_slices_stream_and_subcells_memoize() {
    let server = server();
    let mut client = Client::new(server.addr());

    // Cold stream: the start event announces the bit count, every slice
    // arrives as its own row in bit order, strictly before `done`.
    let mut total = 0;
    let mut rows = Vec::new();
    let mut done = None;
    client
        .submit_and_stream(
            &adder_macro("cla", 8, 99),
            Format::Json,
            |event| match event {
                StreamEvent::Start { total: t, .. } => total = t,
                StreamEvent::Row { index, row } => {
                    assert!(done.is_none(), "rows precede the terminal event");
                    assert_eq!(index, rows.len() as u64, "slices stream in order");
                    assert_eq!(row.get("bit").and_then(Json::as_u64), Some(index));
                    rows.push(row);
                }
                StreamEvent::Done(result) => done = Some(result),
                other => panic!("unexpected event {other:?}"),
            },
        )
        .unwrap();
    assert_eq!(total, 8);
    assert_eq!(rows.len(), 8, "every bit slice was streamed");
    let done = done.expect("terminal done event");

    // The buffered replay — a pure whole-macro hit now — matches the
    // streamed terminal payload, and a second stream back-fills the
    // same rows from the cache instead of re-executing slices.
    let buffered = client
        .request("POST", "/v1/run")
        .body(&adder_macro("cla", 8, 99))
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(buffered.render(), done.render());
    let mut replayed = Vec::new();
    client
        .submit_and_stream(&adder_macro("cla", 8, 99), Format::Json, |event| {
            if let StreamEvent::Row { row, .. } = event {
                replayed.push(row);
            }
        })
        .unwrap();
    assert_eq!(replayed.len(), 8);
    for (replayed, streamed) in replayed.iter().zip(&rows) {
        assert_eq!(replayed.render(), streamed.render());
    }

    // Sub-cell memoization, observed entirely through `/v1/stats`: the
    // first 64-bit macro pays for its sub-cell layouts; a second,
    // different 64-bit macro re-executes its own slices but generates
    // zero new cells — every sub-cell request is a hit on the shared
    // cell class.
    client
        .request("POST", "/v1/run")
        .body(&adder_macro("cla", 64, 99))
        .send()
        .unwrap()
        .expect_status(200);
    let stats = client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    let cell_misses = class_stat(&stats, "cell", "misses");
    let macro_misses = class_stat(&stats, "macros", "misses");
    client
        .request("POST", "/v1/run")
        .body(&adder_macro("ripple", 64, 99))
        .send()
        .unwrap()
        .expect_status(200);
    let stats = client
        .request("GET", "/v1/stats")
        .send()
        .unwrap()
        .expect_status(200);
    assert_eq!(
        class_stat(&stats, "cell", "misses"),
        cell_misses,
        "the second 64-bit macro generated zero new cells"
    );
    assert!(
        class_stat(&stats, "macros", "misses") > macro_misses,
        "the second macro was not a whole-report replay"
    );
    server.shutdown();
}

/// Sends raw bytes and returns the raw response — for malformed-HTTP
/// cases the [`Client`] cannot produce.
fn raw_request(addr: std::net::SocketAddr, bytes: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(bytes.as_bytes()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}
