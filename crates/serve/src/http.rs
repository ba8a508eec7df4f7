//! Minimal vendored HTTP/1.1 front end over `std::net::TcpListener`.
//!
//! The serving core is the in-process [`ServeHandle`]
//! API; this module adds just enough wire protocol for out-of-process
//! callers and smoke tools — one acceptor thread handing connections to
//! a small worker pool, GET-only routing, hand-rolled JSON. No async
//! runtime, no external dependencies.
//!
//! The acceptor blocks in `accept`, so a connection is queued the moment
//! it arrives; [`HttpServer::shutdown`] wakes it by connecting once to
//! its own address. Workers take connections in arrival order and, while
//! the queue is empty, wait on it without polling: every exit of the
//! acceptor sets the stop flag and wakes them.
//!
//! Routes:
//!
//! * `GET /healthz` — liveness probe, `200 ok`.
//! * `GET /stats` — per-deployment serving counters as JSON.
//! * `GET /infer/<deployment>/<node>` — single-node inference; the
//!   response carries the output row, serving engine version, and the
//!   size of the dispatch group that served it (1 for a read answered
//!   at submit).
//!
//! Serving-policy outcomes map onto status codes: shed load is `503`
//! with a `Retry-After` header, queue expiry is `504`, an unknown
//! deployment is `404`, malformed requests are `400`, and engine errors
//! (a [`HectorError`](hector_runtime::HectorError) or a panicked
//! forward) are `500` with the error rendered in the body. Every
//! interpolated string is JSON-escaped.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::{ServeError, ServeHandle};

struct ConnQueue {
    conns: Mutex<VecDeque<TcpStream>>,
    cv: Condvar,
}

/// A running HTTP front end bound to a local address.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral port) and
    /// serves requests against `handle` with one acceptor plus
    /// `workers` request threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(handle: ServeHandle, addr: &str, workers: usize) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(ConnQueue {
            conns: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        });

        let mut threads = Vec::new();
        {
            let stop = Arc::clone(&stop);
            let queue = Arc::clone(&queue);
            threads.push(
                std::thread::Builder::new()
                    .name("hector-serve-accept".into())
                    .spawn(move || {
                        // `shutdown` sets `stop`, then connects once:
                        // that connection (or any other arriving after
                        // `stop`) ends the loop unanswered.
                        while let Ok((conn, _)) = listener.accept() {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            queue.conns.lock().expect("conn lock").push_back(conn);
                            queue.cv.notify_one();
                        }
                        // Every exit, an `accept` error included, stops
                        // the workers. Under the lock, so no worker is
                        // between its `stop` check and its wait.
                        let _guard = queue.conns.lock().expect("conn lock");
                        stop.store(true, Ordering::SeqCst);
                        queue.cv.notify_all();
                    })
                    .expect("spawn acceptor"),
            );
        }
        for i in 0..workers.max(1) {
            let stop = Arc::clone(&stop);
            let queue = Arc::clone(&queue);
            let handle = handle.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("hector-serve-http-{i}"))
                    .spawn(move || loop {
                        let conn = {
                            let mut g = queue.conns.lock().expect("conn lock");
                            loop {
                                if let Some(c) = g.pop_front() {
                                    break c;
                                }
                                if stop.load(Ordering::SeqCst) {
                                    return;
                                }
                                g = queue.cv.wait(g).expect("conn lock");
                            }
                        };
                        let _ = serve_connection(conn, &handle);
                    })
                    .expect("spawn http worker"),
            );
        }
        Ok(HttpServer {
            addr,
            stop,
            threads,
        })
    }

    /// The bound local address (resolved port for `:0` binds).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the acceptor and workers; in-progress responses finish.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept`. A wildcard bind is reached
        // through loopback; if the connect fails, the acceptor has
        // already left its loop.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Most bytes a request head (request line plus headers) may take. The
/// head is read through this limit, so a client that never ends a line
/// cannot grow a worker's buffer; a longer head is answered `431`.
const MAX_HEAD_BYTES: u64 = 8 * 1024;

fn serve_connection(conn: TcpStream, handle: &ServeHandle) -> std::io::Result<()> {
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut head = BufReader::new(conn.try_clone()?.take(MAX_HEAD_BYTES));
    let mut request_line = String::new();
    head.read_line(&mut request_line)?;
    // Drain headers; the API is GET-only so bodies are ignored.
    let (mut line, mut ended) = (String::new(), false);
    while !ended && head.read_line(&mut line)? > 0 {
        ended = line == "\r\n" || line == "\n";
        line.clear();
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, headers, body) = if !ended && head.get_ref().limit() == 0 {
        let body = "{\"error\":\"request head too large\"}\n".to_string();
        (431, Vec::new(), body)
    } else if method != "GET" {
        (405, Vec::new(), "{\"error\":\"GET only\"}\n".to_string())
    } else {
        route(path, handle)
    };
    respond(conn, status, &headers, &body)
}

fn route(path: &str, handle: &ServeHandle) -> (u16, Vec<String>, String) {
    match path {
        "/healthz" => (200, Vec::new(), "ok\n".to_string()),
        "/stats" => (200, Vec::new(), stats_json(handle)),
        _ => {
            let Some(rest) = path.strip_prefix("/infer/") else {
                return (404, Vec::new(), "{\"error\":\"no such route\"}\n".into());
            };
            let Some((dep, node)) = rest.rsplit_once('/') else {
                return (
                    400,
                    Vec::new(),
                    "{\"error\":\"use /infer/<deployment>/<node>\"}\n".into(),
                );
            };
            let Ok(node) = node.parse::<usize>() else {
                return (
                    400,
                    Vec::new(),
                    "{\"error\":\"node must be an integer\"}\n".into(),
                );
            };
            match handle.submit(dep, node).map(crate::Ticket::wait) {
                Ok(Ok(resp)) => {
                    let row: Vec<String> = resp.rows[0].iter().map(|v| format!("{v}")).collect();
                    (
                        200,
                        Vec::new(),
                        format!(
                            "{{\"deployment\":{},\"node\":{node},\"version\":{},\"coalesced\":{},\"row\":[{}]}}\n",
                            json_str(dep),
                            resp.version,
                            resp.coalesced,
                            row.join(",")
                        ),
                    )
                }
                Ok(Err(e)) | Err(e) => error_response(&e),
            }
        }
    }
}

fn error_response(e: &ServeError) -> (u16, Vec<String>, String) {
    let (status, headers) = match e {
        ServeError::UnknownDeployment(_) => (404, Vec::new()),
        ServeError::BadRequest(_) => (400, Vec::new()),
        ServeError::Overloaded { retry_after } => {
            let secs = retry_after.as_secs_f64().ceil().max(1.0) as u64;
            (503, vec![format!("Retry-After: {secs}")])
        }
        ServeError::Timeout => (504, Vec::new()),
        ServeError::ShuttingDown => (503, vec!["Retry-After: 1".to_string()]),
        ServeError::Hector(_) | ServeError::Internal(_) => (500, Vec::new()),
    };
    (
        status,
        headers,
        format!("{{\"error\":{}}}\n", json_str(&e.to_string())),
    )
}

fn stats_json(handle: &ServeHandle) -> String {
    let mut out = String::from("{");
    for (i, name) in handle.deployments().iter().enumerate() {
        let Some(s) = handle.stats(name) else {
            continue;
        };
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{}:{{\"submitted\":{},\"completed\":{},\"shed\":{},\"timed_out\":{},\"failed\":{},\"forwards\":{},\"coalesced_requests\":{},\"coalescing_factor\":{:.3},\"swaps\":{},\"version\":{},\"graph_version\":{}}}",
            json_str(name),
            s.submitted,
            s.completed,
            s.shed,
            s.timed_out,
            s.failed,
            s.forwards,
            s.coalesced_requests,
            s.coalescing_factor(),
            s.swaps,
            s.version,
            s.graph_version
        ));
    }
    out.push_str("}\n");
    out
}

/// `s` as a quoted JSON string. Every string the responses interpolate
/// (deployment names from the request path, error text) goes through
/// here, so a `"` or `\` in either cannot break the document.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn respond(
    mut conn: TcpStream,
    status: u16,
    headers: &[String],
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for h in headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    conn.write_all(head.as_bytes())?;
    conn.write_all(body.as_bytes())?;
    conn.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use hector_graph::{generate, DatasetSpec};
    use hector_models::ModelKind;
    use hector_runtime::{EngineBuilder, GraphData};

    fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        let mut conn = TcpStream::connect(addr).expect("connect");
        write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut reader = BufReader::new(conn);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let mut headers = String::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap() == 0 || line == "\r\n" {
                break;
            }
            headers.push_str(&line);
        }
        let mut body = String::new();
        std::io::Read::read_to_string(&mut reader, &mut body).unwrap();
        (status, headers, body)
    }

    fn server() -> (ServeHandle, HttpServer) {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        let g = GraphData::new(generate(&DatasetSpec {
            name: "http_unit".into(),
            num_nodes: 40,
            num_node_types: 2,
            num_edges: 160,
            num_edge_types: 3,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 5,
        }));
        let b = EngineBuilder::new(ModelKind::Rgcn).dims(4, 4).seed(3);
        srv.deploy("m", b, &g).unwrap();
        let http = HttpServer::start(srv.clone(), "127.0.0.1:0", 2).expect("bind");
        (srv, http)
    }

    #[test]
    fn healthz_stats_and_infer_roundtrip() {
        let (srv, http) = server();
        let (status, _, body) = get(http.addr(), "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, _, body) = get(http.addr(), "/infer/m/7");
        assert_eq!(status, 200);
        assert!(body.contains("\"version\":1"), "{body}");
        assert!(body.contains("\"row\":["), "{body}");
        let (status, _, body) = get(http.addr(), "/stats");
        assert_eq!(status, 200);
        assert!(body.contains("\"completed\":1"), "{body}");
        http.shutdown();
        srv.shutdown();
    }

    #[test]
    fn error_statuses_map_onto_serving_outcomes() {
        let (srv, http) = server();
        let (status, _, _) = get(http.addr(), "/infer/ghost/0");
        assert_eq!(status, 404);
        let (status, _, _) = get(http.addr(), "/infer/m/99999");
        assert_eq!(status, 400);
        let (status, _, _) = get(http.addr(), "/infer/m/not_a_number");
        assert_eq!(status, 400);
        let (status, _, _) = get(http.addr(), "/nope");
        assert_eq!(status, 404);
        http.shutdown();
        srv.shutdown();
    }

    /// A 1 MiB request line is refused with 431 once the head limit is
    /// read, and the server goes on answering.
    #[test]
    fn oversized_request_head_is_refused_with_431() {
        let (srv, http) = server();
        let mut conn = TcpStream::connect(http.addr()).expect("connect");
        let mut writer = conn.try_clone().unwrap();
        // The server stops reading at its limit, so these writes may fail.
        let sender = std::thread::spawn(move || {
            let _ = writer.write_all(&vec![b'A'; 1 << 20]);
            let _ = writer.write_all(b" / HTTP/1.1\r\n\r\n");
        });
        let mut status_line = String::new();
        BufReader::new(&mut conn)
            .read_line(&mut status_line)
            .unwrap();
        assert!(
            status_line.starts_with("HTTP/1.1 431 Request Header Fields Too Large"),
            "{status_line}"
        );
        drop(conn);
        sender.join().unwrap();
        let (status, _, body) = get(http.addr(), "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        http.shutdown();
        srv.shutdown();
    }

    /// Regression: deployment names from the path and error text were
    /// pasted into the JSON raw, so `"` or `\` produced invalid JSON.
    #[test]
    fn quotes_and_backslashes_are_escaped_in_every_body() {
        let (srv, http) = server();
        let g = GraphData::new(generate(&DatasetSpec {
            name: "http_unit_escape".into(),
            num_nodes: 16,
            num_node_types: 2,
            num_edges: 64,
            num_edge_types: 2,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 7,
        }));
        let b = EngineBuilder::new(ModelKind::Rgcn).dims(4, 4).seed(3);
        srv.deploy(r#"q"\t"#, b, &g).unwrap();

        let (status, _, body) = get(http.addr(), r#"/infer/a"b\c/0"#);
        assert_eq!(status, 404);
        assert_eq!(body, "{\"error\":\"unknown deployment 'a\\\"b\\\\c'\"}\n");

        let (status, _, body) = get(http.addr(), r#"/infer/q"\t/2"#);
        assert_eq!(status, 200);
        assert!(
            body.starts_with(r#"{"deployment":"q\"\\t","node":2,"#),
            "{body}"
        );

        let (status, _, body) = get(http.addr(), "/stats");
        assert_eq!(status, 200);
        assert!(body.contains(r#""q\"\\t":{"submitted":1,"#), "{body}");
        assert!(body.contains("\"graph_version\":0}"), "{body}");

        assert_eq!(json_str("a\nb\u{1}"), r#""a\nb\u0001""#);
        http.shutdown();
        srv.shutdown();
    }

    /// The acceptor blocks in `accept`: `shutdown` must wake it itself,
    /// not wait for a client that never comes.
    #[test]
    fn shutdown_without_a_client_returns_promptly() {
        let (srv, http) = server();
        let t0 = std::time::Instant::now();
        http.shutdown();
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
        srv.shutdown();
    }

    /// One worker answers queued connections first come, first served:
    /// while it is held by a connection that has sent nothing yet, an
    /// inference and then a stats request queue up, and the stats
    /// request must see the inference completed.
    #[test]
    fn queued_connections_are_answered_in_arrival_order() {
        let srv = ServeHandle::start(ServeConfig::default().with_workers(1));
        let g = GraphData::new(generate(&DatasetSpec {
            name: "http_unit_fifo".into(),
            num_nodes: 16,
            num_node_types: 2,
            num_edges: 64,
            num_edge_types: 2,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 8,
        }));
        let b = EngineBuilder::new(ModelKind::Rgcn).dims(4, 4).seed(3);
        srv.deploy("m", b, &g).unwrap();
        let http = HttpServer::start(srv.clone(), "127.0.0.1:0", 1).expect("bind");
        let mut holder = TcpStream::connect(http.addr()).expect("connect");
        // The worker is now (or soon) reading `holder`'s request line.
        std::thread::sleep(Duration::from_millis(100));
        let send = |path: &str| {
            let mut conn = TcpStream::connect(http.addr()).expect("connect");
            write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            conn
        };
        let read = |conn: TcpStream| {
            let mut body = String::new();
            BufReader::new(conn).read_to_string(&mut body).unwrap();
            body
        };
        let infer = send("/infer/m/3");
        std::thread::sleep(Duration::from_millis(50));
        let stats = send("/stats");
        std::thread::sleep(Duration::from_millis(100));
        write!(holder, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert!(read(holder).ends_with("ok\n"));
        assert!(read(infer).contains("\"row\":["));
        let body = read(stats);
        assert!(body.contains("\"completed\":1"), "{body}");
        http.shutdown();
        srv.shutdown();
    }

    #[test]
    fn overload_maps_to_503_with_retry_after() {
        let srv = ServeHandle::start(
            ServeConfig::default()
                .with_queue_capacity(1)
                .with_workers(1),
        );
        let g = GraphData::new(generate(&DatasetSpec {
            name: "http_unit_503".into(),
            num_nodes: 16,
            num_node_types: 2,
            num_edges: 64,
            num_edge_types: 2,
            compaction_ratio: 0.5,
            type_skew: 1.0,
            seed: 6,
        }));
        let b = EngineBuilder::new(ModelKind::Rgcn).dims(4, 4).seed(3);
        srv.deploy("m", b, &g).unwrap();
        srv.pause();
        let _fill = srv.submit("m", 0).unwrap();
        let http = HttpServer::start(srv.clone(), "127.0.0.1:0", 1).expect("bind");
        let (status, headers, _) = get(http.addr(), "/infer/m/1");
        assert_eq!(status, 503);
        assert!(headers.contains("Retry-After:"), "{headers}");
        srv.resume();
        http.shutdown();
        srv.shutdown();
    }
}
