//! The minimal HTTP/1.0 endpoint over a run's metrics store.
//!
//! [`spawn_health_server`] takes a cloned [`Telemetry`] handle — the one
//! store the aggregator and the coordinator write — and renders a fresh
//! [`photon_core::MetricsSnapshot`] per request over plain HTTP GET:
//!
//! * `GET /metrics` — Prometheus text exposition, the same text the
//!   `--metrics-text` sink writes: the snapshot's rendering
//!   ([`photon_core::MetricsSnapshot::to_prometheus`]: every counter and
//!   derived gauge, the coordinator's `photon_coord_*` and the per-client
//!   `photon_client_*` families), whether or not a trace recorder is
//!   enabled, followed by the recorder's `photon_phase_*` families when
//!   one is. Lint-clean per [`photon_trace::lint_prometheus`].
//! * `GET /health` — the coordinator-and-clients part of the same
//!   snapshot as JSON, for programmatic probes: round, state,
//!   `rounds_committed` and one entry per client the coordinator has
//!   seen. Nothing in it grows with run length.
//!
//! Scrape-by-endpoint replaces scrape-by-file: a request renders on
//! demand, mid-round, with no flush requirement, and holds the store's
//! lock only while the table is copied. The handler speaks just enough
//! HTTP/1.0 (request line + `Connection: close`) for `curl` and
//! Prometheus scrapers on the existing TCP stack.

use crate::spawn_in_scope;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use photon_core::Telemetry;

/// Handle to a running health endpoint; dropping it (or calling
/// [`HealthServer::shutdown`]) stops the accept loop.
pub(crate) struct HealthServer {
    stop: Arc<AtomicBool>,
    /// Port the endpoint actually bound (useful with port 0).
    pub port: u16,
}

impl HealthServer {
    /// Stops the accept loop: raises the stop flag, then wakes the blocked
    /// `accept` with a throwaway connection to our own port.
    pub fn shutdown(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(("127.0.0.1", self.port));
        }
    }
}

impl Drop for HealthServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `127.0.0.1:port` and serves `GET /metrics` and `GET /health`
/// from a background thread until the returned handle is dropped. The
/// thread blocks in `accept`, so a poll is answered as soon as it lands.
///
/// # Errors
/// Propagates a failure to bind the port or to spawn the thread.
pub(crate) fn spawn_health_server(
    port: u16,
    telemetry: Telemetry,
) -> std::io::Result<HealthServer> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let port = listener.local_addr()?.port();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    // The endpoint reports the recorder the run is scoped under.
    spawn_in_scope("photon-health", move || {
        for stream in listener.incoming() {
            if stop_flag.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let _ = serve_one(stream, &telemetry);
                }
                // Transient accept failures (fd pressure, an aborted
                // handshake) must not spin the loop.
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    })?;
    Ok(HealthServer { stop, port })
}

fn serve_one(mut stream: TcpStream, telemetry: &Telemetry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read up to the end of the request line; ignore headers (HTTP/1.0
    // GETs carry no body).
    let mut buf = [0u8; 1024];
    let mut req = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                req.extend_from_slice(&buf[..n]);
                if req.windows(2).any(|w| w == b"\r\n") || req.len() >= buf.len() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let line = String::from_utf8_lossy(&req);
    let path = line.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            telemetry.snapshot().to_prometheus()
                + &photon_trace::render_prometheus(&photon_trace::drain_now().profile),
        ),
        "/health" => (
            "200 OK",
            "application/json",
            serde_json::to_string_pretty(&telemetry.snapshot().into_health())
                .map_err(std::io::Error::other)?,
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_store() -> Telemetry {
        let store = Telemetry::new();
        store.set_coordinator(3, 2, "round_start");
        for c in 0..3u32 {
            for r in 0..3u64 {
                store.client(c, |row| {
                    row.connected = true;
                    row.rounds += 1;
                    row.results += 1;
                    row.observe_latency_ms(40 + u64::from(c) * 10 + r);
                    row.last_round = r;
                });
            }
        }
        for r in 0..2 {
            store.record_committed_round(r);
        }
        store.client(1, |row| {
            row.heartbeat_misses += 1;
            row.reconnects += 1;
        });
        store.client(2, |row| {
            row.straggler_rounds += 1;
            row.connected = false;
        });
        store
    }

    #[test]
    fn prometheus_output_is_lint_clean() {
        let text = seeded_store().snapshot().to_prometheus();
        photon_trace::lint_prometheus(&text).expect("lint");
        assert!(text.contains("photon_client_rounds_total{client=\"0\"} 3"));
        assert!(text.contains("photon_client_reconnects_total{client=\"1\"} 1"));
        assert!(text.contains("photon_client_straggler_rounds_total{client=\"2\"} 1"));
        assert!(text.contains("photon_client_connected{client=\"2\"} 0"));
        assert!(text.contains("photon_client_result_latency_ms{client=\"0\",quantile=\"0.5\"}"));
        assert!(text.contains("photon_coord_round 3"));
    }

    #[test]
    fn json_snapshot_has_every_client() {
        let health = seeded_store().snapshot().into_health();
        let json = serde_json::to_string(&health).expect("json");
        for c in 0..3 {
            assert!(json.contains(&format!("\"{c}\":{{\"rounds\":3")), "{json}");
        }
        assert!(json.contains("\"round\":3"));
        // Shape check: braces balance.
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
    }

    #[test]
    fn http_endpoint_serves_metrics_health_and_404() {
        let server = spawn_health_server(0, seeded_store()).expect("bind");
        let get = |path: &str| -> String {
            let mut s = TcpStream::connect(("127.0.0.1", server.port)).expect("connect");
            s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
                .expect("request");
            let mut out = String::new();
            s.read_to_string(&mut out).expect("response");
            out
        };
        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"), "{metrics}");
        let body = metrics.split("\r\n\r\n").nth(1).expect("body");
        photon_trace::lint_prometheus(body).expect("lint over http");
        let health = get("/health");
        assert!(health.contains("\"rounds_committed\": 2"));
        assert!(get("/nope").starts_with("HTTP/1.0 404"));
        server.shutdown();
    }
}
