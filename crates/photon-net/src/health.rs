//! Live coordinator health registry and the minimal HTTP/1.0 endpoint
//! that serves it.
//!
//! The coordinator tracks per-client SLO statistics — round
//! participation, result latency (p50/p99), heartbeat misses, reconnects
//! and straggler rounds — in a [`HealthRegistry`] shared with the serve
//! loop, and [`spawn_health_server`] exposes them over plain HTTP GET:
//!
//! * `GET /metrics` — Prometheus text exposition: the full recorder
//!   state (counters, gauges, histograms, per-phase self time — including
//!   the hierarchy/shard gauges the aggregation layer publishes) plus the
//!   per-client `photon_client_*` families. Lint-clean per
//!   [`photon_trace::lint_prometheus`].
//! * `GET /health` — a JSON snapshot of the same per-client stats plus
//!   the coordinator round/state, for programmatic probes.
//!
//! Scrape-by-endpooint replaces scrape-by-file: the registry renders on
//! demand, mid-round, with no flush requirement. The handler speaks just
//! enough HTTP/1.0 (request line + `Connection: close`) for `curl` and
//! Prometheus scrapers on the existing TCP stack.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use photon_trace::LogHistogram;

/// Per-client SLO statistics tracked by the coordinator.
#[derive(Debug, Default, Clone)]
pub struct ClientSlo {
    /// Rounds this client was included in a broadcast cohort.
    pub rounds_participated: u64,
    /// Results received (including redelivered duplicates).
    pub results: u64,
    /// Result latency samples in milliseconds (broadcast to result).
    pub latency_ms: LogHistogram,
    /// Heartbeat strikes observed (each one is a missed liveness window).
    pub heartbeat_misses: u64,
    /// Session resumes after a disconnect.
    pub reconnects: u64,
    /// Rounds where this client's result arrived after the deadline (or
    /// never) while the round still committed.
    pub straggler_rounds: u64,
    /// Whether a live connection is currently registered.
    pub connected: bool,
    /// Last round with any activity from this client.
    pub last_round: u64,
}

#[derive(Debug, Default)]
struct HealthInner {
    clients: BTreeMap<u32, ClientSlo>,
    round: u64,
    state: u8,
    rounds_committed: u64,
}

/// Shared registry of live coordinator health (cheaply cloneable handle).
#[derive(Debug, Clone, Default)]
pub struct HealthRegistry {
    inner: Arc<Mutex<HealthInner>>,
}

impl HealthRegistry {
    /// An empty registry.
    pub fn new() -> HealthRegistry {
        HealthRegistry::default()
    }

    fn with<R>(&self, f: impl FnOnce(&mut HealthInner) -> R) -> R {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut inner)
    }

    /// Records that `client` was included in the broadcast cohort of
    /// `round`.
    pub fn note_participation(&self, client: u32, round: u64) {
        self.with(|h| {
            let slo = h.clients.entry(client).or_default();
            slo.rounds_participated += 1;
            slo.last_round = round;
        });
    }

    /// Records a received result and its broadcast-to-result latency.
    pub fn note_result(&self, client: u32, round: u64, latency_ms: u64) {
        self.with(|h| {
            let slo = h.clients.entry(client).or_default();
            slo.results += 1;
            slo.latency_ms.record(latency_ms);
            slo.last_round = slo.last_round.max(round);
        });
    }

    /// Records a heartbeat strike (one missed liveness window).
    pub fn note_heartbeat_miss(&self, client: u32) {
        self.with(|h| h.clients.entry(client).or_default().heartbeat_misses += 1);
    }

    /// Records a session resume after a disconnect.
    pub fn note_reconnect(&self, client: u32) {
        self.with(|h| h.clients.entry(client).or_default().reconnects += 1);
    }

    /// Records a round that closed without (or past) this client's result.
    pub fn note_straggler(&self, client: u32) {
        self.with(|h| h.clients.entry(client).or_default().straggler_rounds += 1);
    }

    /// Updates a client's live-connection status.
    pub fn set_connected(&self, client: u32, connected: bool) {
        self.with(|h| h.clients.entry(client).or_default().connected = connected);
    }

    /// Publishes the coordinator's current round, state discriminant and
    /// committed-round count.
    pub fn set_coordinator(&self, round: u64, state: u8, rounds_committed: u64) {
        self.with(|h| {
            h.round = round;
            h.state = state;
            h.rounds_committed = rounds_committed;
        });
    }

    /// Renders the full Prometheus exposition: recorder state first, then
    /// the per-client families. Lint-clean per
    /// [`photon_trace::lint_prometheus`].
    pub fn render_prometheus(&self) -> String {
        let summary = photon_trace::drain_now();
        let mut out = photon_trace::render_prometheus(
            &summary.counters,
            &summary.gauges,
            &summary.hists,
            &summary.profile,
        );
        self.with(|h| {
            out.push_str("# HELP photon_coord_round Current coordinator round.\n");
            out.push_str("# TYPE photon_coord_round gauge\n");
            out.push_str(&format!("photon_coord_round {}\n", h.round));
            out.push_str("# HELP photon_coord_state Coordinator state machine discriminant.\n");
            out.push_str("# TYPE photon_coord_state gauge\n");
            out.push_str(&format!("photon_coord_state {}\n", h.state));
            out.push_str("# HELP photon_coord_rounds_committed_total Rounds committed so far.\n");
            out.push_str("# TYPE photon_coord_rounds_committed_total counter\n");
            out.push_str(&format!(
                "photon_coord_rounds_committed_total {}\n",
                h.rounds_committed
            ));
            if h.clients.is_empty() {
                return;
            }
            type Family = (&'static str, &'static str, &'static str, fn(&ClientSlo) -> u64);
            let families: [Family; 6] = [
                (
                    "photon_client_rounds_total",
                    "counter",
                    "Rounds the client was broadcast to.",
                    |s| s.rounds_participated,
                ),
                (
                    "photon_client_results_total",
                    "counter",
                    "Results received from the client.",
                    |s| s.results,
                ),
                (
                    "photon_client_heartbeat_misses_total",
                    "counter",
                    "Heartbeat strikes observed for the client.",
                    |s| s.heartbeat_misses,
                ),
                (
                    "photon_client_reconnects_total",
                    "counter",
                    "Session resumes after a disconnect.",
                    |s| s.reconnects,
                ),
                (
                    "photon_client_straggler_rounds_total",
                    "counter",
                    "Rounds closed without or past the client's result.",
                    |s| s.straggler_rounds,
                ),
                (
                    "photon_client_connected",
                    "gauge",
                    "1 when a live connection is registered.",
                    |s| u64::from(s.connected),
                ),
            ];
            for (name, kind, help, get) in families {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
                for (id, slo) in &h.clients {
                    out.push_str(&format!("{name}{{client=\"{id}\"}} {}\n", get(slo)));
                }
            }
            out.push_str(
                "# HELP photon_client_result_latency_ms Broadcast-to-result latency quantiles.\n\
                 # TYPE photon_client_result_latency_ms gauge\n",
            );
            for (id, slo) in &h.clients {
                if slo.latency_ms.is_empty() {
                    continue;
                }
                for (label, q) in [("0.5", 0.5), ("0.99", 0.99)] {
                    let v = slo.latency_ms.quantile(q);
                    out.push_str(&format!(
                        "photon_client_result_latency_ms{{client=\"{id}\",quantile=\"{label}\"}} {v}\n"
                    ));
                }
            }
        });
        out
    }

    /// Renders the JSON health snapshot served at `/health`.
    pub fn render_json(&self) -> String {
        self.with(|h| {
            let mut out = String::from("{\n");
            out.push_str(&format!("  \"round\": {},\n", h.round));
            out.push_str(&format!("  \"state\": {},\n", h.state));
            out.push_str(&format!(
                "  \"rounds_committed\": {},\n",
                h.rounds_committed
            ));
            out.push_str("  \"clients\": {\n");
            let n = h.clients.len();
            for (i, (id, slo)) in h.clients.iter().enumerate() {
                let (p50, p99) = if slo.latency_ms.is_empty() {
                    ("null".to_string(), "null".to_string())
                } else {
                    (
                        slo.latency_ms.quantile(0.5).to_string(),
                        slo.latency_ms.quantile(0.99).to_string(),
                    )
                };
                out.push_str(&format!(
                    "    \"{id}\": {{\"rounds\": {}, \"results\": {}, \
                     \"latency_ms_p50\": {p50}, \"latency_ms_p99\": {p99}, \
                     \"heartbeat_misses\": {}, \"reconnects\": {}, \
                     \"straggler_rounds\": {}, \"connected\": {}, \"last_round\": {}}}{}\n",
                    slo.rounds_participated,
                    slo.results,
                    slo.heartbeat_misses,
                    slo.reconnects,
                    slo.straggler_rounds,
                    slo.connected,
                    slo.last_round,
                    if i + 1 < n { "," } else { "" },
                ));
            }
            out.push_str("  }\n}\n");
            out
        })
    }
}

/// Handle to a running health endpoint; dropping it (or calling
/// [`HealthServer::shutdown`]) stops the accept loop.
pub struct HealthServer {
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
/// Propagates the bind failure.
pub fn spawn_health_server(port: u16, registry: HealthRegistry) -> std::io::Result<HealthServer> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let port = listener.local_addr()?.port();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    std::thread::Builder::new()
        .name("photon-health".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        let _ = serve_one(stream, &registry);
                    }
                    // Transient accept failures (fd pressure, an aborted
                    // handshake) must not spin the loop.
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        })
        .map(|_| ())
        .unwrap_or(());
    Ok(HealthServer { stop, port })
}

fn serve_one(mut stream: TcpStream, registry: &HealthRegistry) -> std::io::Result<()> {
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
            registry.render_prometheus(),
        ),
        "/health" => ("200 OK", "application/json", registry.render_json()),
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

    fn seeded_registry() -> HealthRegistry {
        let reg = HealthRegistry::new();
        reg.set_coordinator(3, 2, 2);
        for c in 0..3u32 {
            reg.set_connected(c, true);
            for r in 0..3u64 {
                reg.note_participation(c, r);
                reg.note_result(c, r, 40 + u64::from(c) * 10 + r);
            }
        }
        reg.note_heartbeat_miss(1);
        reg.note_reconnect(1);
        reg.note_straggler(2);
        reg.set_connected(2, false);
        reg
    }

    #[test]
    fn prometheus_output_is_lint_clean() {
        let reg = seeded_registry();
        let text = reg.render_prometheus();
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
        let reg = seeded_registry();
        let json = reg.render_json();
        for c in 0..3 {
            assert!(
                json.contains(&format!("\"{c}\": {{\"rounds\": 3")),
                "{json}"
            );
        }
        assert!(json.contains("\"round\": 3"));
        // Shape check: braces balance.
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
    }

    #[test]
    fn http_endpoint_serves_metrics_health_and_404() {
        let reg = seeded_registry();
        let server = spawn_health_server(0, reg).expect("bind");
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
