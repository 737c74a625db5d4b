//! The TCP serving front: a localhost listener that decodes
//! [`Frame::LocalizeReq`]s, feeds them to the in-process micro-batch
//! [`Service`], and encodes the responses — plus the matching client and
//! a closed-loop TCP load generator.
//!
//! # Request path
//!
//! Each accepted connection gets its own thread speaking the handshake
//! then a request/response loop. A connection is synchronous (one
//! outstanding request), but batching still happens: concurrent
//! connections land in the same service queue and coalesce into
//! micro-batches exactly as in-process callers do. Predictions are
//! therefore bitwise identical to offline `predict` — the wire moves
//! `f32` words losslessly and the service's batching invariance does the
//! rest (pinned by `tests/tcp_serving.rs`).
//!
//! # Robustness
//!
//! Malformed frames never panic the server: the per-connection thread
//! answers with a typed [`Frame::Error`] (best effort) and closes that
//! connection only. Admission errors (`ServeError`) keep the connection
//! open — a phone that asked for an unknown building can retry with a
//! valid request.

use crate::conn::FrameConn;
use crate::fault::FaultProfile;
use crate::frame::{Frame, WireError, ERR_MALFORMED, ERR_PROTOCOL, ERR_SERVE};
use crate::metrics::wire_metrics;
use safeloc_serve::{LoadOutcome, LoadPlan, LocalizeRequest, LocalizeResponse, Service};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running TCP front over a shared [`Service`].
///
/// Dropping the server stops the accept loop; open connections close as
/// their clients disconnect or the underlying service shuts down.
pub struct WireServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds a loopback listener on an OS-assigned port and starts
    /// serving `service` over it.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the listener cannot bind.
    pub fn serve(service: Arc<Service>) -> Result<Self, WireError> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| WireError::Io(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| WireError::Io(e.to_string()))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept_handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                // relaxed: Acquire pairs with the Release in shutdown();
                // the flag guards nothing but itself, so no total order
                // across other atomics is needed (was SeqCst).
                if flag.load(Ordering::Acquire) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        let service = Arc::clone(&service);
                        std::thread::spawn(move || serve_connection(&service, stream));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(Self {
            addr,
            shutdown,
            accept_handle: Some(accept_handle),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections (idempotent). Existing connections keep
    /// draining until their clients leave.
    pub fn shutdown(&mut self) {
        // relaxed: AcqRel — Release publishes the shutdown to the accept
        // loop's Acquire load, Acquire makes the swap idempotence check
        // see a concurrent shutdown; no cross-variable SeqCst order is
        // involved (was SeqCst).
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connection's lifetime: handshake, then a request/response loop
/// until the client leaves or sends something unspeakable.
fn serve_connection(service: &Service, stream: TcpStream) {
    let mut conn = FrameConn::new(stream);
    if conn.server_handshake().is_err() {
        // The handshake already answered with a typed error frame where
        // possible; nothing to salvage on this connection.
        return;
    }
    loop {
        match conn.recv() {
            Ok(Frame::MetricsRequest) => {
                let text = safeloc_telemetry::render_prometheus(&service.telemetry());
                if conn.send(&Frame::MetricsResponse { text }).is_err() {
                    return;
                }
            }
            Ok(Frame::LocalizeReq {
                id,
                building,
                device,
                rss_dbm,
            }) => {
                let request = LocalizeRequest::new(building as usize, &device, rss_dbm);
                let reply = match service.localize(&request) {
                    Ok(response) => Frame::LocalizeResp {
                        id,
                        label: response.label as u32,
                        position: response.position,
                        device_class: response.device_class,
                        model_version: response.model_version,
                    },
                    // Admission errors are the client's problem, not the
                    // connection's: answer and keep serving.
                    Err(e) => Frame::Error {
                        code: ERR_SERVE,
                        message: e.to_string(),
                    },
                };
                if conn.send(&reply).is_err() {
                    return;
                }
            }
            Ok(Frame::Bye) => {
                let _ = conn.send(&Frame::Bye);
                return;
            }
            Ok(other) => {
                let _ = conn.send(&Frame::Error {
                    code: ERR_PROTOCOL,
                    message: format!("unexpected {} on a serving connection", other.kind()),
                });
                return;
            }
            Err(WireError::Io(_)) => return, // peer hung up
            Err(e) => {
                let _ = conn.send(&Frame::Error {
                    code: ERR_MALFORMED,
                    message: e.to_string(),
                });
                return;
            }
        }
    }
}

/// A client of the TCP serving front: one connection, synchronous
/// localization round trips.
pub struct WireClient {
    conn: FrameConn,
    next_id: u64,
}

impl WireClient {
    /// Connects and handshakes.
    ///
    /// # Errors
    ///
    /// Transport errors, plus [`WireError::SchemaVersion`] if the server
    /// speaks an unsupported wire schema.
    pub fn connect(addr: SocketAddr) -> Result<Self, WireError> {
        let mut conn = FrameConn::connect(addr)?;
        conn.client_handshake()?;
        Ok(Self { conn, next_id: 0 })
    }

    /// Fetches the server's telemetry snapshot in Prometheus text
    /// exposition format. The connection stays usable for further
    /// localization afterwards.
    ///
    /// # Errors
    ///
    /// [`WireError::Peer`] on a server-side error frame,
    /// [`WireError::Protocol`] on any other reply, plus transport errors.
    pub fn scrape_metrics(&mut self) -> Result<String, WireError> {
        self.conn.send(&Frame::MetricsRequest)?;
        match self.conn.recv()? {
            Frame::MetricsResponse { text } => Ok(text),
            Frame::Error { code, message } => Err(WireError::Peer { code, message }),
            other => Err(WireError::Protocol(format!(
                "expected MetricsResponse, got {}",
                other.kind()
            ))),
        }
    }

    /// One localization round trip.
    ///
    /// # Errors
    ///
    /// [`WireError::Peer`] if the server answered with an error frame
    /// (admission failure, shutdown), [`WireError::Protocol`] on an
    /// out-of-order or mis-correlated response, plus transport errors.
    pub fn localize(&mut self, request: &LocalizeRequest) -> Result<LocalizeResponse, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        self.conn.send(&Frame::LocalizeReq {
            id,
            building: request.building as u32,
            device: request.device.clone(),
            rss_dbm: request.rss_dbm.clone(),
        })?;
        match self.conn.recv()? {
            Frame::LocalizeResp {
                id: got,
                label,
                position,
                device_class,
                model_version,
            } => {
                if got != id {
                    return Err(WireError::Protocol(format!(
                        "response correlation mismatch: sent {id}, got {got}"
                    )));
                }
                Ok(LocalizeResponse {
                    label: label as usize,
                    position,
                    device_class,
                    model_version,
                })
            }
            Frame::Error { code, message } => Err(WireError::Peer { code, message }),
            other => Err(WireError::Protocol(format!(
                "expected LocalizeResp, got {}",
                other.kind()
            ))),
        }
    }

    /// Says goodbye and closes the connection (best effort).
    pub fn bye(mut self) {
        let _ = self.conn.send(&Frame::Bye);
        self.conn.shutdown();
    }
}

/// Runs one closed-loop load plan against a TCP front, mirroring
/// `safeloc_serve::run_load` end to end: per-client seeded request mixes
/// (same streams — `plan.seed ^ ((client + 1) << 20)`), one connection
/// per closed-loop client, latencies measured end to end — the injected
/// link latency plus the full wire round trip. `fault` injects a
/// pre-request sleep per draw, modelling link latency; drops and slow
/// readers are round-transport faults and do not apply to serving
/// requests.
///
/// What one closed-loop load client brings home: latencies in ns,
/// responses in arrival order, and its failed-request count.
type ClientLoadResult = Result<(Vec<u64>, Vec<LocalizeResponse>, usize), WireError>;

/// # Panics
///
/// Panics if `pool` is empty or a load client thread panics.
pub fn run_tcp_load(
    addr: SocketAddr,
    pool: &[LocalizeRequest],
    plan: &LoadPlan,
    fault: &FaultProfile,
) -> Result<LoadOutcome, WireError> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    assert!(!pool.is_empty(), "load generation needs a request pool");
    let start = Instant::now();
    let per_client: Vec<ClientLoadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.population)
            .map(|client| {
                let plan = *plan;
                let fault = *fault;
                scope.spawn(move || {
                    let mut wire = WireClient::connect(addr)?;
                    let mut rng = StdRng::seed_from_u64(plan.seed ^ ((client as u64 + 1) << 20));
                    let mut latencies = Vec::with_capacity(plan.requests_per_client);
                    let mut responses = Vec::with_capacity(plan.requests_per_client);
                    let mut failures = 0;
                    for request_idx in 0..plan.requests_per_client {
                        let request = &pool[rng.gen_range(0..pool.len())];
                        let draw = fault.draw(request_idx as u64, client as u64);
                        let sent = Instant::now();
                        if draw.latency_ms > 0.0 {
                            wire_metrics().on_fault("latency");
                            std::thread::sleep(Duration::from_secs_f64(draw.latency_ms / 1e3));
                        }
                        match wire.localize(request) {
                            Ok(response) => {
                                latencies.push(sent.elapsed().as_nanos() as u64);
                                responses.push(response);
                            }
                            Err(WireError::Peer { .. }) => failures += 1,
                            Err(e) => return Err(e),
                        }
                    }
                    wire.bye();
                    Ok((latencies, responses, failures))
                })
            })
            .collect();
        handles
            .into_iter()
            // panic-ok: the client closure above returns transport
            // failures as WireError instead of panicking; a panic here is
            // a harness bug and must surface, not skew the measurement.
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    let mut latencies_ns = Vec::with_capacity(per_client.len());
    let mut responses = Vec::with_capacity(per_client.len());
    let mut failures = 0;
    for result in per_client {
        let (lat, resp, fail) = result?;
        latencies_ns.push(lat);
        responses.push(resp);
        failures += fail;
    }
    Ok(LoadOutcome {
        plan: *plan,
        wall_ns,
        latencies_ns,
        responses,
        failures,
    })
}
