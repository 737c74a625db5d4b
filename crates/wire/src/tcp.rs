//! The TCP serving front: a localhost listener that decodes
//! [`Frame::LocalizeReq`]s, feeds them to the in-process micro-batch
//! [`Service`], and encodes the responses — plus the matching client.
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
//! connection only. Likewise a connection that fails before it is
//! accepted (aborted, reset, or an interrupted `accept`) is counted in
//! `wire_errors_total` and the listener keeps accepting. Admission errors (`ServeError`) keep the connection
//! open — a phone that asked for an unknown building can retry with a
//! valid request.

use crate::conn::FrameConn;
use crate::frame::{Frame, WireError, ERR_MALFORMED, ERR_PROTOCOL, ERR_SERVE};
use crate::metrics::wire_metrics;
use safeloc_serve::{LocalizeRequest, LocalizeResponse, Service};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

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
                    // One connection failed, not the listener: count it and
                    // keep accepting.
                    Err(e) if is_per_connection(e.kind()) => {
                        wire_metrics().on_error(&WireError::Io(e.to_string()));
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

/// `true` for an accept error that ends one incoming connection and leaves
/// the listener working: the peer aborted or reset the connection before
/// it was accepted, or a signal interrupted the call. An accept loop
/// retries these; anything else is the listener's own failure.
pub(crate) fn is_per_connection(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::ConnectionAborted | ErrorKind::ConnectionReset | ErrorKind::Interrupted
    )
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

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_dataset::DeviceCatalog;
    use safeloc_serve::{ModelRegistry, ServeConfig};
    use std::time::Duration;

    #[test]
    fn only_errors_of_one_connection_are_retried() {
        for kind in [
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionReset,
            ErrorKind::Interrupted,
        ] {
            assert!(is_per_connection(kind), "{kind:?}");
        }
        for kind in [
            ErrorKind::InvalidInput,
            ErrorKind::PermissionDenied,
            ErrorKind::AddrNotAvailable,
            ErrorKind::OutOfMemory,
            ErrorKind::Other,
        ] {
            assert!(!is_per_connection(kind), "{kind:?}");
        }
    }

    #[test]
    fn shutdown_still_ends_the_accept_loop() {
        let service = Arc::new(Service::start(
            Arc::new(ModelRegistry::new()),
            DeviceCatalog::paper(),
            ServeConfig::default(),
        ));
        let mut server = WireServer::serve(Arc::clone(&service)).unwrap();
        let (done, joined) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = done.send(server.accept_handle.is_none());
        });
        assert_eq!(joined.recv_timeout(Duration::from_secs(10)), Ok(true));
        service.shutdown();
    }
}
