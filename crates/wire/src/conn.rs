//! Framed connections: a [`FrameConn`] wraps a [`TcpStream`] and speaks
//! whole [`Frame`]s, mapping every socket failure into a typed
//! [`WireError`].
//!
//! Read deadlines come from [`FrameConn::set_read_timeout`]; an expired
//! deadline surfaces as [`WireError::Timeout`]. After a timeout the stream
//! may sit mid-frame, so callers treat a timed-out connection as dead —
//! exactly what the round server does to a straggler.

use crate::frame::{Frame, WireError, ERR_SCHEMA, MAX_FRAME_LEN, WIRE_SCHEMA};
use crate::metrics::wire_metrics;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Maps a socket error into the wire error taxonomy: expired read
/// deadlines become [`WireError::Timeout`], everything else is I/O.
fn map_io(e: &std::io::Error) -> WireError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => WireError::Timeout,
        _ => WireError::Io(e.to_string()),
    }
}

/// Capacity a connection's frame buffers keep between frames. Localize
/// traffic (~1 KiB frames) reuses them without allocating; a larger frame
/// grows a buffer for its own duration only, so one 16 MiB frame cannot
/// pin 16 MiB on every connection thread that ever saw one.
const RETAINED_BUF_CAP: usize = 64 * 1024;

/// Empties a frame buffer for reuse, returning what exceeds
/// [`RETAINED_BUF_CAP`] to the allocator.
fn recycle(buf: &mut Vec<u8>) {
    buf.clear();
    buf.shrink_to(RETAINED_BUF_CAP);
}

/// A TCP stream that sends and receives whole frames.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    /// Body of the frame being received (empty between frames).
    read_buf: Vec<u8>,
    /// Wire bytes of the frame being sent (empty between frames).
    write_buf: Vec<u8>,
}

impl FrameConn {
    /// Wraps an accepted or connected stream. Disables Nagle so small
    /// control frames (invitations, localize requests) are not delayed
    /// behind a 40 ms coalescing window.
    pub fn new(stream: TcpStream) -> Self {
        stream.set_nodelay(true).ok();
        Self {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
        }
    }

    /// Connects to `addr` (no handshake — see [`FrameConn::client_handshake`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr).map_err(|e| map_io(&e))?;
        Ok(Self::new(stream))
    }

    /// The peer's socket address, if the stream still knows it.
    pub fn peer_addr(&self) -> Option<SocketAddr> {
        self.stream.peer_addr().ok()
    }

    /// Sets (or clears) the read deadline for subsequent [`FrameConn::recv`]
    /// calls.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the socket rejects the option.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), WireError> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| map_io(&e))
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on any write failure.
    pub fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        frame.encode_into(&mut self.write_buf);
        wire_metrics().on_frame("out", frame.kind(), self.write_buf.len());
        let sent = self.stream.write_all(&self.write_buf).map_err(|e| {
            let err = map_io(&e);
            wire_metrics().on_error(&err);
            err
        });
        recycle(&mut self.write_buf);
        sent
    }

    /// Sends raw bytes verbatim — for tests that need to put deliberately
    /// malformed frames on the wire.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on any write failure.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.stream.write_all(bytes).map_err(|e| map_io(&e))
    }

    /// Sends one frame in `chunk` -byte slices with `delay` between them —
    /// the slow-reader fault: the peer sees the length prefix, then waits
    /// on a trickling payload until its deadline expires.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on any write failure.
    pub fn send_slowly(
        &mut self,
        frame: &Frame,
        chunk: usize,
        delay: Duration,
    ) -> Result<(), WireError> {
        let bytes = frame.encode();
        wire_metrics().on_frame("out", frame.kind(), bytes.len());
        for part in bytes.chunks(chunk.max(1)) {
            self.stream.write_all(part).map_err(|e| map_io(&e))?;
            self.stream.flush().map_err(|e| map_io(&e))?;
            std::thread::sleep(delay);
        }
        Ok(())
    }

    /// Receives one frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] if a read deadline expires,
    /// [`WireError::Oversized`] on a hostile length prefix, any decode
    /// error from [`Frame::decode_body`], [`WireError::Io`] otherwise
    /// (including EOF).
    pub fn recv(&mut self) -> Result<Frame, WireError> {
        self.recv_inner()
            .inspect_err(|err| wire_metrics().on_error(err))
    }

    fn recv_inner(&mut self) -> Result<Frame, WireError> {
        let mut prefix = [0u8; 4];
        self.stream
            .read_exact(&mut prefix)
            .map_err(|e| map_io(&e))?;
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        self.read_buf.resize(len, 0);
        let decoded = self
            .stream
            .read_exact(&mut self.read_buf)
            .map_err(|e| map_io(&e))
            .and_then(|()| Frame::decode_body(&self.read_buf));
        recycle(&mut self.read_buf);
        let frame = decoded?;
        wire_metrics().on_frame("in", frame.kind(), 4 + len);
        Ok(frame)
    }

    /// Half-closes the stream in both directions (best effort).
    pub fn shutdown(&self) {
        self.stream.shutdown(Shutdown::Both).ok();
    }

    /// Opens the connection from the client side: sends `Hello` and
    /// expects a `HelloAck` carrying exactly [`WIRE_SCHEMA`].
    ///
    /// # Errors
    ///
    /// [`WireError::SchemaVersion`] if the server acked another schema,
    /// [`WireError::Peer`] if it answered with an error frame,
    /// [`WireError::Protocol`] on any other reply, plus transport errors.
    pub fn client_handshake(&mut self) -> Result<(), WireError> {
        self.send(&Frame::Hello {
            schema: WIRE_SCHEMA,
        })?;
        match self.recv()? {
            Frame::HelloAck {
                schema: WIRE_SCHEMA,
            } => Ok(()),
            Frame::HelloAck { schema } => Err(WireError::SchemaVersion {
                ours: WIRE_SCHEMA,
                theirs: schema,
            }),
            Frame::Error { code, message } => Err(WireError::Peer { code, message }),
            other => Err(WireError::Protocol(format!(
                "expected HelloAck, got {}",
                other.kind()
            ))),
        }
    }

    /// Answers the client-side handshake from the server side: expects a
    /// `Hello` carrying exactly [`WIRE_SCHEMA`] and acks it. Any other
    /// client schema gets a typed error frame (best effort).
    ///
    /// # Errors
    ///
    /// [`WireError::SchemaVersion`] on any other client schema,
    /// [`WireError::Protocol`] if the opener was a different frame, plus
    /// decode/transport errors from the opener itself.
    pub fn server_handshake(&mut self) -> Result<(), WireError> {
        match self.recv()? {
            Frame::Hello {
                schema: WIRE_SCHEMA,
            } => self.send(&Frame::HelloAck {
                schema: WIRE_SCHEMA,
            }),
            Frame::Hello { schema } => {
                let _ = self.send(&Frame::Error {
                    code: ERR_SCHEMA,
                    message: format!(
                        "server speaks wire schema v{WIRE_SCHEMA}, client sent v{schema}"
                    ),
                });
                Err(WireError::SchemaVersion {
                    ours: WIRE_SCHEMA,
                    theirs: schema,
                })
            }
            other => Err(WireError::Protocol(format!(
                "expected Hello, got {}",
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (FrameConn, FrameConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || FrameConn::connect(addr).unwrap());
        let (server, _) = listener.accept().unwrap();
        (FrameConn::new(server), client.join().unwrap())
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (mut server, mut client) = pair();
        client.send(&Frame::Join { client_index: 7 }).unwrap();
        assert_eq!(server.recv().unwrap(), Frame::Join { client_index: 7 });
        server.send(&Frame::Bye).unwrap();
        assert_eq!(client.recv().unwrap(), Frame::Bye);
    }

    #[test]
    fn handshake_agrees_on_schema() {
        let (mut server, mut client) = pair();
        let s = std::thread::spawn(move || {
            server.server_handshake().unwrap();
            server
        });
        client.client_handshake().unwrap();
        s.join().unwrap();
    }

    #[test]
    fn schema_mismatch_is_typed_on_both_ends() {
        for theirs in [WIRE_SCHEMA - 1, WIRE_SCHEMA + 1] {
            let (mut server, mut client) = pair();
            let s = std::thread::spawn(move || server.server_handshake());
            client.send(&Frame::Hello { schema: theirs }).unwrap();
            assert_eq!(
                s.join().unwrap(),
                Err(WireError::SchemaVersion {
                    ours: WIRE_SCHEMA,
                    theirs
                })
            );
            match client.recv().unwrap() {
                Frame::Error { code, .. } => assert_eq!(code, ERR_SCHEMA),
                other => panic!("expected error frame, got {}", other.kind()),
            }
        }
    }

    #[test]
    fn read_deadline_surfaces_as_timeout() {
        let (server, mut client) = pair();
        client
            .set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(client.recv(), Err(WireError::Timeout));
        drop(server);
    }

    #[test]
    fn frame_buffers_are_reused_and_do_not_retain_a_large_frame() {
        let (mut server, mut client) = pair();
        let small = Frame::LocalizeReq {
            id: 1,
            building: 1,
            device: "S7".to_string(),
            rss_dbm: vec![-60.0; 203],
        };
        client.send(&small).unwrap();
        assert_eq!(server.recv().unwrap(), small);
        let (read_cap, write_cap) = (server.read_buf.capacity(), client.write_buf.capacity());
        assert!(read_cap >= 800 && write_cap >= 800, "buffers are kept");
        client.send(&small).unwrap();
        assert_eq!(server.recv().unwrap(), small);
        assert_eq!(
            (server.read_buf.capacity(), client.write_buf.capacity()),
            (read_cap, write_cap),
            "a same-sized frame reuses them as they are"
        );

        let big = Frame::MetricsResponse {
            text: "x".repeat(1 << 20),
        };
        let sent = big.clone();
        let t = std::thread::spawn(move || {
            client.send(&sent).unwrap();
            client
        });
        assert_eq!(server.recv().unwrap(), big);
        let client = t.join().unwrap();
        assert!(server.read_buf.capacity() <= RETAINED_BUF_CAP);
        assert!(client.write_buf.capacity() <= RETAINED_BUF_CAP);
        assert!(server.read_buf.is_empty() && client.write_buf.is_empty());
    }

    #[test]
    fn slow_send_still_delivers_whole_frames() {
        let (mut server, mut client) = pair();
        let frame = Frame::Error {
            code: 5,
            message: "slowly but surely".to_string(),
        };
        let sent = frame.clone();
        let t = std::thread::spawn(move || {
            client
                .send_slowly(&sent, 3, Duration::from_millis(1))
                .unwrap();
        });
        assert_eq!(server.recv().unwrap(), frame);
        t.join().unwrap();
    }
}
