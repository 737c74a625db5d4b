//! Cross-process federated rounds: a [`Framework`] whose clients live in
//! other OS processes and speak the wire protocol.
//!
//! Both halves live here. On the server, a [`RemoteFleet`] owns one
//! framed connection per registered client process (each opens with the
//! handshake and a [`Frame::Join`] carrying its fleet index), and a
//! [`RemoteFlServer`] implements [`Framework`], so a stock
//! [`FlSession`](safeloc_fl::FlSession) drives remote rounds exactly like
//! in-process ones: per round it sends every active cohort member the GM
//! broadcast (so all clients train concurrently), then collects one
//! update per member under a server-side deadline. On
//! the client, [`run_remote_client`] is the whole loop a fleet member
//! runs — the `fl_client` bin and the examples' child processes are
//! argument parsing around it.
//!
//! # Deadline semantics
//!
//! The deadline bounds the whole collection phase: every connection read
//! runs under the *remaining* time to one shared deadline instant, so a
//! hung or trickling client can delay aggregation by at most the
//! configured deadline — never stall it. Once the deadline is spent, each
//! remaining connection still gets a short grace read ([`DRAIN_GRACE`])
//! so updates that already crossed the wire while an earlier client hung
//! are drained, not discarded. A timed-out client is recorded as
//! [`Availability::Straggles`] and its connection is closed (its bytes
//! may sit mid-frame); a disconnected or misbehaving one as
//! [`Availability::DropsOut`]. The round then aggregates whatever
//! arrived, exactly like an in-process plan with those availabilities.
//!
//! # Bitwise parity
//!
//! With fault injection off, a wire round reproduces the in-process GM
//! trajectory bit for bit, largely by construction: both sides of the
//! round are the in-process code — the server is a
//! [`SequentialFlServer`] round ([`safeloc_fl::ServerRound`]) with
//! sockets for a collector, the client runs
//! [`Client::sequential_update`] — updates carry full `f32` parameters
//! (lossless on the wire), the broadcast carries the round salt so remote
//! clients derive the identical training seed, and collection preserves
//! fleet order. Pinned end to end by `tests/loopback_round.rs`. Clients that
//! opted into delta compression upload [`Frame::UpdateDelta`] instead;
//! the server re-materializes `GM + decode(repr)` — bitwise what the
//! compressing client carries forward — and parity then holds against an
//! in-process fleet whose clients carry the same compressor spec.

use crate::conn::FrameConn;
use crate::fault::FaultProfile;
use crate::frame::{DeltaUpdateFrame, Frame, UpdateFrame, WireError};
use safeloc_dataset::FingerprintSet;
use safeloc_fl::{
    Availability, Client, ClientUpdate, DefensePipeline, DeltaRepr, Framework, LocalTrainConfig,
    RoundPlan, RoundReport, SequentialFlServer, ServerConfig,
};
use safeloc_nn::{Activation, HasParams, Matrix, NamedParams, Sequential};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Post-deadline grace read per remaining connection: long enough to
/// drain an update that is already buffered locally, far too short for a
/// straggler to sneak real work through.
pub const DRAIN_GRACE: Duration = Duration::from_millis(50);

/// The server's view of a fleet of client processes: one slot per fleet
/// index, filled as clients join.
pub struct RemoteFleet {
    listener: TcpListener,
    addr: SocketAddr,
    conns: Vec<Option<FrameConn>>,
}

impl RemoteFleet {
    /// Binds a loopback listener with one slot per fleet member.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the listener cannot bind.
    pub fn bind(n_clients: usize) -> Result<Self, WireError> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| WireError::Io(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| WireError::Io(e.to_string()))?;
        Ok(Self {
            listener,
            addr,
            conns: (0..n_clients).map(|_| None).collect(),
        })
    }

    /// The address client processes connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Fleet size (slots, not live connections).
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// `true` for a zero-slot fleet.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Number of currently connected clients.
    pub fn connected(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    /// Accepts joins until every slot is filled or `timeout` elapses.
    /// A connection that fails its handshake or join is discarded; the
    /// slot stays open for a retry. The handshake and the `Join` are read
    /// under the time left, so a peer that connects and stays silent
    /// cannot hold setup past `timeout`.
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] if slots remain empty at the deadline,
    /// [`WireError::Io`] on listener failures.
    pub fn accept_all(&mut self, timeout: Duration) -> Result<(), WireError> {
        let deadline = Instant::now() + timeout;
        self.listener
            .set_nonblocking(true)
            .map_err(|e| WireError::Io(e.to_string()))?;
        while self.connected() < self.conns.len() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| WireError::Io(e.to_string()))?;
                    let mut conn = FrameConn::new(stream);
                    if !read_until(&conn, deadline)
                        || conn.server_handshake().is_err()
                        || !read_until(&conn, deadline)
                    {
                        continue;
                    }
                    match conn.recv() {
                        Ok(Frame::Join { client_index }) => {
                            let i = client_index as usize;
                            if i < self.conns.len()
                                && self.conns[i].is_none()
                                && conn.set_read_timeout(None).is_ok()
                            {
                                self.conns[i] = Some(conn);
                            }
                        }
                        _ => continue,
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(WireError::Timeout);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(WireError::Io(e.to_string())),
            }
        }
        Ok(())
    }

    /// The live connection for fleet index `i`, if any.
    fn conn_mut(&mut self, i: usize) -> Option<&mut FrameConn> {
        self.conns.get_mut(i).and_then(|c| c.as_mut())
    }

    /// Closes and forgets the connection for fleet index `i`.
    fn kill(&mut self, i: usize) {
        if let Some(Some(conn)) = self.conns.get(i) {
            conn.shutdown();
        }
        if let Some(slot) = self.conns.get_mut(i) {
            *slot = None;
        }
    }

    /// Says goodbye to every live client (best effort).
    pub fn broadcast_bye(&mut self) {
        for slot in &mut self.conns {
            if let Some(conn) = slot {
                let _ = conn.send(&Frame::Bye);
                conn.shutdown();
            }
            *slot = None;
        }
    }
}

/// Sets `conn`'s read deadline to the time left before `deadline`;
/// `false` once none is left (a zero timeout is not a socket option).
fn read_until(conn: &FrameConn, deadline: Instant) -> bool {
    let left = deadline.saturating_duration_since(Instant::now());
    !left.is_zero() && conn.set_read_timeout(Some(left)).is_ok()
}

impl Drop for RemoteFleet {
    fn drop(&mut self) {
        self.broadcast_bye();
    }
}

/// A [`Framework`] running rounds against client *processes* over the
/// wire protocol. It is a [`SequentialFlServer`] named
/// `"RemoteFL"` whose round reaches its clients through sockets instead
/// of an in-process fan-out — same MLP, same config, same pretraining and
/// same server half of the round by construction, so an in-process twin
/// built from the same arguments starts from, and stays on, a
/// bitwise-identical GM.
#[derive(Clone)]
pub struct RemoteFlServer {
    server: SequentialFlServer,
    fleet: Arc<Mutex<RemoteFleet>>,
    deadline: Duration,
}

impl RemoteFlServer {
    /// Creates a remote round server over a connected fleet.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2` (same contract as the in-process
    /// server).
    pub fn new(
        dims: &[usize],
        defense: DefensePipeline,
        cfg: ServerConfig,
        fleet: Arc<Mutex<RemoteFleet>>,
        deadline: Duration,
    ) -> Self {
        Self {
            server: SequentialFlServer::named("RemoteFL", dims, defense, cfg),
            fleet,
            deadline,
        }
    }

    /// Rounds run so far.
    pub fn rounds_run(&self) -> usize {
        self.server.rounds_run()
    }
}

impl Framework for RemoteFlServer {
    fn name(&self) -> &'static str {
        self.server.name()
    }

    fn pretrain(&mut self, train: &FingerprintSet) {
        self.server.pretrain(train);
    }

    fn run_round(&mut self, clients: &mut [Client], plan: &RoundPlan) -> RoundReport {
        let round = self.server.rounds_run();
        let (fleet, deadline) = (&self.fleet, self.deadline);
        self.server
            .run_round_with(clients, |_, clients, gm_params, round_salt| {
                collect_remote(fleet, deadline, round, round_salt, clients, plan, gm_params)
            })
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.server.predict(x)
    }

    fn num_params(&self) -> usize {
        self.server.num_params()
    }

    fn global_params(&self) -> NamedParams {
        self.server.global_params()
    }

    fn clone_box(&self) -> Box<dyn Framework> {
        Box::new(self.clone())
    }

    fn set_defense(&mut self, defense: DefensePipeline) {
        self.server.set_defense(defense);
    }
}

/// The remote round's collector: broadcast the GM to every participating
/// cohort member, then collect updates in fleet order under
/// one shared deadline. Returns the delivered updates and the plan as
/// transport reality left it (see the module docs).
fn collect_remote(
    fleet: &Mutex<RemoteFleet>,
    deadline: Duration,
    round: usize,
    round_salt: u64,
    clients: &mut [Client],
    plan: &RoundPlan,
    gm_params: &NamedParams,
) -> (Vec<ClientUpdate>, RoundPlan) {
    // Plan slots index `clients`; connections, broadcasts and updates
    // are keyed by the fleet identity each process joined under
    // (`Client::id`). The two differ whenever the session lends a cohort
    // slice (slots 0..k, ids arbitrary).
    let id_of = |slot: usize| clients[slot].id;
    // What actually happened to each cohort member, seeded from the plan
    // (out-of-range slots ignored, as in-process) and downgraded by
    // transport reality.
    let mut effective: Vec<(usize, Availability)> = plan
        .cohort()
        .iter()
        .copied()
        .filter(|&(slot, _)| slot < clients.len())
        .collect();

    // Poison recovery: rounds run one at a time; a previous round that
    // panicked left connections in whatever state the transport did,
    // which the per-member error handling below already absorbs.
    let mut fleet = fleet.lock().unwrap_or_else(PoisonError::into_inner);

    // Phase 1 — broadcast, so every remote client trains concurrently.
    let broadcast = Frame::GmBroadcast {
        round: round as u32,
        round_salt,
        params: gm_params.clone(),
    };
    for entry in effective.iter_mut() {
        let (slot, availability) = *entry;
        if availability != Availability::Participates {
            continue;
        }
        let i = id_of(slot);
        let sent = fleet
            .conn_mut(i)
            .is_some_and(|conn| conn.send(&broadcast).is_ok());
        if !sent {
            crate::metrics::wire_metrics().on_dropout();
            fleet.kill(i);
            entry.1 = Availability::DropsOut;
        }
    }

    // Phase 2 — collect under one shared deadline, in fleet order (the
    // order in-process collection returns updates in).
    let deadline_at = Instant::now() + deadline;
    let mut updates: Vec<ClientUpdate> = Vec::new();
    for entry in effective.iter_mut() {
        let (slot, availability) = *entry;
        if availability != Availability::Participates {
            continue;
        }
        let i = id_of(slot);
        // A hung earlier client may have consumed the whole deadline, but
        // updates that already crossed the wire are sitting in this
        // socket's buffer — a short grace read drains them rather than
        // discarding delivered work. Only clients that still have not
        // produced a frame become stragglers.
        let remaining = deadline_at
            .saturating_duration_since(Instant::now())
            .max(DRAIN_GRACE);
        // panic-ok: `effective` is seeded from the fleet's own cohort
        // plan, so every participating index has a connection by
        // construction.
        let conn = fleet.conn_mut(i).expect("participating member has a conn");
        conn.set_read_timeout(Some(remaining)).ok();
        // `update_from_frame` admits only updates of the GM's
        // architecture — dense uploads are checked against it, compressed
        // ones are re-materialized from it — so the defense's outcome
        // always loads back into the GM.
        let received = conn
            .recv()
            .map(|frame| update_from_frame(frame, i, round, gm_params));
        match received {
            Ok(Some(update)) => {
                conn.set_read_timeout(None).ok();
                updates.push(update);
            }
            Err(WireError::Timeout) => {
                // Hung or trickling past the deadline: a straggler. The
                // stream may sit mid-frame, so the connection is unusable
                // from here on.
                crate::metrics::wire_metrics().on_straggler();
                fleet.kill(i);
                entry.1 = Availability::Straggles;
            }
            Ok(None) | Err(_) => {
                // Disconnected, or answered with something that is not an
                // update for this client, round and model.
                crate::metrics::wire_metrics().on_dropout();
                fleet.kill(i);
                entry.1 = Availability::DropsOut;
            }
        }
    }
    (updates, RoundPlan::new(effective))
}

/// One fleet member's whole side of the round protocol — the only client
/// loop there is (the `fl_client` bin and the examples' children call it).
///
/// Joins `addr` as `me.id`, then answers every [`Frame::GmBroadcast`]
/// with [`Client::sequential_update`] on an MLP of widths `dims` — the
/// in-process engine's own client step, with the broadcast's round salt —
/// framed by `frame_from_update`. Faults drawn from `fault` per
/// `(round, me.id)` hit the real socket: a drop closes it for good, a
/// latency sleeps before the upload (one no [`Duration`] holds is an
/// upload that never arrives, so the server's deadline benches it), a
/// slow reader trickles the upload past the deadline.
///
/// # Errors
///
/// `Ok(())` ends the session in order: [`Frame::Bye`], the server hanging
/// up, or a drawn drop. [`WireError::Protocol`] for a frame the server
/// never sends a client or a broadcast that does not fit `dims`; any
/// other transport [`WireError`].
pub fn run_remote_client(
    addr: impl ToSocketAddrs,
    me: &mut Client,
    dims: &[usize],
    local: &LocalTrainConfig,
    fault: &FaultProfile,
    building: u32,
) -> Result<(), WireError> {
    let mut conn = FrameConn::connect(addr)?;
    conn.client_handshake()?;
    conn.send(&Frame::Join {
        client_index: me.id as u32,
    })?;
    loop {
        let (round, round_salt, params) = match conn.recv() {
            Ok(Frame::GmBroadcast {
                round,
                round_salt,
                params,
            }) => (round, round_salt, params),
            // The server closing the fleet is an orderly end of session.
            Ok(Frame::Bye) | Err(WireError::Io(_)) => return Ok(()),
            Ok(other) => {
                return Err(WireError::Protocol(format!(
                    "unexpected {} from the round server",
                    other.kind()
                )))
            }
            Err(e) => return Err(e),
        };
        let draw = fault.draw(u64::from(round), me.id as u64);
        if draw.drop {
            crate::metrics::wire_metrics().on_fault("drop");
            conn.shutdown();
            return Ok(());
        }
        let mut gm = Sequential::mlp(dims, Activation::Relu, 0);
        gm.load(&params).map_err(|e| {
            WireError::Protocol(format!("GM broadcast does not fit the client model: {e}"))
        })?;
        let update = me.sequential_update(&gm, &params, local, round_salt);
        let frame = frame_from_update(update, round, building, &me.device_name);
        if draw.latency_ms > 0.0 {
            crate::metrics::wire_metrics().on_fault("latency");
            match Duration::try_from_secs_f64(draw.latency_ms / 1e3) {
                Ok(latency) => std::thread::sleep(latency),
                Err(_) => continue,
            }
        }
        if draw.slow_reader {
            crate::metrics::wire_metrics().on_fault("slow_reader");
            // Trickle until the server's deadline gives up on us; the
            // resulting write error just ends the trickle.
            let _ = conn.send_slowly(&frame, 64, Duration::from_millis(25));
        } else {
            conn.send(&frame)?;
        }
    }
}

/// The inverse of [`update_from_frame`]: the one place a [`ClientUpdate`]
/// becomes a frame — a full-model [`Frame::Update`] when dense, its repr
/// in a [`Frame::UpdateDelta`] when compressed.
fn frame_from_update(update: ClientUpdate, round: u32, building: u32, device_class: &str) -> Frame {
    let client_id = update.client_id as u64;
    let num_samples = update.num_samples as u64;
    let device_class = device_class.to_string();
    match update.repr {
        DeltaRepr::Dense => Frame::Update(UpdateFrame {
            client_id,
            round,
            building,
            device_class,
            num_samples,
            params: update.params,
        }),
        repr => Frame::UpdateDelta(DeltaUpdateFrame {
            client_id,
            round,
            building,
            device_class,
            num_samples,
            repr,
        }),
    }
}

/// What a client's answer is worth as an update of `gm` — the one place a
/// frame becomes a [`ClientUpdate`], so the one place outside bytes are
/// checked before the defense reads them. `None` is a protocol violation
/// (never repaired): any other frame; an update credited to another client
/// or round; a dense upload whose tensors are not the GM's, name for name
/// and shape for shape (the defense's delta pass asserts on those); a
/// compressed upload whose repr does not decode for this model (`Dense`,
/// which carries no coefficients, or a malformed payload — see
/// `DeltaRepr::decode`). A compressed update is re-materialized as exactly
/// what crossed the wire, `GM + decode(repr)` — the parameters the
/// compressing client carries forward locally.
fn update_from_frame(
    frame: Frame,
    client: usize,
    round: usize,
    gm: &NamedParams,
) -> Option<ClientUpdate> {
    let credited = |id: u64, r: u32| id == client as u64 && r == round as u32;
    match frame {
        Frame::Update(u) if credited(u.client_id, u.round) && u.params.same_arch(gm) => {
            Some(ClientUpdate::new(client, u.params, u.num_samples as usize))
        }
        Frame::UpdateDelta(u) if credited(u.client_id, u.round) => {
            let mut params = gm.clone();
            params.add_flat(&u.repr.decode(gm.num_params())?);
            Some(ClientUpdate::with_repr(
                client,
                params,
                u.num_samples as usize,
                u.repr,
            ))
        }
        _ => None,
    }
}
