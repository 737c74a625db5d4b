//! Cross-process federated rounds: a [`Framework`] whose clients live in
//! other OS processes and speak the wire protocol.
//!
//! The server side is two pieces. A [`RemoteFleet`] owns one framed
//! connection per registered client process (each opens with the
//! handshake and a [`Frame::Join`] carrying its fleet index). A
//! [`RemoteFlServer`] implements [`Framework`], so a stock
//! [`FlSession`](safeloc_fl::FlSession) drives remote rounds exactly like
//! in-process ones: per round it sends every active cohort member an
//! invitation, the plan and the GM broadcast (so all clients train
//! concurrently), then collects updates under a server-side deadline.
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
//! trajectory bit for bit: updates carry full `f32` parameters (lossless
//! on the wire), the broadcast carries the round salt so remote clients
//! derive the identical training seed, and collection preserves fleet
//! order. Pinned end to end by `tests/loopback_round.rs`. Clients that
//! opted into delta compression upload [`Frame::UpdateDelta`] instead;
//! the server re-materializes `GM + decode(repr)` — bitwise what the
//! compressing client carries forward — and parity then holds against an
//! in-process fleet whose clients carry the same compressor spec.

use crate::conn::FrameConn;
use crate::frame::{Frame, WireAvailability, WireError};
use safeloc_dataset::FingerprintSet;
use safeloc_fl::report::{RoundSplit, RoundTimer};
use safeloc_fl::{
    Aggregator, Availability, Client, ClientUpdate, Framework, RoundPlan, RoundReport, ServerConfig,
};
use safeloc_nn::{Activation, Adam, HasParams, Matrix, NamedParams, Sequential, TrainConfig};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Post-deadline grace read per remaining connection: long enough to
/// drain an update that is already buffered locally, far too short for a
/// straggler to sneak real work through.
pub const DRAIN_GRACE: Duration = Duration::from_millis(50);

/// Converts the in-process availability to its wire form.
fn wire_availability(a: Availability) -> WireAvailability {
    match a {
        Availability::Participates => WireAvailability::Participates,
        Availability::DropsOut => WireAvailability::DropsOut,
        Availability::Straggles => WireAvailability::Straggles,
    }
}

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
    /// slot stays open for a retry.
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
                    if conn.server_handshake().is_err() {
                        continue;
                    }
                    match conn.recv() {
                        Ok(Frame::Join { client_index }) => {
                            let i = client_index as usize;
                            if i < self.conns.len() && self.conns[i].is_none() {
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

impl Drop for RemoteFleet {
    fn drop(&mut self) {
        self.broadcast_bye();
    }
}

/// A [`Framework`] running rounds against client *processes* over the
/// wire protocol. Construction mirrors
/// [`SequentialFlServer::new`](safeloc_fl::SequentialFlServer::new) —
/// same MLP, same config, same pretraining code path — so an in-process
/// twin built from the same arguments starts from a bitwise-identical GM.
#[derive(Clone)]
pub struct RemoteFlServer {
    name: &'static str,
    gm: Sequential,
    aggregator: Box<dyn Aggregator>,
    cfg: ServerConfig,
    fleet: Arc<Mutex<RemoteFleet>>,
    deadline: Duration,
    rounds_run: usize,
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
        aggregator: Box<dyn Aggregator>,
        cfg: ServerConfig,
        fleet: Arc<Mutex<RemoteFleet>>,
        deadline: Duration,
    ) -> Self {
        Self {
            name: "RemoteFL",
            gm: Sequential::mlp(dims, Activation::Relu, cfg.seed),
            aggregator,
            cfg,
            fleet,
            deadline,
            rounds_run: 0,
        }
    }

    /// The current global model.
    pub fn global_model(&self) -> &Sequential {
        &self.gm
    }

    /// Rounds run so far.
    pub fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// The server-side round deadline.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }
}

impl Framework for RemoteFlServer {
    fn name(&self) -> &'static str {
        self.name
    }

    fn pretrain(&mut self, train: &FingerprintSet) {
        // Byte-for-byte the in-process pretraining path.
        let mut opt = Adam::new(self.cfg.pretrain_lr);
        self.gm.fit_classifier(
            &train.x,
            &train.labels,
            &mut opt,
            &TrainConfig::new(self.cfg.pretrain_epochs, self.cfg.batch_size, self.cfg.seed),
        );
    }

    fn run_round(&mut self, clients: &mut [Client], plan: &RoundPlan) -> RoundReport {
        let timer = RoundTimer::start();
        let round = self.rounds_run;
        let round_salt = (round as u64 + 1) << 16;
        let deadline_ms = self.deadline.as_millis().min(u32::MAX as u128) as u32;
        let gm_params = self.gm.snapshot();
        // Plan slots index `clients`; connections, invitations and updates
        // are keyed by the fleet identity each process joined under
        // (`Client::id`). The two differ whenever the session lends a
        // cohort slice (slots 0..k, ids arbitrary).
        let id_of = |slot: usize| clients[slot].id;
        // What actually happened to each cohort member, seeded from the
        // plan (out-of-range slots ignored, as in-process) and downgraded
        // by transport reality.
        let mut effective: Vec<(usize, Availability)> = plan
            .cohort()
            .iter()
            .copied()
            .filter(|&(slot, _)| slot < clients.len())
            .collect();
        let wire_cohort: Vec<(u32, WireAvailability)> = effective
            .iter()
            .map(|&(slot, a)| (id_of(slot) as u32, wire_availability(a)))
            .collect();

        // Poison recovery: rounds run one at a time; a previous round
        // that panicked left connections in whatever state the transport
        // did, which the per-member error handling below already absorbs.
        let mut fleet = self.fleet.lock().unwrap_or_else(PoisonError::into_inner);

        // Phase 1 — broadcast, so every remote client trains concurrently.
        for entry in effective.iter_mut() {
            let (slot, availability) = *entry;
            if availability != Availability::Participates {
                continue;
            }
            let i = id_of(slot);
            let sent = match fleet.conn_mut(i) {
                Some(conn) => conn
                    .send(&Frame::CohortInvite {
                        round: round as u32,
                        client_index: i as u32,
                        deadline_ms,
                    })
                    .and_then(|()| {
                        conn.send(&Frame::RoundPlan {
                            round: round as u32,
                            cohort: wire_cohort.clone(),
                        })
                    })
                    .and_then(|()| {
                        conn.send(&Frame::GmBroadcast {
                            round: round as u32,
                            round_salt,
                            params: gm_params.clone(),
                        })
                    })
                    .is_ok(),
                None => false,
            };
            if !sent {
                crate::metrics::wire_metrics().on_dropout();
                fleet.kill(i);
                entry.1 = Availability::DropsOut;
            }
        }

        // Phase 2 — collect under one shared deadline, in fleet order (the
        // order in-process collection returns updates in).
        let deadline_at = Instant::now() + self.deadline;
        let mut updates: Vec<ClientUpdate> = Vec::new();
        for entry in effective.iter_mut() {
            let (slot, availability) = *entry;
            if availability != Availability::Participates {
                continue;
            }
            let i = id_of(slot);
            // A hung earlier client may have consumed the whole deadline,
            // but updates that already crossed the wire are sitting in
            // this socket's buffer — a short grace read drains them rather
            // than discarding delivered work. Only clients that still have
            // not produced a frame become stragglers.
            let remaining = deadline_at
                .saturating_duration_since(Instant::now())
                .max(DRAIN_GRACE);
            // panic-ok: `effective` is seeded from the fleet's own cohort
            // plan, so every participating index has a connection by
            // construction.
            let conn = fleet.conn_mut(i).expect("participating member has a conn");
            conn.set_read_timeout(Some(remaining)).ok();
            let received = conn
                .recv()
                .map(|frame| update_from_frame(frame, i, round, &gm_params));
            match received {
                Ok(Some(update)) => {
                    conn.set_read_timeout(None).ok();
                    updates.push(update);
                }
                Err(WireError::Timeout) => {
                    // Hung or trickling past the deadline: a straggler.
                    // The stream may sit mid-frame, so the connection is
                    // unusable from here on.
                    crate::metrics::wire_metrics().on_straggler();
                    fleet.kill(i);
                    entry.1 = Availability::Straggles;
                }
                Ok(None) | Err(_) => {
                    // Disconnected, or answered with something that is not
                    // an update for this client, round and model.
                    crate::metrics::wire_metrics().on_dropout();
                    fleet.kill(i);
                    entry.1 = Availability::DropsOut;
                }
            }
        }
        drop(fleet);

        let effective_plan = RoundPlan::new(effective);
        let timer: RoundSplit = timer.split();
        let outcome = self.aggregator.aggregate(&gm_params, &updates);
        let stages = self.aggregator.take_stage_telemetry();
        // panic-ok: `update_from_frame` admits only updates of the GM's
        // architecture — dense uploads are checked against it, compressed
        // ones are re-materialized from it — and the defense folds those
        // (or returns the GM itself), so the outcome always loads back.
        self.gm
            .load(&outcome.params)
            .expect("aggregator preserves architecture");
        let report = timer.finish(
            round,
            self.name,
            clients,
            &effective_plan,
            &updates,
            &outcome,
            stages,
        );
        self.rounds_run += 1;
        report
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.gm.predict(x)
    }

    fn num_params(&self) -> usize {
        self.gm.num_params()
    }

    fn global_params(&self) -> NamedParams {
        self.gm.snapshot()
    }

    fn clone_box(&self) -> Box<dyn Framework> {
        Box::new(self.clone())
    }

    fn set_aggregator(&mut self, aggregator: Box<dyn Aggregator>) {
        self.aggregator = aggregator;
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
