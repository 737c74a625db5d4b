//! The two serving workloads. Both serve the same registry (building
//! default + one variant per paper phone) from the same request pool, and
//! use the `serve`/`nn` layers in opposite ways:
//!
//! * [`ServeTcp`] — a few closed-loop connections; batches never fill, so
//!   an op is frame codec + socket + admission + the batch-deadline wait.
//! * [`ServeSurge`] — 128 tickets in flight from one in-process generator;
//!   batches fill, so the predict kernels and batch forming do the work.

use super::{
    field_test_sets, field_variants, generate_dataset, paper_dims, Layers, Phase, Quality,
    SetupCfg, Workload, FIXTURE_SEED,
};
use crate::probes::{median_us, nn_probes};
use crate::sys::{Scaling, SplitMix};
use crate::trace::{Tracer, NO_PARENT, ROOT};
use safeloc_dataset::{dbm_to_unit, BuildingDataset, DatasetConfig, DeviceCatalog};
use safeloc_nn::{Activation, Adam, Matrix, Sequential, TrainConfig};
use safeloc_serve::{
    request_pool, LocalizeRequest, LocalizeResponse, ModelKey, ModelRegistry, RequestFront,
    ServeConfig, Service, Ticket,
};
use safeloc_telemetry::TelemetrySnapshot;
use safeloc_wire::{Frame, WireClient, WireServer, MAX_FRAME_LEN, WIRE_SCHEMA};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// A device string no catalog knows: exercises the default-model fallback.
const UNKNOWN_DEVICE: &str = "Pixel 9";

/// Tickets the surge generator keeps in flight.
const SURGE_WINDOW: usize = 128;

/// One traced op in this many on the surge path (its ops are ~10 us apart;
/// tracing each would measure the tracer).
const SURGE_TRACE_STRIDE: u64 = 16;

/// Server-side pretraining epochs of the served classifier.
fn pretrain_epochs(smoke: bool) -> usize {
    if smoke {
        30
    } else {
        180
    }
}

/// Everything both serving workloads share.
struct ServeFixture {
    data: BuildingDataset,
    registry: Arc<ModelRegistry>,
    pool: Vec<LocalizeRequest>,
    /// Surveyed RP of each pool entry.
    truth: Vec<usize>,
    /// Offline `predict` of each pool entry on the version its device is
    /// routed to — the label a correct service must answer.
    expected: Vec<usize>,
}

impl ServeFixture {
    fn build(cfg: &SetupCfg, layers: &mut Layers) -> Self {
        let mut data = generate_dataset(&DatasetConfig::paper(), layers);
        // Phones send what they hear in the field, not the clean survey.
        data.client_test = field_test_sets(&data, field_variants(cfg.smoke));
        let dims = paper_dims(&data);

        let start = Instant::now();
        let mut default_model = Sequential::mlp(&dims, Activation::Relu, FIXTURE_SEED);
        default_model.fit_classifier(
            &data.server_train.x,
            &data.server_train.labels,
            &mut Adam::new(1e-3),
            &TrainConfig::new(pretrain_epochs(cfg.smoke), 32, FIXTURE_SEED),
        );
        let registry = Arc::new(ModelRegistry::new());
        let building = data.building.id;
        // One HetNN variant per paper phone: the default model after the
        // paper's local protocol (5 epochs at 1e-4) on that phone's data.
        for (i, device) in data.devices.iter().enumerate() {
            let mut variant = default_model.clone();
            variant.fit_classifier(
                &data.client_local[i].x,
                &data.client_local[i].labels,
                &mut Adam::new(1e-4),
                &TrainConfig::new(5, 32, FIXTURE_SEED + i as u64),
            );
            registry.publish(
                ModelKey::new(building, &device.name),
                variant,
                Some(data.building.clone()),
            );
        }
        registry.publish(
            ModelKey::default_for(building),
            default_model,
            Some(data.building.clone()),
        );
        layers.insert("nn.pretrain_ms", start.elapsed().as_secs_f64() * 1e3);

        // Pool: every field fingerprint under its phone's name, plus the
        // first phone's fingerprints again under a name no catalog knows.
        let mut pool = request_pool(&data);
        let mut truth: Vec<usize> = data
            .client_test
            .iter()
            .flat_map(|set| set.labels.iter().copied())
            .collect();
        let unknown: Vec<LocalizeRequest> = pool[..data.client_test[0].len()]
            .iter()
            .map(|r| LocalizeRequest::new(r.building, UNKNOWN_DEVICE, r.rss_dbm.clone()))
            .collect();
        truth.extend_from_slice(&data.client_test[0].labels);
        pool.extend(unknown);

        let mut expected: Vec<usize> = pool
            .iter()
            .map(|request| {
                let model = registry
                    .get(&ModelKey::new(building, &request.device))
                    .or_else(|| registry.get(&ModelKey::default_for(building)))
                    .expect("default model is published");
                let features: Vec<f32> = request.rss_dbm.iter().map(|&d| dbm_to_unit(d)).collect();
                let row = Matrix::from_vec(1, features.len(), features).expect("one row");
                model.predict(&row)[0]
            })
            .collect();
        if cfg.corrupt {
            let classes = data.building.num_rps();
            for label in expected.iter_mut().step_by(7) {
                *label = (*label + 1) % classes;
            }
        }
        Self {
            data,
            registry,
            pool,
            truth,
            expected,
        }
    }

    fn start_service(&self) -> Service {
        Service::start(
            Arc::clone(&self.registry),
            DeviceCatalog::new(self.data.devices.clone()),
            ServeConfig::default(),
        )
    }

    /// `true` if `response` is the offline answer for pool entry `entry`.
    fn is_expected(&self, entry: usize, response: &LocalizeResponse) -> bool {
        response.label == self.expected[entry] && response.model_version == 1
    }

    fn error_m(&self, entry: usize, response: &LocalizeResponse) -> f64 {
        // A label outside the building cannot be scored; it already failed
        // its check, and the largest error in the building stands in.
        let label = response.label.min(self.data.building.num_rps() - 1);
        f64::from(self.data.building.label_error_m(label, self.truth[entry]))
    }
}

/// Ops that enter `mean_error_m`: `cycles` whole passes over the
/// pool, which every seed scores alike, plus a twentieth of a pass, which
/// is where the seed shows.
fn eval_ops(pool_len: usize, cycles: usize) -> u64 {
    (pool_len * cycles + pool_len / 20) as u64
}

/// The seeded request order and its score: the pool in shuffled cycles, so
/// every window of `pool.len()` requests covers each entry once and the
/// error over a fixed prefix barely depends on the seed.
struct Lane {
    order: Vec<u32>,
    pos: usize,
    rng: SplitMix,
    done: u64,
    eval_ops: u64,
    err_sum: f64,
    failed_checks: u64,
}

impl Lane {
    fn new(pool_len: usize, seed: u64, eval_ops: u64) -> Self {
        let mut rng = SplitMix::new(seed);
        let mut order: Vec<u32> = (0..pool_len as u32).collect();
        rng.shuffle(&mut order);
        Self {
            order,
            pos: 0,
            rng,
            done: 0,
            eval_ops,
            err_sum: 0.0,
            failed_checks: 0,
        }
    }

    fn next_entry(&mut self) -> usize {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1] as usize
    }

    /// Scores one completed op; returns whether it passed its check.
    fn complete(
        &mut self,
        fixture: &ServeFixture,
        entry: usize,
        response: Option<&LocalizeResponse>,
    ) -> bool {
        let ok = response.is_some_and(|r| fixture.is_expected(entry, r));
        if !ok {
            self.failed_checks += 1;
        }
        if self.done < self.eval_ops {
            if let Some(r) = response {
                self.err_sum += fixture.error_m(entry, r);
            }
        }
        self.done += 1;
        ok
    }

    /// The error over the evaluation prefix, accumulated in op order: a
    /// pure function of the seed.
    fn quality(&self, layers: &mut Layers) -> Quality {
        layers.insert("serve.failed", self.failed_checks as f64);
        Quality {
            mean_error_m: self.err_sum / self.done.min(self.eval_ops).max(1) as f64,
            checks: vec![(
                "served label == offline predict on the pinned version",
                self.failed_checks == 0,
            )],
        }
    }
}

/// Mean of a histogram series over the samples recorded since `base`.
fn histogram_mean_since(now: &TelemetrySnapshot, base: &TelemetrySnapshot, name: &str) -> f64 {
    let read = |snap: &TelemetrySnapshot| {
        snap.histograms
            .iter()
            .filter(|h| h.name == name)
            .fold((0u64, 0.0f64), |(c, s), h| (c + h.count, s + h.sum))
    };
    let (count, sum) = read(now);
    let (count0, sum0) = read(base);
    if count > count0 {
        (sum - sum0) / (count - count0) as f64
    } else {
        0.0
    }
}

fn counter_since(now: &TelemetrySnapshot, base: &TelemetrySnapshot, name: &str) -> f64 {
    let read = |snap: &TelemetrySnapshot| -> u64 {
        snap.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    };
    read(now).saturating_sub(read(base)) as f64
}

/// The service's own view of the run, from the telemetry it already keeps.
fn serve_telemetry_layers(base: &TelemetrySnapshot, layers: &mut Layers) {
    let now = safeloc_telemetry::global().snapshot();
    layers.insert(
        "serve.batch_size_mean",
        histogram_mean_since(&now, base, "serve_batch_size"),
    );
    layers.insert(
        "serve.queue_depth_mean",
        histogram_mean_since(&now, base, "serve_queue_depth"),
    );
    layers.insert(
        "serve.latency_us_mean",
        histogram_mean_since(&now, base, "serve_latency_us"),
    );
    layers.insert(
        "wire.errors",
        counter_since(&now, base, "wire_errors_total"),
    );
}

/// Probes both serving workloads share: admission alone, and the kernels.
fn serve_probes(fixture: &ServeFixture, layers: &mut Layers) {
    let front = RequestFront::new(
        Arc::clone(&fixture.registry),
        DeviceCatalog::new(fixture.data.devices.clone()),
    );
    let mut next = 0;
    layers.insert(
        "serve.admit_us",
        median_us(200, 64, || {
            next = (next + 1) % fixture.pool.len();
            black_box(
                front
                    .admit(&fixture.pool[next])
                    .expect("pool request admits"),
            );
        }),
    );
    nn_probes(&paper_dims(&fixture.data), layers);
}

// ---------------------------------------------------------------- serve_tcp

/// The driver's own client for the traced window: the same bytes
/// `WireClient` puts on the socket, with the codec and the socket timed
/// apart. Built only from the public frame codec.
struct RawClient {
    stream: TcpStream,
    next_id: u64,
    frame: Vec<u8>,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Self {
            stream,
            next_id: 0,
            frame: Vec::with_capacity(4096),
        };
        client.stream.write_all(
            &Frame::Hello {
                schema: WIRE_SCHEMA,
            }
            .encode(),
        )?;
        client.read_frame()?;
        match Frame::decode(&client.frame) {
            Ok((Frame::HelloAck { .. }, _)) => Ok(client),
            other => Err(std::io::Error::other(format!(
                "handshake answered {other:?}"
            ))),
        }
    }

    /// Reads one whole frame (length prefix included) into `self.frame`.
    fn read_frame(&mut self) -> std::io::Result<()> {
        let mut prefix = [0u8; 4];
        self.stream.read_exact(&mut prefix)?;
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(std::io::Error::other(format!("{len}-byte frame announced")));
        }
        self.frame.clear();
        self.frame.extend_from_slice(&prefix);
        self.frame.resize(4 + len, 0);
        self.stream.read_exact(&mut self.frame[4..])
    }

    /// One traced round trip: encode, socket, decode as three child spans
    /// of `root`. Returns the response and the two frame sizes.
    fn localize(
        &mut self,
        request: &LocalizeRequest,
        tracer: &mut Tracer,
        op: u64,
        root: u32,
    ) -> Option<(LocalizeResponse, usize, usize)> {
        let id = self.next_id;
        self.next_id += 1;
        let span = tracer.begin("wire.req_encode", "wire", op, root);
        let bytes = Frame::LocalizeReq {
            id,
            building: request.building as u32,
            device: request.device.clone(),
            rss_dbm: request.rss_dbm.clone(),
        }
        .encode();
        tracer.end(span);

        let span = tracer.begin("wire.socket_rtt", "wire", op, root);
        let io = self
            .stream
            .write_all(&bytes)
            .and_then(|()| self.read_frame());
        tracer.end(span);
        io.ok()?;

        let span = tracer.begin("wire.resp_decode", "wire", op, root);
        let decoded = Frame::decode(&self.frame);
        tracer.end(span);
        match decoded {
            Ok((
                Frame::LocalizeResp {
                    id: got,
                    label,
                    position,
                    device_class,
                    model_version,
                },
                _,
            )) if got == id => Some((
                LocalizeResponse {
                    label: label as usize,
                    position,
                    device_class,
                    model_version,
                },
                bytes.len(),
                self.frame.len(),
            )),
            _ => None,
        }
    }
}

pub struct ServeTcp {
    fixture: ServeFixture,
    lane: Lane,
    /// The public client, for the bare windows.
    client: WireClient,
    /// The span-splitting client, for the traced window.
    traced_client: RawClient,
    req_frame_bytes: usize,
    resp_frame_bytes: usize,
    telemetry_base: TelemetrySnapshot,
    // Dropped last, after the connections: the server's accept loop and the
    // service's workers are joined on drop.
    _server: WireServer,
    _service: Arc<Service>,
}

impl ServeTcp {
    pub fn setup(cfg: &SetupCfg, layers: &mut Layers) -> Self {
        let fixture = ServeFixture::build(cfg, layers);
        let service = Arc::new(fixture.start_service());
        let server = WireServer::serve(Arc::clone(&service)).expect("bind loopback listener");
        let pool = fixture.pool.len();
        Self {
            lane: Lane::new(pool, cfg.seed, eval_ops(pool, 2)),
            client: WireClient::connect(server.addr()).expect("connect load client"),
            traced_client: RawClient::connect(server.addr()).expect("connect traced client"),
            req_frame_bytes: 0,
            resp_frame_bytes: 0,
            fixture,
            telemetry_base: safeloc_telemetry::global().snapshot(),
            _server: server,
            _service: service,
        }
    }
}

impl Workload for ServeTcp {
    fn scaling(&self) -> Scaling {
        Scaling::Timer // an op is mostly the 2 ms batch-deadline wait
    }

    fn min_ops(&self) -> u64 {
        self.lane.eval_ops
    }

    fn drive(&mut self, phase: &mut Phase<'_>) {
        let mut tracer = phase.tracer.take();
        while phase.open(self.lane.done) {
            let entry = self.lane.next_entry();
            let request = &self.fixture.pool[entry];
            let op = self.lane.done;
            let start = Instant::now();
            let response = match tracer.as_mut() {
                None => self.client.localize(request).ok(),
                Some(tracer) => {
                    let root = tracer.begin(ROOT, "driver", op, NO_PARENT);
                    let got = self.traced_client.localize(request, tracer, op, root.id);
                    tracer.end(root);
                    got.map(|(response, req_bytes, resp_bytes)| {
                        self.req_frame_bytes = req_bytes;
                        self.resp_frame_bytes = resp_bytes;
                        response
                    })
                }
            };
            let ok = self.lane.complete(&self.fixture, entry, response.as_ref());
            phase.record(start, ok);
        }
        phase.tracer = tracer;
    }

    fn probes(&mut self, layers: &mut Layers) {
        serve_probes(&self.fixture, layers);
    }

    fn finish(&mut self, layers: &mut Layers) -> Quality {
        serve_telemetry_layers(&self.telemetry_base, layers);
        // The wait for co-riders happens on the server's connection thread,
        // out of the driver's reach; the service's own admission->reply
        // histogram is the API's account of it.
        let service_us = layers["serve.latency_us_mean"];
        layers.insert("serve.queue_batch_predict_us", service_us);
        layers.insert("wire.req_frame_bytes", self.req_frame_bytes as f64);
        layers.insert("wire.resp_frame_bytes", self.resp_frame_bytes as f64);
        self.lane.quality(layers)
    }
}

// -------------------------------------------------------------- serve_surge

struct InFlight {
    ticket: Ticket,
    entry: usize,
    op: u64,
    submitted: Instant,
    /// Span clock at submit start / submit end; 0 when the op is not traced.
    span_start_ns: u64,
    span_submitted_ns: u64,
}

pub struct ServeSurge {
    fixture: ServeFixture,
    lane: Lane,
    ring: VecDeque<InFlight>,
    next_op: u64,
    telemetry_base: TelemetrySnapshot,
    service: Service,
}

impl ServeSurge {
    pub fn setup(cfg: &SetupCfg, layers: &mut Layers) -> Self {
        let fixture = ServeFixture::build(cfg, layers);
        let service = fixture.start_service();
        let eval_ops = eval_ops(fixture.pool.len(), if cfg.smoke { 4 } else { 16 });
        Self {
            lane: Lane::new(fixture.pool.len(), cfg.seed, eval_ops),
            fixture,
            ring: VecDeque::with_capacity(SURGE_WINDOW),
            next_op: 0,
            telemetry_base: safeloc_telemetry::global().snapshot(),
            service,
        }
    }
}

impl Workload for ServeSurge {
    fn scaling(&self) -> Scaling {
        Scaling::Compute
    }

    fn min_ops(&self) -> u64 {
        self.lane.eval_ops
    }

    fn drive(&mut self, phase: &mut Phase<'_>) {
        let mut tracer = phase.tracer.take();
        loop {
            let open = phase.open(self.lane.done + self.ring.len() as u64);
            while open && self.ring.len() < SURGE_WINDOW {
                let entry = self.lane.next_entry();
                let op = self.next_op;
                self.next_op += 1;
                let traced = tracer
                    .as_ref()
                    .filter(|_| op.is_multiple_of(SURGE_TRACE_STRIDE));
                let span_start_ns = traced.map_or(0, Tracer::now_ns);
                let submitted = Instant::now();
                match self.service.submit(&self.fixture.pool[entry]) {
                    Ok(ticket) => self.ring.push_back(InFlight {
                        ticket,
                        entry,
                        op,
                        submitted,
                        span_start_ns,
                        span_submitted_ns: traced.map_or(0, Tracer::now_ns),
                    }),
                    Err(_) => {
                        self.lane.complete(&self.fixture, entry, None);
                        phase.record(submitted, false);
                    }
                }
            }
            let Some(flight) = self.ring.pop_front() else {
                break;
            };
            let response = flight.ticket.wait().ok();
            if let (Some(tracer), true) = (tracer.as_mut(), flight.span_submitted_ns > 0) {
                let end_ns = tracer.now_ns();
                let start_ns = flight.span_start_ns;
                let root = tracer.push(
                    ROOT,
                    "driver",
                    start_ns,
                    end_ns - start_ns,
                    flight.op,
                    NO_PARENT,
                );
                tracer.push(
                    "serve.submit",
                    "serve",
                    start_ns,
                    flight.span_submitted_ns - start_ns,
                    flight.op,
                    root,
                );
                // The ticket's life in the service's hands: queue wait,
                // batch forming, the forward pass and the reply.
                tracer.push(
                    "serve.queue_batch_predict",
                    "serve",
                    flight.span_submitted_ns,
                    end_ns - flight.span_submitted_ns,
                    flight.op,
                    root,
                );
            }
            let ok = self
                .lane
                .complete(&self.fixture, flight.entry, response.as_ref());
            phase.record(flight.submitted, ok);
        }
        phase.tracer = tracer;
    }

    fn probes(&mut self, layers: &mut Layers) {
        serve_probes(&self.fixture, layers);
    }

    fn finish(&mut self, layers: &mut Layers) -> Quality {
        serve_telemetry_layers(&self.telemetry_base, layers);
        self.service.shutdown();
        self.lane.quality(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_order_covers_the_pool_once_per_cycle_and_follows_the_seed() {
        let mut a = Lane::new(50, 9, 10);
        let first: Vec<usize> = (0..50).map(|_| a.next_entry()).collect();
        let second: Vec<usize> = (0..50).map(|_| a.next_entry()).collect();
        for cycle in [&first, &second] {
            let mut sorted = cycle.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        }
        assert_ne!(first, second, "each cycle is reshuffled");
        let mut again = Lane::new(50, 9, 10);
        assert_eq!(
            first,
            (0..50).map(|_| again.next_entry()).collect::<Vec<_>>()
        );
        let mut other = Lane::new(50, 10, 10);
        assert_ne!(
            first,
            (0..50).map(|_| other.next_entry()).collect::<Vec<_>>()
        );
    }
}
