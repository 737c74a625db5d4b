//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and the per-layer metric names. `BENCHMARK.json`
//! at the repository root is generated from these tables (`spec`
//! subcommand) and a contract test keeps the two identical, so the `aa`
//! gate and the driver always judge against the same bounds.

/// Length of one measured window, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// One workload and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "serve_tcp",
        why: "one phone's path: closed-loop WireClient round trips; batches never fill, so latency is frame codec + socket + admission + batch-deadline wait",
    },
    WorkloadSpec {
        name: "serve_surge",
        why: "128 in-process tickets in flight: batches fill to 32, so nn predict kernels, batch forming and admission do the work and the wire does none",
    },
    WorkloadSpec {
        name: "round_train",
        why: "SAFELOC rounds on six paper phones with one boosted label-flip attacker: ~98% fused local training, defense on the exact <=64 path",
    },
    WorkloadSpec {
        name: "round_screen",
        why: "server side of a 256-client round: bulk frame decode, delta rematerialize, sampled-distance screening stages, trimmed mean, publish; no training",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Bounds: each at least three times the widest inter-quartile spread of
/// ten runs and twice the widest A/A gap seen on the submission machine
/// (README, "A/A evidence"). The three timing metrics sit at the widest
/// bound the driver allows: after speed normalization ten runs of a
/// CPU-bound workload spread 3-5 %, but the same box has shown 17-21 %
/// before it, and a yardstick that refuses its own code is no yardstick.
pub const END_TO_END: [EndToEnd; 6] = [
    gated("setup_s", "s", "lower", 0.25),
    gated("op_p50_ms", "ms", "lower", 0.25),
    gated("ops_per_s", "1/s", "higher", 0.25),
    gated("cpu_ms_per_op", "ms", "lower", 0.25),
    gated("peak_rss_mib", "MiB", "lower", 0.10),
    gated("mean_error_m", "m", "lower", 0.05),
];

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A per-layer metric (traced run only, never gated).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "higher",
    }
}

pub const PER_LAYER: [Layer; 61] = [
    // wire
    lower("wire.req_encode_us", "us"),
    lower("wire.resp_decode_us", "us"),
    lower("wire.socket_rtt_us", "us"),
    lower("wire.req_frame_bytes", "B"),
    lower("wire.resp_frame_bytes", "B"),
    lower("wire.update_decode_us", "us"),
    lower("wire.update_encode_us", "us"),
    lower("wire.upload_kib_per_op", "KiB"),
    lower("wire.errors", "count"),
    // serve
    lower("serve.admit_us", "us"),
    lower("serve.submit_us", "us"),
    lower("serve.queue_batch_predict_us", "us"),
    higher("serve.batch_size_mean", "count"),
    lower("serve.queue_depth_mean", "count"),
    lower("serve.latency_us_mean", "us"),
    lower("serve.publish_us", "us"),
    lower("serve.failed", "count"),
    // nn
    lower("nn.predict_b1_us", "us"),
    lower("nn.predict_b32_us", "us"),
    lower("nn.matmul_l1_us", "us"),
    lower("nn.tmatmul_l1_us", "us"),
    lower("nn.pretrain_ms", "ms"),
    lower("nn.model_params", "count"),
    lower("nn.predict_b32_mflop", "MFLOP"),
    // core + attacks
    lower("core.local_train_ms", "ms"),
    lower("core.train_step_us", "us"),
    lower("core.denoise_us", "us"),
    lower("core.saliency_aggregate_ms", "ms"),
    lower("core.pretrain_ms", "ms"),
    lower("core.infer_b1_us", "us"),
    lower("attacks.poison_ms", "ms"),
    // fl
    lower("fl.frame_to_update_ms", "ms"),
    lower("fl.delta_decode_us", "us"),
    lower("fl.rematerialize_us", "us"),
    lower("fl.context_build_ms", "ms"),
    lower("fl.aggregate_ms", "ms"),
    lower("fl.stage.non_finite_ms", "ms"),
    lower("fl.stage.norm_clip_ms", "ms"),
    lower("fl.stage.cluster_ms", "ms"),
    lower("fl.stage.latent_ms", "ms"),
    lower("fl.combine_ms", "ms"),
    lower("fl.delta_encode_us", "us"),
    higher("fl.attacker_reject_rate", "ratio"),
    lower("fl.honest_reject_rate", "ratio"),
    lower("fl.rejections_per_op", "count"),
    // dataset
    lower("dataset.generate_ms", "ms"),
    // driver
    lower("driver.op_tail_ms", "ms"),
    higher("driver.op_tail_pct", "%"),
    higher("driver.ops_measured", "count"),
    higher("driver.cpus", "count"),
    lower("driver.speed_factor", "ratio"),
    lower("driver.calib_ms", "ms"),
    lower("driver.calib_drift_pct", "%"),
    lower("driver.setup_raw_s", "s"),
    lower("driver.op_p50_raw_ms", "ms"),
    higher("driver.ops_per_s_raw", "1/s"),
    lower("driver.cpu_ms_per_op_raw", "ms"),
    lower("driver.trace_overhead_pct", "%"),
    lower("driver.self_time_residual_pct", "%"),
    lower("driver.spans_recorded", "count"),
    lower("driver.spans_dropped", "count"),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--locked",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let command: Vec<String> = command.iter().map(|c| json_str(c)).collect();
    out.push_str(&format!("  \"command\": [{}],\n", command.join(", ")));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            json_str(w.name),
            json_str(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better)
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
