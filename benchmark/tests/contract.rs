//! The benchmark's contract, checked on `--smoke` runs of the real binary:
//! the result line, the exit codes, quality that depends on the seed and
//! not on the window, checks that bite, a harness whose memory does not
//! grow with the window, and a `BENCHMARK.json` that matches the spec the
//! binary judges by.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["serve_tcp", "serve_surge", "round_train", "round_screen"];

const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mib", "MiB"),
    ("mean_error_m", "m"),
];

struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

fn bench(args: &[&str]) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_safeloc-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    Run {
        code: output.status.code().expect("exit code"),
        stdout: String::from_utf8(output.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(output.stderr).expect("utf-8 stderr"),
    }
}

fn smoke(workload: &str, seed: &str, extra: &[&str]) -> Run {
    let mut args = vec!["run", "--workload", workload, "--seed", seed, "--smoke"];
    args.extend_from_slice(extra);
    bench(&args)
}

impl Run {
    /// The last line of standard output: the result object.
    fn result(&self) -> &str {
        self.stdout.lines().last().expect("a result line")
    }

    /// The value text of a `# name value unit` line, exactly as printed.
    fn metric(&self, name: &str) -> &str {
        self.stdout
            .lines()
            .filter_map(|l| l.strip_prefix("# "))
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("no `# {name}` line in:\n{}", self.stdout))
    }

    fn number(&self, name: &str) -> f64 {
        self.metric(name).parse().expect("a number")
    }

    /// The integer after `"key": ` in the result line.
    fn count(&self, key: &str) -> u64 {
        let tail = self
            .result()
            .split_once(&format!("\"{key}\": "))
            .unwrap_or_else(|| panic!("no {key} in {}", self.result()))
            .1;
        tail.split(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|digits| digits.parse().ok())
            .expect("a whole number")
    }
}

#[test]
fn every_workload_prints_the_result_line_with_all_six_metrics() {
    for workload in WORKLOADS {
        let run = smoke(workload, "3", &["--trace", "0"]);
        assert_eq!(run.code, 0, "{workload}: {}", run.stderr);
        let result = run.result();
        assert!(
            result.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {result}"
        );
        assert!(result.ends_with("}}"), "{workload}: {result}");
        assert_eq!(run.count("failed"), 0, "{workload}");
        assert!(run.count("attempted") >= 1, "{workload}");
        for (name, unit) in END_TO_END {
            let value = run.number(name);
            assert!(
                value.is_finite() && value > 0.0,
                "{workload} {name} = {value}"
            );
            let entry = format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                run.metric(name)
            );
            assert!(
                result.contains(&entry),
                "{workload}: {entry} not in {result}"
            );
        }
        // Exactly the six: nothing else in the metrics object.
        assert_eq!(result.matches("\"value\": ").count(), END_TO_END.len());
    }
}

#[test]
fn a_traced_run_reports_every_layer_metric_and_writes_the_trace() {
    let spec = bench(&["spec"]).stdout;
    let layers: Vec<&str> = spec
        .split_once("\"per_layer\"")
        .expect("per_layer section")
        .1
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote"))
        .collect();
    assert!(layers.len() > 40, "{layers:?}");
    let run = smoke("serve_tcp", "11", &["--trace", "1"]);
    assert_eq!(run.code, 0, "{}", run.stderr);
    let result = run.result();
    for layer in &layers {
        assert!(
            result.contains(&format!("\"{layer}\": {{\"value\": ")),
            "{layer} missing"
        );
    }
    assert_eq!(result.matches("\"value\": ").count(), layers.len());
    assert!(
        !result.contains("\"op_p50_ms\""),
        "traced runs report layers only"
    );
    // The spans this workload owns are on the clock, a foreign layer reads 0.
    assert!(run.number("wire.socket_rtt_us") > run.number("wire.req_encode_us"));
    assert!(run.number("wire.req_frame_bytes") > 800.0);
    assert_eq!(run.number("fl.aggregate_ms"), 0.0);
    assert!(run.number("driver.self_time_residual_pct") <= 10.0);
    let trace =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/serve_tcp-seed11.trace.json");
    let json = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(json.starts_with("{\"displayTimeUnit\""));
    for needle in [
        "\"name\":\"op\"",
        "\"name\":\"wire.socket_rtt\"",
        "\"cat\":\"wire\"",
        "\"parent\":",
    ] {
        assert!(json.contains(needle), "{needle} not in the trace");
    }
}

#[test]
fn an_unknown_workload_or_flag_exits_non_zero_without_a_result() {
    for args in [
        &["run", "--workload", "serve_udp", "--smoke"][..],
        &["run", "--smoke"],
        &["run", "--workload", "serve_tcp", "--bogus"],
        &["frobnicate"],
    ] {
        let run = bench(args);
        assert_ne!(run.code, 0, "{args:?}");
        assert!(
            !run.stdout.contains("\"correct\""),
            "{args:?}: {}",
            run.stdout
        );
    }
}

#[test]
fn a_corrupted_expectation_fails_ops_and_the_run() {
    // One expected label in seven is flipped (serving) / the committed
    // rejection rate is made unreachable (screening).
    for workload in ["serve_surge", "round_screen"] {
        let run = smoke(workload, "3", &["--corrupt-expectation"]);
        assert_ne!(run.code, 0, "{workload}");
        assert!(
            run.result().starts_with("{\"correct\": false, "),
            "{}",
            run.result()
        );
        assert!(run.count("failed") > 0, "{workload}: {}", run.result());
        assert!(
            run.stderr.contains("check failed"),
            "{workload}: {}",
            run.stderr
        );
    }
}

#[test]
fn quality_depends_on_the_seed_and_not_on_the_window() {
    // Serving: the error over the fixed request prefix.
    let short = smoke("serve_surge", "5", &["--seconds", "0.3"]);
    let long = smoke("serve_surge", "5", &["--seconds", "1.2"]);
    assert_eq!((short.code, long.code), (0, 0));
    assert!(long.count("attempted") > short.count("attempted"));
    assert_eq!(short.metric("mean_error_m"), long.metric("mean_error_m"));
    let other = smoke("serve_surge", "6", &["--seconds", "0.3"]);
    assert_ne!(short.metric("mean_error_m"), other.metric("mean_error_m"));

    // Screening: the GM of a fixed op, and the verdicts of every op.
    let short = smoke("round_screen", "5", &["--seconds", "0.2", "--trace", "1"]);
    let long = smoke("round_screen", "5", &["--seconds", "1.6", "--trace", "1"]);
    assert_eq!((short.code, long.code), (0, 0));
    assert!(long.count("attempted") > short.count("attempted"));
    for metric in [
        "mean_error_m",
        "fl.attacker_reject_rate",
        "fl.honest_reject_rate",
    ] {
        assert_eq!(short.metric(metric), long.metric(metric), "{metric}");
    }
}

#[test]
fn the_harness_does_not_grow_with_the_window() {
    let one = smoke("serve_surge", "7", &["--seconds", "1"]);
    let two = smoke("serve_surge", "7", &["--seconds", "2"]);
    assert_eq!((one.code, two.code), (0, 0));
    assert!(two.count("attempted") as f64 > 1.5 * one.count("attempted") as f64);
    let (a, b) = (one.number("peak_rss_mib"), two.number("peak_rss_mib"));
    assert!(
        (b - a).abs() / a < 0.05,
        "peak RSS {a} MiB at 1 s, {b} MiB at 2 s"
    );
}

#[test]
fn benchmark_json_is_the_spec_the_binary_judges_by() {
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(committed).expect("BENCHMARK.json at the repo root");
    assert_eq!(bench(&["spec"]).stdout, committed);
}
