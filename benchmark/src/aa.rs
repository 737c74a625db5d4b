//! The A/A noise gate: the same code against itself.
//!
//! `aa --sets 3 --runs 5` runs every workload `runs` times per set, each
//! run in a fresh process and the workloads interleaved (so a slow minute
//! of the machine lands on all of them, not on one). Seeds differ from run
//! to run and repeat from set to set. Per workload x end-to-end metric it
//! prints each set's median, the largest gap between set medians, the
//! inter-quartile spread over all runs, and fails if a gap exceeds the
//! bound in `BENCHMARK.json` — a bound that the same code cannot meet
//! twice is not a bound. The quality metric must also repeat bit for bit
//! for a repeated seed.

use crate::spec::{END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::sys::median;
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// `run --workload name` in a process of its own, so that set-up time and
/// peak memory are one workload's.
fn child(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> std::io::Result<Command> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["run", "--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    Ok(command)
}

/// The `all` subcommand: the four workloads, one after the other.
pub fn all(args: &Args) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for w in &WORKLOADS {
        println!("## {}", w.name);
        let seconds = args.window_seconds(RUN_SECONDS as f64);
        let status =
            child(w.name, args.seed, seconds, args.trace, args.smoke).and_then(|mut c| c.status());
        if !status.is_ok_and(|s| s.success()) {
            code = ExitCode::from(1);
        }
    }
    code
}

/// Runs one untraced child; returns whether it exited 0 and the metrics of
/// its `# name value unit` lines.
fn child_run(
    name: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> std::io::Result<(bool, BTreeMap<String, String>)> {
    let output = child(name, seed, seconds, false, smoke)?.output()?;
    let metrics = String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix("# ")?.split(' ');
            Some((words.next()?.to_string(), words.next()?.to_string()))
        })
        .collect();
    Ok((output.status.success(), metrics))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (exclusive
/// method) gives them: the driver computes its spreads this way.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

pub fn run(args: &Args) -> ExitCode {
    // By default the window the driver uses.
    let seconds = args.window_seconds(RUN_SECONDS as f64);
    // values[workload][metric][set] = that set's runs, in run order
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<Vec<f64>>>> = BTreeMap::new();
    let mut raw_error: BTreeMap<(&str, usize), Vec<String>> = BTreeMap::new();
    let mut all_correct = true;
    for set in 0..args.sets {
        for run in 0..args.runs {
            for w in &WORKLOADS {
                let seed = args.seed + run as u64;
                let (ok, metrics) = match child_run(w.name, seed, seconds, args.smoke) {
                    Ok(result) => result,
                    Err(e) => {
                        eprintln!("error: cannot run {}: {e}", w.name);
                        return ExitCode::from(2);
                    }
                };
                eprintln!(
                    "set {set} run {run} {}: {}",
                    w.name,
                    if ok { "ok" } else { "FAILED" }
                );
                all_correct &= ok;
                for (metric, text) in metrics {
                    if metric == "mean_error_m" {
                        raw_error
                            .entry((w.name, run))
                            .or_default()
                            .push(text.clone());
                    }
                    let sets = values.entry(w.name).or_default().entry(metric).or_default();
                    sets.resize(args.sets, Vec::new());
                    sets[set].push(text.parse().unwrap_or(f64::NAN));
                }
            }
        }
    }

    let mut pass = all_correct;
    println!("| workload | metric | set medians | gap | IQR | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    for w in &WORKLOADS {
        let Some(metrics) = values.get(w.name) else {
            continue;
        };
        let row = |metric: &str, bound: Option<f64>| -> bool {
            let Some(sets) = metrics.get(metric) else {
                return false;
            };
            let medians: Vec<f64> = sets.iter().map(|s| median(&mut s.clone())).collect();
            let center = median(&mut medians.clone());
            let spread = medians.iter().copied().fold(f64::MIN, f64::max)
                - medians.iter().copied().fold(f64::MAX, f64::min);
            let gap = spread / center.abs().max(f64::MIN_POSITIVE);
            let all: Vec<f64> = sets.iter().flatten().copied().collect();
            let (q1, q3) = quartiles(&all);
            let iqr = (q3 - q1) / median(&mut all.clone()).abs().max(f64::MIN_POSITIVE);
            let ok = bound.is_none_or(|b| gap <= b);
            let medians: Vec<String> = medians.iter().map(|m| format!("{m:.4}")).collect();
            println!(
                "| {} | {metric} | {} | {:.2}% | {:.2}% | {} | {} |",
                w.name,
                medians.join(" / "),
                gap * 100.0,
                iqr * 100.0,
                bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                if ok { "ok" } else { "FAIL" }
            );
            ok
        };
        for m in &END_TO_END {
            pass &= row(m.name, Some(m.bound));
        }
        row("driver.op_p50_raw_ms", None);
        row("driver.calib_ms", None);
    }
    for ((workload, run), texts) in &raw_error {
        if texts.iter().any(|t| t != &texts[0]) {
            println!("{workload} run {run}: mean_error_m differs between sets: {texts:?}");
            pass = false;
        }
    }
    println!(
        "\n{} sets x {} runs x {} workloads, {seconds} s windows: {}",
        args.sets,
        args.runs,
        WORKLOADS.len(),
        if pass { "PASS" } else { "FAIL" }
    );
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) -> [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]), (15.0, 45.0));
    }
}
