//! `safeloc-benchmark` — the request + round benchmark of the SAFELOC stack.
//!
//! ```text
//! safeloc-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! safeloc-benchmark all [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! safeloc-benchmark aa  [--sets 3] [--runs 5] [--seconds S] [--smoke]
//! safeloc-benchmark spec
//! ```
//!
//! `run` prints one `# name value unit` line per metric and, as its last
//! line, one JSON object `{correct, attempted, failed, metrics}`: the six
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. It drives the stack only through public functions and times
//! every layer from outside. See `benchmark/README.md`.

mod aa;
mod probes;
mod recorder;
mod run;
mod spec;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;

/// Parsed command line shared by the subcommands.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    /// `--seconds`, when given.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub corrupt: bool,
    pub sets: usize,
    pub runs: usize,
}

impl Args {
    /// The measured window: `--seconds`, else a short one under `--smoke`,
    /// else `default`.
    pub fn window_seconds(&self, default: f64) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 1.0 } else { default })
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: safeloc-benchmark <run|all|aa|spec> [--workload W] [--seed N] [--seconds S] \
         [--trace 0|1] [--smoke] [--sets N] [--runs N]\nworkloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        corrupt: false,
        sets: 3,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        let number = |v: String| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => parsed.seed = number(value("a number")?)? as u64,
            "--seconds" => parsed.seconds = Some(number(value("a number")?)?),
            "--trace" => parsed.trace = number(value("0 or 1")?)? != 0.0,
            "--sets" => parsed.sets = number(value("a number")?)? as usize,
            "--runs" => parsed.runs = number(value("a number")?)? as usize,
            "--smoke" => parsed.smoke = true,
            // Test hook: corrupt the committed expectation, so the run's
            // own checks must turn it incorrect.
            "--corrupt-expectation" => parsed.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let longest = recorder::MAX_WINDOW_SECONDS;
    if parsed
        .seconds
        .is_some_and(|s| s.is_nan() || s <= 0.0 || s > longest)
    {
        return Err(format!("--seconds must be positive and at most {longest}"));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        return usage();
    };
    let args = match parse(rest) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("error: {problem}");
            return usage();
        }
    };
    match command.as_str() {
        "run" => match &args.workload {
            Some(name) => run::run(name, &args),
            None => {
                eprintln!("error: run needs --workload");
                usage()
            }
        },
        "all" => aa::all(&args),
        "aa" => aa::run(&args),
        "spec" => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
