//! Runs a named scenario-suite spec file end to end: expand the grid,
//! execute every cell through seeded `FlSession`s, print the markdown
//! summary and write the machine-readable `SuiteReport` JSON.
//!
//! Spec files live in `scenarios/` at the repo root (see the
//! `safeloc_bench::suite` module docs for the format). CI runs the
//! checked-in specs with `--quick` and uploads the reports, and gates on
//! `--check-specs` so a malformed spec fails fast without running
//! anything.
//!
//! ```text
//! cargo run -p safeloc-bench --release --bin suite -- \
//!     --spec scenarios/small_cohort.json [--quick|--full] [--seed N] [--out PATH]
//! cargo run -p safeloc-bench --release --bin suite -- --check-specs scenarios
//! ```

use safeloc_bench::{DefenseSpec, HarnessConfig, Scale, ScenarioSpec, SuiteRunner};
use std::path::{Path, PathBuf};

struct Args {
    spec: Option<String>,
    check_specs: Option<String>,
    out: Option<String>,
    cfg: HarnessConfig,
}

fn parse_args() -> Args {
    let mut spec = None;
    let mut check_specs = None;
    let mut out = None;
    let mut cfg = HarnessConfig {
        scale: Scale::Default,
        seed: 42,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => cfg.scale = Scale::Quick,
            "--full" => cfg.scale = Scale::Full,
            "--seed" => {
                i += 1;
                cfg.seed = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--seed requires an integer"));
            }
            "--spec" => {
                i += 1;
                spec = Some(
                    argv.get(i)
                        .unwrap_or_else(|| panic!("--spec requires a path"))
                        .clone(),
                );
            }
            "--check-specs" => {
                i += 1;
                check_specs = Some(
                    argv.get(i)
                        .unwrap_or_else(|| panic!("--check-specs requires a path"))
                        .clone(),
                );
            }
            "--out" => {
                i += 1;
                out = Some(
                    argv.get(i)
                        .unwrap_or_else(|| panic!("--out requires a path"))
                        .clone(),
                );
            }
            other => panic!(
                "unknown argument {other:?} (expected --spec PATH/--check-specs PATH/--quick/\
                 --full/--seed N/--out PATH)"
            ),
        }
        i += 1;
    }
    Args {
        spec,
        check_specs,
        out,
        cfg,
    }
}

/// Validates one spec file without running any cell: parse, expand the
/// grid, check every network's fault parameters, and build every
/// spec-defined defense pipeline. Returns the cell
/// count or a readable error.
fn check_spec(path: &Path, cfg: HarnessConfig) -> Result<usize, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let spec: ScenarioSpec =
        serde_json::from_str(&json).map_err(|e| format!("cannot parse: {e:?}"))?;
    let runner = SuiteRunner::new(cfg, spec);
    let cells = runner.cells();
    if cells.is_empty() {
        return Err(
            "spec expands to zero cells (an axis list is empty) — nothing would run".to_string(),
        );
    }
    for cell in &cells {
        cell.network
            .validate()
            .map_err(|e| format!("network {}: {e}", cell.network.label()))?;
        // Defense pipelines are built exactly as a run would build them,
        // so a spec naming an unbuildable composition fails here.
        if let DefenseSpec::Pipeline(p) = &cell.defense {
            let pipeline = p.build(cell.defense_seed(cfg.seed));
            let _ = pipeline.label();
        }
    }
    Ok(cells.len())
}

/// The `--check-specs` mode: parse and expand every checked-in spec (a
/// single file, or every `*.json` in a directory) without running cells.
/// Exits nonzero on the first-listed failures — the fast CI gate in front
/// of the suite-smoke run.
fn run_check_specs(path: &str, cfg: HarnessConfig) -> ! {
    let root = PathBuf::from(path);
    let mut files: Vec<PathBuf> = if root.is_dir() {
        std::fs::read_dir(&root)
            .unwrap_or_else(|e| panic!("cannot read directory {path}: {e}"))
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().map(|e| e == "json").unwrap_or(false))
            .collect()
    } else {
        vec![root]
    };
    files.sort();
    if files.is_empty() {
        eprintln!("no spec files under {path}");
        std::process::exit(1);
    }
    let mut failures = 0usize;
    for file in &files {
        match check_spec(file, cfg) {
            Ok(cells) => println!("ok   {} ({cells} cells)", file.display()),
            Err(e) => {
                failures += 1;
                eprintln!("FAIL {}: {e}", file.display());
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "\n{failures} of {} spec file(s) failed validation",
            files.len()
        );
        std::process::exit(1);
    }
    println!("\nall {} spec file(s) parse and expand", files.len());
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.check_specs {
        run_check_specs(path, args.cfg);
    }
    let spec_path = args
        .spec
        .unwrap_or_else(|| panic!("--spec PATH (or --check-specs PATH) is required"));
    let json = std::fs::read_to_string(&spec_path)
        .unwrap_or_else(|e| panic!("cannot read spec {spec_path}: {e}"));
    let spec: ScenarioSpec = serde_json::from_str(&json)
        .unwrap_or_else(|e| panic!("cannot parse spec {spec_path}: {e:?}"));

    let mut runner = SuiteRunner::new(args.cfg, spec);
    println!("# Suite — {}\n", runner.spec().name);
    if !runner.spec().description.is_empty() {
        println!("{}\n", runner.spec().description);
    }
    println!(
        "scale: {:?}, seed: {}, rounds/cell: {}, cells: {}\n",
        args.cfg.scale,
        args.cfg.seed,
        runner.rounds(),
        runner.cells().len()
    );

    let run = runner.run();
    println!("{}", run.markdown());

    let report = run.report();
    let out_path = args
        .out
        .unwrap_or_else(|| format!("SUITE_{}.json", report.name));
    let serialized = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, serialized)
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("\nwrote {out_path} ({} cells)", report.cells.len());

    // A report with embedded cell errors must fail the run (CI gates on
    // the exit code, not on grep-ing the uploaded artifact).
    let failures: Vec<&safeloc_bench::SuiteCellReport> =
        report.cells.iter().filter(|c| c.error.is_some()).collect();
    if !failures.is_empty() {
        eprintln!("\n{} cell(s) FAILED:", failures.len());
        for cell in failures {
            eprintln!(
                "  {} [{}] B{} {} {}: {}",
                cell.framework,
                cell.defense,
                cell.building,
                cell.fleet,
                cell.attack,
                cell.error.as_deref().unwrap_or("unknown error")
            );
        }
        std::process::exit(1);
    }
}
