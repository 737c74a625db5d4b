//! Workspace invariant linter CLI.
//!
//! ```text
//! safeloc_lint [--root DIR] [--check | --list-rules]
//! ```
//!
//! - default (no mode flag): print all current findings, exit 0.
//! - `--check`: exit nonzero on any finding. This is the CI gate.
//! - `--list-rules`: print the rule catalog and exit.

use safeloc_analysis::lint::{lint_workspace, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    check: bool,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: default_root(),
        check: false,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--check" => args.check = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                print!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

const HELP: &str = "\
safeloc_lint: workspace invariant linter

USAGE:
    safeloc_lint [--root DIR] [--check | --list-rules]

MODES:
    (default)     print findings, exit 0
    --check       exit 1 on any finding (the CI gate)
    --list-rules  print the rule catalog

OPTIONS:
    --root DIR    workspace root (default: ancestor of this binary's
                  manifest, else the current directory)
";

/// The workspace root: `CARGO_MANIFEST_DIR/../..` when built from the
/// workspace (so `cargo run --bin safeloc_lint` works from anywhere),
/// else the current directory.
fn default_root() -> PathBuf {
    let manifest_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if manifest_root.join("crates").is_dir() {
        return manifest_root;
    }
    PathBuf::from(".")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("safeloc_lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for rule in RULES {
            println!("{}", rule.id);
            println!("  scope: {}", rule.scope);
            if let Some(token) = rule.justify {
                println!("  justify: `// {token} <reason>` within 6 lines above the site");
            }
            println!(
                "  {}\n",
                rule.rationale
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
        return ExitCode::SUCCESS;
    }

    let findings = match lint_workspace(&args.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("safeloc_lint: failed to lint {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    for f in &findings {
        println!("[{}] {}:{}: {}", f.rule, f.path, f.line, f.message);
        println!("    {}", f.excerpt);
    }
    println!("safeloc_lint: {} finding(s)", findings.len());
    if args.check && !findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
