//! CLI entry point: `cargo run -p simlint [-- --json] [--root DIR] [--config FILE]`.
//!
//! Exit codes: `0` clean (all findings waived or none), `1` active findings,
//! `2` usage or configuration error.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut config = None;
    let mut json = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => {
                root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--root requires a directory".to_string())?,
                );
            }
            "--config" => {
                config = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--config requires a file".to_string())?,
                ));
            }
            "--help" | "-h" => {
                println!(
                    "simlint: determinism & invariant linter\n\n\
                     USAGE: simlint [--root DIR] [--config FILE] [--json]\n\n\
                     Scans crates/**/*.rs for SL001-SL012 violations.\n\
                     Waivers: simlint.toml at the workspace root (or --config).\n\
                     Exit: 0 clean, 1 findings, 2 usage/config error\n\
                     (including a waiver that silences no finding)."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Args { root, config, json })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let config_path = args
        .config
        .clone()
        .unwrap_or_else(|| args.root.join("simlint.toml"));
    let waivers = simlint::load_waivers(&config_path)?;
    let report = simlint::lint_workspace(&args.root, &waivers)?;

    // Ignore write errors: a closed pipe (`simlint | head`) must not panic —
    // the exit code is the contract, not the stream.
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if args.json {
        let _ = writeln!(out, "{}", simlint::to_json(&report));
    } else {
        for f in report.active() {
            let _ = writeln!(out, "{}:{}: {} {}", f.file, f.line, f.code, f.message);
        }
        let _ = writeln!(
            out,
            "simlint: {} files scanned, {} active finding(s), {} waived",
            report.files_scanned,
            report.active().count(),
            report.waived_count()
        );
    }
    Ok(report.is_clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("simlint: error: {e}");
            ExitCode::from(2)
        }
    }
}
