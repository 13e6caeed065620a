//! `simbench`: the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! simbench [--seed N] [--rounds R] [--traced] [--smoke] [--out FILE]
//! simbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! simbench compare A.json B.json
//! ```
//!
//! The first form runs the four workloads round-robin for `R` rounds
//! (default 12), prints every metric with its unit and writes a results
//! file (default `results/simbench-<seed>-<unix time>.json`). `--traced`
//! adds three traced repetitions per workload for the per-layer metrics;
//! `--smoke` runs one round at reduced sizes, traced once. The second form runs one
//! workload for `S` seconds and prints one JSON result line last. The
//! third compares two results files against the bounds in
//! `BENCHMARK.json` and exits nonzero if any pair is outside.
//!
//! Every op runs in a fresh child process (`simbench child ...`), one at a
//! time.

mod harness;
mod probe;
mod stats;
mod workloads;

use std::process::ExitCode;
use workloads::{Mode, Workload};

const USAGE: &str = "usage:
  simbench [--seed N] [--rounds R] [--traced] [--smoke] [--out FILE]
  simbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  simbench compare A.json B.json
workloads: shuffle, incast-rpc, fattree, cc-matrix";

/// The paper's conference date, the repo's default seed.
const DEFAULT_SEED: u64 = 20170905;
const DEFAULT_ROUNDS: u32 = 12;

fn usage(msg: &str) -> ExitCode {
    eprintln!("simbench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    let v = v.ok_or(format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("bad value for {flag}: {v:?}"))
}

fn child(args: &[String]) -> Result<ExitCode, String> {
    let [w, seed, mode, rest @ ..] = args else {
        return Err("child needs WORKLOAD SEED MODE".into());
    };
    let w = Workload::parse(w).ok_or(format!("unknown workload {w:?}"))?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    let mode = Mode::parse(mode).ok_or(format!("unknown mode {mode:?}"))?;
    let smoke = match rest {
        [] => false,
        [s] if s == "--smoke" => true,
        _ => return Err(format!("unexpected arguments {rest:?}")),
    };
    let out = workloads::run_child(w, seed, mode, smoke);
    println!(
        "{}",
        serde_json::to_string(&out).expect("child output serializes")
    );
    Ok(ExitCode::SUCCESS)
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("child") => return child(&args[1..]),
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return Err("compare needs two results files".into());
            };
            return harness::compare(a, b).map(exit);
        }
        _ => {}
    }
    let mut seed = DEFAULT_SEED;
    let mut rounds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut out = None;
    let mut workload = None;
    let mut seconds: Option<f64> = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => seed = parse(&flag, it.next())?,
            "--rounds" => rounds = Some(parse::<u32>(&flag, it.next())?),
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            "--out" => out = Some(parse::<String>(&flag, it.next())?),
            "--workload" => {
                let name: String = parse(&flag, it.next())?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seconds" => seconds = Some(parse(&flag, it.next())?),
            "--trace" => {
                trace = Some(match parse::<String>(&flag, it.next())?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }

    if let Some(w) = workload {
        let seconds = seconds.ok_or("--workload needs --seconds")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, not {seconds}"));
        }
        let trace = trace.ok_or("--workload needs --trace 0|1")?;
        if rounds.is_some() || traced || out.is_some() {
            return Err("--rounds, --traced and --out belong to the suite form".into());
        }
        return Ok(exit(harness::run_workload(w, seed, seconds, trace, smoke)));
    }
    if seconds.is_some() || trace.is_some() {
        return Err("--seconds and --trace need --workload".into());
    }
    let out = out.unwrap_or_else(|| {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        format!("results/simbench-{seed}-{now}.json")
    });
    let opts = harness::SuiteOptions {
        seed,
        rounds: rounds
            .unwrap_or(if smoke { 1 } else { DEFAULT_ROUNDS })
            .max(1),
        traced: traced || smoke,
        smoke,
        out: out.into(),
    };
    harness::suite(&opts).map(exit)
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(msg) => usage(&msg),
    }
}
