//! The benchmark end to end, through the built binary: the smoke suite,
//! the one-workload form, `compare`, and argument errors.

use serde::Value;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn simbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(args)
        .output()
        .expect("simbench runs")
}

fn spec() -> Value {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn metric_names(key: &str) -> Vec<(String, String)> {
    let Some(Value::Arr(items)) = spec().get(key).cloned() else {
        panic!("{key} missing");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            other => panic!("malformed metric {other:?}"),
        })
        .collect()
}

fn last_line(out: &Output) -> Value {
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().expect("some output");
    serde_json::from_str(line).expect("last line is JSON")
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn number(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::F64(x)) => *x,
        Some(Value::U64(x)) => *x as f64,
        other => panic!("not a number: {other:?}"),
    }
}

#[test]
fn smoke_suite_runs_every_workload_and_the_traced_pass() {
    let out_file = tmp("smoke.json");
    let start = Instant::now();
    let out = simbench(&[
        "--smoke",
        "--seed",
        "3",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    let took = start.elapsed();
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(took < Duration::from_secs(15), "smoke took {took:?}");

    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(&out_file).unwrap()).expect("results JSON");
    let e2e = metric_names("end_to_end");
    let layers = metric_names("per_layer");
    for w in ["shuffle", "incast-rpc", "fattree", "cc-matrix"] {
        let r = doc.get("workloads").and_then(|ws| ws.get(w)).expect(w);
        assert_eq!(number(r.get("failed")), 0.0, "{w}");
        assert_eq!(number(r.get("ops")), 1.0, "{w}");
        for (m, _) in &e2e {
            let s = r.get("end_to_end").and_then(|e| e.get(m)).expect(m);
            let median = number(s.get("median"));
            assert!(median.is_finite() && median > 0.0, "{w} {m} = {median}");
        }
        for (m, _) in &layers {
            let v = number(r.get("per_layer").and_then(|l| l.get(m)));
            assert!(v.is_finite(), "{w} {m} = {v}");
        }
    }
    let text = String::from_utf8_lossy(&out.stdout);
    for (m, unit) in &e2e {
        assert!(text.contains(m.as_str()) && text.contains(unit.as_str()));
    }

    // A file compared with itself is within every bound.
    let same = simbench(&[
        "compare",
        out_file.to_str().unwrap(),
        out_file.to_str().unwrap(),
    ]);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
}

#[test]
fn workload_form_prints_one_result_line() {
    let out = simbench(&[
        "--workload",
        "incast-rpc",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let r = last_line(&out);
    let keys: Vec<&str> = match &r {
        Value::Obj(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(r.get("correct"), Some(&Value::Bool(true)));
    assert!(number(r.get("attempted")) >= 3.0);
    assert_eq!(number(r.get("failed")), 0.0);
    let metrics = r.get("metrics").unwrap();
    for (m, unit) in metric_names("end_to_end") {
        let v = metrics.get(&m).unwrap_or_else(|| panic!("{m} missing"));
        assert_eq!(v.get("unit"), Some(&Value::Str(unit)));
        assert!(number(v.get("value")) > 0.0);
    }
}

#[test]
fn traced_workload_runs_repeat_every_count() {
    let run = || {
        let out = simbench(&[
            "--workload",
            "fattree",
            "--seed",
            "9",
            "--seconds",
            "0.1",
            "--trace",
            "1",
            "--smoke",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        last_line(&out)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.get("correct"), Some(&Value::Bool(true)));
    for (m, unit) in metric_names("per_layer") {
        let va = number(
            a.get("metrics")
                .and_then(|x| x.get(&m))
                .and_then(|x| x.get("value")),
        );
        let vb = number(
            b.get("metrics")
                .and_then(|x| x.get(&m))
                .and_then(|x| x.get("value")),
        );
        if unit == "count" {
            assert_eq!(va, vb, "{m} differs between traced runs");
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "shuffle",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "shuffle", "--seed", "1", "--trace", "0"],
        &["--seconds", "1"],
        &["compare", "only-one.json"],
        &["--bogus"],
    ] {
        let out = simbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
