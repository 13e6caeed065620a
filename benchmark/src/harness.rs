//! The parent side: spawning one child per op, reducing ops to metrics,
//! the one-workload run, the four-workload suite, and `compare`.

use crate::stats::{median, Better, Summary};
use crate::workloads::{ChildOut, Mode, Workload};
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// `BENCHMARK.json`, compiled in: the metric names, units, directions and
/// regression bounds live in that one file.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

fn parse_metrics(v: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let Some(Value::Arr(items)) = v.get(key) else {
        return Err(format!("{key}: expected an array"));
    };
    items
        .iter()
        .map(|m| {
            let text = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("{key}: metric without a string {k:?}")),
            };
            let better = text("better")?;
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                better: Better::parse(&better).ok_or(format!("{key}: bad direction {better:?}"))?,
                bound: match m.get("bound") {
                    Some(Value::F64(b)) => Some(*b),
                    Some(Value::U64(b)) => Some(*b as f64),
                    _ => None,
                },
            })
        })
        .collect()
}

impl Spec {
    /// Parse `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let Some(Value::Arr(ws)) = v.get("workloads") else {
            return Err("workloads: expected an array".into());
        };
        let workloads = ws
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err("workload without a name".to_string()),
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: parse_metrics(&v, "end_to_end")?,
            per_layer: parse_metrics(&v, "per_layer")?,
        })
    }

    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }
}

/// Run one child op in a fresh process and wait for it.
fn spawn(w: Workload, seed: u64, mode: Mode, smoke: bool) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", w.name(), &seed.to_string(), mode.name()]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} child: {}",
            w.name(),
            mode.name(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    serde_json::from_str(line)
        .map_err(|e| format!("{} {} child output: {e}", w.name(), mode.name()))
}

/// The untraced ops of one workload at one seed.
#[derive(Debug, Default)]
pub struct Ops {
    /// Ops started.
    pub attempted: u64,
    /// Ops with a failed check, a crash, or a digest differing from the
    /// first op's.
    pub failed: u64,
    /// The distinct failure messages.
    pub failures: Vec<String>,
    /// The first op's output digest.
    pub digest: Option<u64>,
    /// Per end-to-end metric, one sample per successful op.
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Ops {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if !self.failures.contains(&why) {
            self.failures.push(why);
        }
    }

    /// Run one untraced op and record it.
    pub fn run_one(&mut self, w: Workload, seed: u64, smoke: bool) {
        self.attempted += 1;
        let out = match spawn(w, seed, Mode::Plain, smoke) {
            Ok(out) => out,
            Err(e) => return self.fail(e),
        };
        if let Some(f) = out.failures.first() {
            return self.fail(f.clone());
        }
        match self.digest {
            None => self.digest = Some(out.digest),
            Some(d) if d != out.digest => {
                return self.fail(format!(
                    "digest {:016x} differs from the first op's {d:016x}",
                    out.digest
                ))
            }
            Some(_) => {}
        }
        for (name, v) in [
            ("wall_s", out.wall_s),
            ("pkts_per_s", out.get("pkts") / out.wall_s),
            ("peak_rss_mb", out.get("rss_mb")),
            ("setup_s", out.get("setup_s")),
        ] {
            self.samples.entry(name.to_string()).or_default().push(v);
        }
    }

    /// The summary of one metric's samples.
    pub fn summary(&self, name: &str) -> Option<Summary> {
        Summary::of(self.samples.get(name)?)
    }
}

/// Per-layer metrics by name.
pub type Layers = BTreeMap<String, f64>;

/// One traced repetition of a workload: its plain, traced and extra
/// children, reduced to the per-layer metrics. Errors carry every failed
/// check.
pub fn traced_rep(w: Workload, seed: u64, smoke: bool) -> Result<Layers, Vec<String>> {
    let plain = spawn(w, seed, Mode::Plain, smoke).map_err(|e| vec![e])?;
    let traced = spawn(w, seed, Mode::Traced, smoke).map_err(|e| vec![e])?;
    let mut failures: Vec<String> = plain.failures.clone();
    failures.extend(traced.failures.iter().cloned());
    if traced.digest != plain.digest {
        failures.push(format!(
            "traced digest {:016x} differs from untraced {:016x}",
            traced.digest, plain.digest
        ));
    }
    let mut layers = traced.metrics.clone();
    layers.insert("setup.topology_s".into(), plain.get("setup.topology_s"));
    layers.insert("setup.app_s".into(), plain.get("setup.app_s"));
    layers.insert("netsim.kb_per_flow".into(), plain.get("kb_per_flow"));
    layers.insert(
        "trace.overhead_frac".into(),
        traced.wall_s / plain.wall_s - 1.0,
    );
    // Layers this workload does not pass through read 0.
    for name in [
        "simshard.serial_tax",
        "simshard.rss_vs_classic",
        "simshard.speedup_2",
        "simsweep.speedup_2",
        "simsweep.idle_frac",
    ] {
        layers.insert(name.into(), 0.0);
    }
    for &mode in Mode::extras(w) {
        let extra = spawn(w, seed, mode, smoke).map_err(|e| vec![e])?;
        failures.extend(extra.failures.iter().cloned());
        match mode {
            Mode::Classic => {
                layers.insert("simshard.serial_tax".into(), plain.wall_s / extra.wall_s);
                layers.insert(
                    "simshard.rss_vs_classic".into(),
                    plain.get("rss_mb") / extra.get("rss_mb"),
                );
            }
            Mode::Shards2 | Mode::Jobs2 => {
                if extra.digest != plain.digest {
                    failures.push(format!(
                        "{} digest {:016x} differs from {:016x}",
                        mode.name(),
                        extra.digest,
                        plain.digest
                    ));
                }
                if mode == Mode::Shards2 {
                    layers.insert("simshard.speedup_2".into(), plain.wall_s / extra.wall_s);
                } else {
                    layers.insert("simsweep.speedup_2".into(), plain.wall_s / extra.wall_s);
                    layers.insert(
                        "simsweep.idle_frac".into(),
                        1.0 - extra.get("cell_sum_s") / (2.0 * extra.wall_s),
                    );
                }
            }
            Mode::Plain | Mode::Traced => unreachable!("not an extra mode"),
        }
    }
    if failures.is_empty() {
        Ok(layers)
    } else {
        Err(failures)
    }
}

/// Traced repetitions of one workload at one seed.
#[derive(Debug, Default)]
pub struct TracedReps {
    /// Repetitions started.
    pub attempted: u64,
    /// Repetitions with a failed check or a crash.
    pub failed: u64,
    /// Every failure message.
    pub failures: Vec<String>,
    reps: Vec<Layers>,
}

impl TracedReps {
    /// Run one traced repetition and record it.
    pub fn run_one(&mut self, w: Workload, seed: u64, smoke: bool) {
        self.attempted += 1;
        match traced_rep(w, seed, smoke) {
            Ok(layers) => self.reps.push(layers),
            Err(failures) => {
                self.failed += 1;
                self.failures.extend(failures);
            }
        }
    }

    /// The median of one per-layer metric over the passing repetitions
    /// (NaN when none passed).
    pub fn median(&self, name: &str) -> f64 {
        let vals: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|r| r.get(name).copied())
            .collect();
        median(&vals)
    }
}

/// The JSON line the `--workload` form prints last.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricSpec, f64)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(m, v)| {
            // A value that could not be measured (every op failed) is still
            // a number; `correct` is false then.
            let v = if v.is_finite() { *v } else { 0.0 };
            (
                m.name.clone(),
                Value::Obj(vec![
                    ("value".into(), Value::F64(v)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    let v = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted.max(1))),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    serde_json::to_string(&v).expect("result serializes")
}

/// Ops a one-workload run makes at least, however long they take.
const MIN_OPS: u64 = 3;

/// The `--workload` form: one workload for `seconds`, untraced (end-to-end
/// metrics) or traced (per-layer metrics). Prints the result as the last
/// line of standard output; returns whether every op passed.
pub fn run_workload(w: Workload, seed: u64, seconds: f64, trace: bool, smoke: bool) -> bool {
    let spec = Spec::load();
    let start = Instant::now();
    let more = |n: u64, min: u64| n < min || start.elapsed().as_secs_f64() < seconds;
    if !trace {
        let mut ops = Ops::default();
        while more(ops.attempted, MIN_OPS) {
            ops.run_one(w, seed, smoke);
        }
        for f in &ops.failures {
            eprintln!("[simbench] {}: {f}", w.name());
        }
        let metrics: Vec<(&MetricSpec, f64)> = spec
            .end_to_end
            .iter()
            .map(|m| {
                let Some(s) = ops.summary(&m.name) else {
                    return (m, f64::NAN);
                };
                eprintln!(
                    "[simbench] {} {}: median {} q1 {} q3 {} n {}",
                    w.name(),
                    m.name,
                    s.median,
                    s.q1,
                    s.q3,
                    s.n
                );
                (m, s.headline(m.better))
            })
            .collect();
        let correct = ops.failed == 0 && metrics.iter().all(|(_, v)| v.is_finite());
        println!(
            "{}",
            result_line(correct, ops.attempted, ops.failed, &metrics)
        );
        return correct;
    }
    let mut reps = TracedReps::default();
    while more(reps.attempted, 1) {
        reps.run_one(w, seed, smoke);
    }
    for f in &reps.failures {
        eprintln!("[simbench] {} traced: {f}", w.name());
    }
    let metrics: Vec<(&MetricSpec, f64)> = spec
        .per_layer
        .iter()
        .map(|m| (m, reps.median(&m.name)))
        .collect();
    let correct = reps.failed == 0 && metrics.iter().all(|(_, v)| v.is_finite());
    println!(
        "{}",
        result_line(correct, reps.attempted, reps.failed, &metrics)
    );
    correct
}

/// Traced repetitions per workload in the suite; per-layer times are the
/// median over them.
const SUITE_TRACED_REPS: u32 = 3;

/// Options of the four-workload suite.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Workload seed.
    pub seed: u64,
    /// Round-robin rounds of untraced ops.
    pub rounds: u32,
    /// Also run traced repetitions for the per-layer metrics.
    pub traced: bool,
    /// Reduced sizes.
    pub smoke: bool,
    /// Results file.
    pub out: std::path::PathBuf,
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Run all four workloads round-robin, print every metric with its unit,
/// and write the results file. Returns whether every op passed.
pub fn suite(opts: &SuiteOptions) -> Result<bool, String> {
    let spec = Spec::load();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ops: Vec<Ops> = Workload::ALL.iter().map(|_| Ops::default()).collect();
    let start = Instant::now();
    for round in 0..opts.rounds {
        for (i, &w) in Workload::ALL.iter().enumerate() {
            ops[i].run_one(w, opts.seed, opts.smoke);
        }
        eprintln!(
            "[simbench] round {}/{} done after {:.1}s",
            round + 1,
            opts.rounds,
            start.elapsed().as_secs_f64()
        );
    }
    let mut traced: Vec<TracedReps> = Workload::ALL
        .iter()
        .map(|_| TracedReps::default())
        .collect();
    if opts.traced {
        let reps = if opts.smoke { 1 } else { SUITE_TRACED_REPS };
        for _ in 0..reps {
            for (i, &w) in Workload::ALL.iter().enumerate() {
                traced[i].run_one(w, opts.seed, opts.smoke);
            }
        }
    }

    println!(
        "simbench seed {} · {} rounds · {} cores{}",
        opts.seed,
        opts.rounds,
        cores,
        if opts.smoke { " · smoke" } else { "" }
    );
    let mut ok = true;
    let mut results = Vec::new();
    for (i, &w) in Workload::ALL.iter().enumerate() {
        let o = &ops[i];
        println!(
            "\n{} — {} ops, {} failed, digest {}",
            w.name(),
            o.attempted,
            o.failed,
            o.digest.map_or("-".to_string(), |d| format!("{d:016x}"))
        );
        println!(
            "  {:<34} {:>12} {:>12} {:>12} {:>12} {:>6} {:>4}  unit",
            "metric", "value", "median", "q1", "q3", "iqr", "n"
        );
        let mut e2e = Vec::new();
        for m in &spec.end_to_end {
            if let Some(s) = o.summary(&m.name) {
                println!(
                    "  {:<34} {:>12} {:>12} {:>12} {:>12} {:>5.1}% {:>4}  {}",
                    m.name,
                    fmt_value(s.headline(m.better)),
                    fmt_value(s.median),
                    fmt_value(s.q1),
                    fmt_value(s.q3),
                    s.spread() * 100.0,
                    s.n,
                    m.unit
                );
                e2e.push((m.name.clone(), s.to_value()));
            }
        }
        for f in &o.failures {
            println!("  FAILED: {f}");
        }
        ok &= o.failed == 0;
        let mut per_layer = Vec::new();
        let t = &traced[i];
        if t.attempted > t.failed {
            for m in &spec.per_layer {
                let v = t.median(&m.name);
                println!("  {:<34} {:>12} {:>64}", m.name, fmt_value(v), m.unit);
                per_layer.push((m.name.clone(), Value::F64(v)));
            }
        }
        for f in &t.failures {
            println!("  FAILED (traced): {f}");
        }
        ok &= t.failed == 0;
        results.push((
            w.name().to_string(),
            Value::Obj(vec![
                ("ops".into(), Value::U64(o.attempted)),
                ("failed".into(), Value::U64(o.failed)),
                (
                    "failures".into(),
                    Value::Arr(o.failures.iter().cloned().map(Value::Str).collect()),
                ),
                (
                    "digest".into(),
                    o.digest
                        .map_or(Value::Null, |d| Value::Str(format!("{d:016x}"))),
                ),
                ("end_to_end".into(), Value::Obj(e2e)),
                ("per_layer".into(), Value::Obj(per_layer)),
            ]),
        ));
    }
    let doc = Value::Obj(vec![
        ("seed".into(), Value::U64(opts.seed)),
        ("rounds".into(), Value::U64(u64::from(opts.rounds))),
        ("smoke".into(), Value::Bool(opts.smoke)),
        ("cores".into(), Value::U64(cores as u64)),
        ("workloads".into(), Value::Obj(results)),
    ]);
    if let Some(dir) = opts.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&doc).expect("results serialize");
    std::fs::write(&opts.out, text + "\n").map_err(|e| format!("{}: {e}", opts.out.display()))?;
    println!("\nresults: {}", opts.out.display());
    Ok(ok)
}

/// One workload × metric row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Summary in the first file.
    pub a: Summary,
    /// Summary in the second file.
    pub b: Summary,
    /// The reported value's change from the first to the second.
    pub change: f64,
    /// Whether the second's reported value is within the metric's bound of
    /// the first's.
    pub within: bool,
}

fn e2e_summaries(doc: &Value) -> BTreeMap<(String, String), Summary> {
    let mut out = BTreeMap::new();
    if let Some(Value::Obj(ws)) = doc.get("workloads") {
        for (w, v) in ws {
            if let Some(Value::Obj(ms)) = v.get("end_to_end") {
                for (m, s) in ms {
                    if let Some(s) = Summary::from_value(s) {
                        out.insert((w.clone(), m.clone()), s);
                    }
                }
            }
        }
    }
    out
}

/// Compare two results documents on every workload × end-to-end metric.
/// A pair missing from either file is an error.
pub fn compare_docs(spec: &Spec, a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let (sa, sb) = (e2e_summaries(a), e2e_summaries(b));
    let mut rows = Vec::new();
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (w.clone(), m.name.clone());
            let (Some(&x), Some(&y)) = (sa.get(&key), sb.get(&key)) else {
                return Err(format!("{w} × {} missing from a results file", m.name));
            };
            let bound = m.bound.ok_or(format!("{} has no bound", m.name))?;
            let (va, vb) = (x.headline(m.better), y.headline(m.better));
            rows.push(Row {
                workload: w.clone(),
                metric: m.name.clone(),
                a: x,
                b: y,
                change: vb / va - 1.0,
                within: m.better.within(va, vb, bound),
            });
        }
    }
    Ok(rows)
}

/// `simbench compare A.json B.json`: print every pair, and return whether
/// all are within their bounds.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let spec = Spec::load();
    let read = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare_docs(&spec, &read(a)?, &read(b)?)?;
    println!("reported value: the better quartile (q1 when lower is better, q3 when higher)");
    println!(
        "{:<11} {:<12} {:>30} {:>30} {:>8} {:>6}",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut ok = true;
    for r in &rows {
        let m = spec
            .end_to_end
            .iter()
            .find(|m| m.name == r.metric)
            .expect("rows come from the spec");
        let cell = |s: &Summary| {
            format!(
                "{} [{}, {}]",
                fmt_value(s.median),
                fmt_value(s.q1),
                fmt_value(s.q3)
            )
        };
        println!(
            "{:<11} {:<12} {:>30} {:>30} {:>+7.1}% {:>5.0}% {}",
            r.workload,
            r.metric,
            cell(&r.a),
            cell(&r.b),
            r.change * 100.0,
            m.bound.unwrap_or(f64::NAN) * 100.0,
            if r.within { "ok" } else { "OUTSIDE BOUND" }
        );
        ok &= r.within;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_the_benchmark_workloads() {
        let spec = Spec::load();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }

    fn doc(wall: f64, rate: f64) -> Value {
        let spec = Spec::load();
        let s = |x: f64| Summary::of(&[x * 0.99, x, x * 1.01]).unwrap().to_value();
        let ms: Vec<(String, Value)> = spec
            .end_to_end
            .iter()
            .map(|m| {
                let v = if m.name == "pkts_per_s" { rate } else { wall };
                (m.name.clone(), s(v))
            })
            .collect();
        let ws = spec
            .workloads
            .iter()
            .map(|w| {
                (
                    w.clone(),
                    Value::Obj(vec![("end_to_end".into(), Value::Obj(ms.clone()))]),
                )
            })
            .collect();
        Value::Obj(vec![("workloads".into(), Value::Obj(ws))])
    }

    #[test]
    fn compare_applies_each_metrics_bound() {
        let spec = Spec::load();
        let rows = compare_docs(&spec, &doc(1.0, 100.0), &doc(1.0, 100.0)).unwrap();
        assert_eq!(rows.len(), spec.workloads.len() * spec.end_to_end.len());
        assert!(rows.iter().all(|r| r.within));
        // Everything 30% slower: every lower-is-better metric is outside.
        let rows = compare_docs(&spec, &doc(1.0, 100.0), &doc(1.3, 100.0)).unwrap();
        for r in &rows {
            assert_eq!(r.within, r.metric == "pkts_per_s", "{r:?}");
        }
        // The rate 30% lower: only pkts_per_s is outside.
        let rows = compare_docs(&spec, &doc(1.0, 100.0), &doc(1.0, 70.0)).unwrap();
        for r in &rows {
            assert_eq!(r.within, r.metric != "pkts_per_s", "{r:?}");
        }
        let empty = Value::Obj(vec![]);
        assert!(compare_docs(&spec, &doc(1.0, 1.0), &empty).is_err());
    }

    #[test]
    fn result_line_has_the_documented_keys() {
        let spec = Spec::load();
        let m: Vec<(&MetricSpec, f64)> = spec.end_to_end.iter().map(|m| (m, 1.5)).collect();
        let line = result_line(true, 3, 0, &m);
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = match &v {
            Value::Obj(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value"), Some(&Value::F64(1.5)));
        assert_eq!(wall.get("unit"), Some(&Value::Str("s".into())));
    }
}
