//! End-to-end tests of the `--trace` path: attaching a sink must never
//! change experiment output, same-seed traces must be byte-identical, and
//! the filter must restrict what reaches the file.

use experiments::cli::parse_trace_filter;
use experiments::scenario::{
    run_scenario_once, run_scenario_once_full, BufferDepth, Engine, QueueKind, ScenarioConfig,
    Transport,
};
use simevent::SimDuration;
use simtrace::{diff_jsonl, JsonlSink, NullSink, TraceHandle};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Write` target the test can read back after the sink (boxed inside the
/// trace handle) is gone.
#[derive(Debug, Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        let buf = self.0.lock().unwrap_or_else(|e| e.into_inner());
        String::from_utf8(buf.clone()).expect("traces are UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn point(cfg: &ScenarioConfig, trace: TraceHandle) -> experiments::scenario::RunMetrics {
    run_scenario_once_full(
        cfg,
        Transport::Dctcp,
        QueueKind::Red(ecn_core::ProtectionMode::Default),
        BufferDepth::Shallow,
        SimDuration::from_micros(500),
        Engine::Fast,
        trace,
    )
    .0
}

fn jsonl_trace(cfg: &ScenarioConfig, filter: simtrace::TraceFilter) -> String {
    let buf = SharedBuf::default();
    let trace = TraceHandle::with_filter(Box::new(JsonlSink::new(buf.clone())), filter);
    let _ = point(cfg, trace.clone());
    trace.flush().expect("in-memory sink cannot fail");
    buf.contents()
}

#[test]
fn null_sink_run_is_byte_identical_to_untraced_run() {
    let cfg = ScenarioConfig::tiny();
    let untraced = run_scenario_once(
        &cfg,
        Transport::Dctcp,
        QueueKind::Red(ecn_core::ProtectionMode::Default),
        BufferDepth::Shallow,
        SimDuration::from_micros(500),
    );
    let traced = point(&cfg, TraceHandle::new(Box::new(NullSink)));
    assert_eq!(traced, untraced, "NullSink tracing perturbed the metrics");
    // Byte-identical serialized experiment output, not just struct equality.
    assert_eq!(
        serde_json::to_string(&traced).expect("metrics serialize"),
        serde_json::to_string(&untraced).expect("metrics serialize"),
    );
}

#[test]
fn same_seed_jsonl_traces_are_byte_identical() {
    let cfg = ScenarioConfig::tiny();
    let a = jsonl_trace(&cfg, simtrace::TraceFilter::default());
    let b = jsonl_trace(&cfg, simtrace::TraceFilter::default());
    assert!(
        !a.is_empty() && a.lines().count() > 100,
        "trace is substantial"
    );
    assert_eq!(a, b, "same-seed traces must be byte-identical");
    assert!(diff_jsonl(&a, &b).is_none());

    // And a genuinely different run diverges, with the divergence located.
    let mut other = cfg.clone();
    other.seed ^= 1;
    let c = jsonl_trace(&other, simtrace::TraceFilter::default());
    let d = diff_jsonl(&a, &c).expect("different seeds must diverge");
    assert!(d.left.is_some() || d.right.is_some());
}

#[test]
fn kind_filter_restricts_the_trace() {
    let cfg = ScenarioConfig::tiny();
    let all = jsonl_trace(&cfg, simtrace::TraceFilter::default());
    let syn_only = jsonl_trace(&cfg, parse_trace_filter("kind=syn").expect("valid filter"));
    let events = |t: &str| {
        t.lines()
            .filter(|l| !l.contains("\"meta\""))
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    assert!(events(&syn_only).len() < events(&all).len());
    for line in events(&syn_only) {
        // Sender-side and sampler events carry no packet kind and always
        // pass the filter; everything else must be a SYN.
        assert!(
            line.contains("\"kind\":\"syn\"") || line.contains("\"kind\":null"),
            "non-SYN packet event leaked through the filter: {line}"
        );
    }
}
