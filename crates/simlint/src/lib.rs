#![warn(missing_docs)]

//! **simlint** — the workspace's determinism & invariant linter.
//!
//! The simulator's headline guarantee is that a run is a pure function of
//! `(scenario, seed)`. That guarantee is easy to break silently: one
//! `Instant::now()` in a stats path, one default-hasher `HashMap` iterated
//! into a report, one `thread_rng()` in a workload generator. simlint scans
//! the token stream of every Rust source in `crates/` and enforces:
//!
//! | code  | rule |
//! |-------|------|
//! | SL001 | no `Instant`/`SystemTime` in simulation crates |
//! | SL002 | no default-hasher `HashMap`/`HashSet` in simulation state |
//! | SL003 | no `thread_rng`/`from_entropy` anywhere |
//! | SL004 | no `.unwrap()`/`.expect()` in non-test library code |
//! | SL005 | no lossy `as` casts of time/byte counters |
//! | SL006 | no `Box::new`/`push` of packet payloads outside the pool API |
//! | SL007 | no unsorted hash-order iteration in simulation crates |
//! | SL008 | no interior mutability (`RefCell`/`Atomic*`/`static mut`) in simulation state |
//! | SL009 | no f64 `+=` accumulation in metrics/claims code |
//! | SL010 | no wall-clock or RNG construction outside their blessed homes |
//! | SL011 | no scheduling at a subtracted (possibly past) timestamp |
//! | SL012 | no `unsafe` outside `netpacket::pool` |
//! | SL013 | no channels/locks/threads between shard workers outside `simshard` |
//!
//! SL001–SL006 are flat token-pattern rules; SL007–SL013 use the
//! [`scope`] pass (brace-matched `impl`/`fn`/type-definition context) to
//! tell simulation *state* from locals. Findings can be waived per path +
//! code in `simlint.toml`, each with a mandatory justification. Run it as
//! `cargo run -p simlint` (human output) or `cargo run -p simlint -- --json`
//! (machine output for CI; byte-identical across runs on an unchanged tree).

pub mod config;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod walk;

use std::fs;
use std::path::Path;

pub use config::Waiver;
pub use rules::Finding;

/// The outcome of a lint run.
#[derive(Debug)]
pub struct LintReport {
    /// Every finding, waived or not, sorted by (file, line, code).
    pub findings: Vec<Finding>,
    /// How many source files were scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Findings not covered by a waiver — these fail the build.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Findings silenced by `simlint.toml`.
    pub fn waived_count(&self) -> usize {
        self.findings.iter().filter(|f| f.waived).count()
    }

    /// True when nothing fails the build.
    pub fn is_clean(&self) -> bool {
        self.active().next().is_none()
    }
}

/// Lint the workspace rooted at `root`, applying `waivers`.
///
/// Fails on any waiver that silences no finding: a dead waiver outlives the
/// code it justified and would silently cover whatever lands on its path
/// next.
pub fn lint_workspace(root: &Path, waivers: &[Waiver]) -> Result<LintReport, String> {
    let files = walk::rust_sources(root)?;
    let mut findings = Vec::new();
    for rel in &files {
        let source =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
        let tokens = lexer::lex(&source);
        for mut f in rules::check_file(rel, &tokens) {
            f.waived = waivers.iter().any(|w| w.covers(&f));
            findings.push(f);
        }
    }
    let dead: Vec<String> = waivers
        .iter()
        .filter(|w| !findings.iter().any(|f| w.covers(f)))
        .map(|w| format!("{} {}", w.code, w.path))
        .collect();
    if !dead.is_empty() {
        return Err(format!(
            "waivers that silence no finding (delete them): {}",
            dead.join(", ")
        ));
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.code).cmp(&(b.file.as_str(), b.line, b.code)));
    Ok(LintReport {
        findings,
        files_scanned: files.len(),
    })
}

/// Load waivers from `path`. A missing file is not an error (no waivers);
/// a malformed file is.
pub fn load_waivers(path: &Path) -> Result<Vec<Waiver>, String> {
    match fs::read_to_string(path) {
        Ok(text) => config::parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("reading {}: {e}", path.display())),
    }
}

/// Render the report as a JSON object (hand-rolled: the linter stays
/// dependency-free).
pub fn to_json(report: &LintReport) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut items = Vec::new();
    for f in &report.findings {
        items.push(format!(
            "    {{\"span\": \"{}:{}\", \"file\": \"{}\", \"line\": {}, \"code\": \"{}\", \"waived\": {}, \"message\": \"{}\"}}",
            esc(&f.file),
            f.line,
            esc(&f.file),
            f.line,
            f.code,
            f.waived,
            esc(&f.message)
        ));
    }
    // Per-rule counts, keyed by code in sorted order (findings are sorted
    // by (file, line, code), so a BTreeMap keeps the output stable and
    // byte-identical across runs on an unchanged tree).
    let mut by_rule: std::collections::BTreeMap<&str, (usize, usize)> =
        std::collections::BTreeMap::new();
    for f in &report.findings {
        let e = by_rule.entry(f.code).or_insert((0, 0));
        e.0 += 1;
        if !f.waived {
            e.1 += 1;
        }
    }
    let rules: Vec<String> = by_rule
        .iter()
        .map(|(code, (total, active))| {
            format!("    \"{code}\": {{\"total\": {total}, \"active\": {active}}}")
        })
        .collect();
    format!(
        "{{\n  \"files_scanned\": {},\n  \"waived\": {},\n  \"active\": {},\n  \"rules\": {{\n{}\n  }},\n  \"findings\": [\n{}\n  ]\n}}",
        report.files_scanned,
        report.waived_count(),
        report.active().count(),
        rules.join(",\n"),
        items.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let report = LintReport {
            findings: vec![
                Finding {
                    file: "crates/a/src/x.rs".into(),
                    line: 3,
                    code: "SL004",
                    message: "say \"why\"".into(),
                    waived: true,
                },
                Finding {
                    file: "crates/a/src/y.rs".into(),
                    line: 9,
                    code: "SL001",
                    message: "wall clock".into(),
                    waived: false,
                },
            ],
            files_scanned: 2,
        };
        let json = to_json(&report);
        assert!(json.contains("\\\"why\\\""));
        assert!(json.contains("\"active\": 1"));
        assert!(json.contains("\"waived\": 1"));
        // Rule-level counts, sorted by code, and stable file:line spans.
        assert!(json.contains("\"SL001\": {\"total\": 1, \"active\": 1}"));
        assert!(json.contains("\"SL004\": {\"total\": 1, \"active\": 0}"));
        assert!(json.contains("\"span\": \"crates/a/src/y.rs:9\""));
        let sl1 = json.find("\"SL001\"").unwrap();
        let sl4 = json.find("\"SL004\"").unwrap();
        assert!(sl1 < sl4, "rule counts must be code-sorted");
        assert!(!report.is_clean());
    }

    #[test]
    fn dead_waiver_fails_the_lint() {
        let root = std::env::temp_dir().join(format!("simlint-dead-waiver-{}", std::process::id()));
        let src = root.join("crates/a/src");
        fs::create_dir_all(&src).expect("temp tree");
        fs::write(
            src.join("lib.rs"),
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )
        .expect("temp source");
        let live = "[[waiver]]\ncode = \"SL004\"\npath = \"crates/a/src/lib.rs\"\nreason = \"r\"\n";
        let dead = "[[waiver]]\ncode = \"SL004\"\npath = \"crates/b\"\nreason = \"r\"\n";
        let with_dead = config::parse(&format!("{live}{dead}")).expect("parses");
        let err = lint_workspace(&root, &with_dead).expect_err("dead waiver must fail");
        let live_only = lint_workspace(&root, &config::parse(live).expect("parses"));
        fs::remove_dir_all(&root).expect("temp tree removed");
        assert!(err.contains("SL004 crates/b"), "{err}");
        assert!(
            !err.contains("crates/a"),
            "the live waiver is not dead: {err}"
        );
        let report = live_only.expect("every waiver silences a finding");
        assert!(report.is_clean());
        assert_eq!(report.waived_count(), 1);
    }

    #[test]
    fn json_is_deterministic() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .expect("workspace root");
        let waivers = load_waivers(&root.join("simlint.toml")).expect("simlint.toml parses");
        let a = to_json(&lint_workspace(root, &waivers).expect("lint runs"));
        let b = to_json(&lint_workspace(root, &waivers).expect("lint runs"));
        assert_eq!(a, b, "same tree must produce byte-identical JSON");
        assert!(a.contains("\"rules\""));
    }
}
