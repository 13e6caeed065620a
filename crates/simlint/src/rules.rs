//! The lint rules: SL001–SL013.
//!
//! Each rule is a pure function over a file's token stream plus its
//! workspace-relative path. The rules encode the simulator's **determinism
//! contract** (see DESIGN.md): simulation results must be a function of the
//! scenario and the seed, and of nothing else.
//!
//! SL001–SL006 are flat pattern matches over the token stream; SL007–SL013
//! additionally consult the [`ScopeMap`] (brace-matched item context) and
//! per-file name tables (which locals/fields are hash-ordered collections,
//! which are `f64` accumulators), so they can tell a `RefCell` *field of
//! simulation state* from a `RefCell` local in a helper.

use crate::lexer::{Token, TokenKind};
use crate::scope::ScopeMap;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Stable diagnostic code (`SL001` ... `SL012`).
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Set when a `simlint.toml` waiver covers this finding.
    pub waived: bool,
}

/// Crate directories whose code *is* the simulation: wall-clock time and
/// ambient entropy are banned here outright. `experiments` is deliberately
/// absent — measuring real elapsed time in the harness is legitimate.
const SIM_CRATES: &[&str] = &[
    "simevent",
    "simtrace",
    "simcc",
    "netpacket",
    "tcpstack",
    "core",
    "netsim",
    "mrsim",
    "workload",
    "simmetrics",
    "simshard",
];

/// Crates where default-hasher collections are banned (simulation state and
/// anything that feeds report output, whose iteration order must be stable).
const HASH_ORDER_CRATES: &[&str] = &[
    "simevent",
    "simtrace",
    "simcc",
    "netpacket",
    "tcpstack",
    "core",
    "netsim",
    "mrsim",
    "workload",
    "simmetrics",
    "simshard",
    "experiments",
];

/// Narrow numeric types for SL005: casting a time/byte counter into one of
/// these silently truncates at datacenter scale (a 10 s run is 1e10 ns —
/// already past `u32`).
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// The crate directory name from a workspace-relative path
/// (`crates/netsim/src/...` → `netsim`).
fn crate_dir(path: &str) -> Option<&str> {
    let mut parts = path.split('/');
    if parts.next()? != "crates" {
        return None;
    }
    parts.next()
}

/// True when the path is test, bench, example, or fixture code — exempt from
/// SL004 (panicking on violated expectations is exactly what tests do).
fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|p| matches!(p, "tests" | "benches" | "examples" | "fixtures"))
}

/// Mark every token inside a `#[cfg(test)]`-gated item or a `#[test]`
/// function body. Works on brace balance: after the attribute, everything up
/// to the close of the next `{` block is test code.
fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 4).is_some_and(|t| t.is_ident("test"));
        let is_test_attr = tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("test"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct(']'));
        if is_cfg_test || is_test_attr {
            // Mark from the attribute to the end of the next balanced block.
            // A `#[cfg(test)]` on a braceless item (e.g. `use`) ends at `;`
            // before any `{` — handle that too.
            let start = i;
            let mut j = i;
            let mut depth = 0usize;
            let mut entered = false;
            while j < tokens.len() {
                if tokens[j].is_punct('{') {
                    depth += 1;
                    entered = true;
                } else if tokens[j].is_punct('}') {
                    depth = depth.saturating_sub(1);
                    if entered && depth == 0 {
                        break;
                    }
                } else if tokens[j].is_punct(';') && !entered {
                    break;
                }
                j += 1;
            }
            let end = j.min(tokens.len().saturating_sub(1));
            for m in &mut mask[start..=end] {
                *m = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// True when token `i` sits inside a `use` declaration. Sound because a
/// `use` declaration always terminates with `;` and `use` cannot appear
/// mid-expression: a `use` ident with no `;` after it before token `i`
/// means `i` is still inside that declaration (group imports included).
fn in_use_statement(tokens: &[Token], i: usize) -> bool {
    for t in tokens[..i].iter().rev() {
        if t.is_punct(';') {
            return false;
        }
        if t.is_ident("use") {
            return true;
        }
    }
    false
}

/// Count top-level commas inside the generic argument list opening at
/// `tokens[open]` (which must be `<`). Returns `None` when the list never
/// closes (macro soup) — callers treat that as "cannot prove a custom
/// hasher", i.e. flag it.
fn generic_arity(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut commas = 0usize;
    let mut paren = 0usize;
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        // `->` and `=>`: the `>` is not a generics close.
        if (t.is_punct('-') || t.is_punct('='))
            && tokens.get(j + 1).is_some_and(|n| n.is_punct('>'))
        {
            j += 2;
            continue;
        }
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return Some(commas);
            }
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren = paren.saturating_sub(1);
        } else if t.is_punct(',') && depth == 1 && paren == 0 {
            commas += 1;
        } else if t.is_punct(';') && depth == 1 {
            // `[T; N]` inside generics — commas there are still top level
            // for our purpose; nothing to do.
        }
        j += 1;
    }
    None
}

/// Lookback window for SL005: does any of the `n` tokens before `i` name a
/// time or byte quantity?
fn lookback_names_counter(tokens: &[Token], i: usize, n: usize) -> Option<String> {
    let lo = i.saturating_sub(n);
    for t in tokens[lo..i].iter().rev() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let s = t.text.as_str();
        let timeish = s.contains("nanos")
            || s.contains("micros")
            || s.contains("millis")
            || s.ends_with("_ns")
            || s.ends_with("_us")
            || s.ends_with("_ms");
        let byteish = s.contains("bytes") || s == "bps";
        if timeish || byteish {
            return Some(t.text.clone());
        }
    }
    None
}

/// Idents SL006 treats as naming a full packet value. Deliberately exact:
/// `host_buffer_packets`, `PacketRef`, and friends are counters or 8-byte
/// handles, not payloads.
const PACKETISH: &[&str] = &["Packet", "packet", "pkt"];

/// Scan the balanced-paren argument list opening at `tokens[open]` (which
/// must be `(`) for an ident naming a packet payload. A struct-field label
/// (`packet: r`) is skipped — it labels a field holding a cheap handle, not
/// a by-value payload — while a `Packet::...` path still counts (that is an
/// inline construction). Returns the matching ident, or `None` when the
/// argument is clean or the list never closes.
fn packetish_payload(tokens: &[Token], open: usize) -> Option<String> {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return None;
            }
        } else if t.kind == TokenKind::Ident && PACKETISH.contains(&t.text.as_str()) {
            let is_field_label = tokens.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && !tokens.get(j + 2).is_some_and(|n| n.is_punct(':'));
            if !is_field_label {
                return Some(t.text.clone());
            }
        }
        j += 1;
    }
    None
}

/// Index of the `>` closing the generic list opening at `tokens[open]`
/// (which must be `<`), skipping `->`/`=>`; `None` when it never closes.
fn generic_close(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        if (t.is_punct('-') || t.is_punct('='))
            && tokens.get(j + 1).is_some_and(|n| n.is_punct('>'))
        {
            j += 2;
            continue;
        }
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

/// Types whose very presence in a simulation state type hides mutation from
/// the single-owner event loop (SL008). `Atomic*` is matched by prefix.
const INTERIOR_MUT: &[&str] = &[
    "RefCell",
    "Cell",
    "UnsafeCell",
    "OnceCell",
    "OnceLock",
    "Mutex",
    "RwLock",
];

/// The blessed home of cross-shard communication (SL013): the `simshard`
/// crate owns the epoch-barrier exchange (sorted, key-ordered message
/// routing); everything else in the simulation must move data between shard
/// workers through its `EpochWorker` outbox/inject API, never through raw
/// channels or shared state.
const SHARD_EXCHANGE_HOME: &str = "crates/simshard/";

/// Synchronization types SL013 flags at *usage* sites (construction, locks,
/// waits) in simulation crates. Declared-field sites are SL008's concern;
/// `Condvar`/`Barrier` are pure cross-thread signalling and flagged even as
/// fields, since SL008's interior-mutability list does not cover them.
const SHARD_SYNC_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier"];

/// Methods whose call on a hash-ordered collection visits it in hash order
/// (SL007).
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// Names declared in this file with a `HashMap`/`HashSet` type — directly
/// (`m: HashMap<...>`, including through a path prefix), via a file-local
/// `type` alias, or by `let`-binding a constructor (`let mut m =
/// HashMap::new()`). SL007 flags iteration over these names. A custom
/// hasher does **not** exempt a name: a fixed hasher makes iteration
/// deterministic (SL002's concern) but the order is still arbitrary, which
/// is exactly what SL007 exists to surface.
fn hash_typed_names(tokens: &[Token]) -> Vec<String> {
    let mut types: Vec<&str> = vec!["HashMap", "HashSet"];
    for i in 0..tokens.len() {
        // `type LocMap = [path::]HashMap<...>`
        if tokens[i].is_ident("type")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident)
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            let end = (i + 10).min(tokens.len());
            for j in i + 3..end {
                let t = &tokens[j];
                if t.kind == TokenKind::Ident {
                    if types.contains(&t.text.as_str()) {
                        types.push(tokens[i + 1].text.as_str());
                        break;
                    }
                } else if !t.is_punct(':') {
                    break;
                }
            }
        }
    }
    let mut names = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        // `name : [&][mut] [path::]HashType` — a field, param, or local
        // annotation. The `:` must not be a path separator on either side.
        if t.kind == TokenKind::Ident
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && !(i > 0 && tokens[i - 1].is_punct(':'))
        {
            let end = (i + 10).min(tokens.len());
            for n in &tokens[i + 2..end] {
                if n.kind == TokenKind::Ident {
                    if types.contains(&n.text.as_str()) {
                        names.push(t.text.clone());
                        break;
                    }
                    // `mut` and lowercase path segments (`std`,
                    // `collections`) may precede the type; any other
                    // capitalized ident is a different concrete type.
                    if n.text != "mut" && n.text.chars().next().is_some_and(char::is_uppercase) {
                        break;
                    }
                } else if !(n.is_punct(':') || n.is_punct('&')) {
                    break;
                }
            }
        }
        // `let [mut] name = [path::]HashType::...`
        if t.is_ident("let") {
            let mut k = i + 1;
            if tokens.get(k).is_some_and(|n| n.is_ident("mut")) {
                k += 1;
            }
            if tokens.get(k).is_some_and(|n| n.kind == TokenKind::Ident)
                && tokens.get(k + 1).is_some_and(|n| n.is_punct('='))
            {
                let end = (k + 10).min(tokens.len());
                for j in k + 2..end {
                    let n = &tokens[j];
                    if n.kind == TokenKind::Ident {
                        if types.contains(&n.text.as_str()) {
                            names.push(tokens[k].text.clone());
                            break;
                        }
                    } else if !n.is_punct(':') {
                        break;
                    }
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Names declared `f64` in this file (`x: f64` annotations and
/// `let mut x = 1.0` float-literal bindings) — SL009's accumulator table.
fn f64_names(tokens: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !tokens.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && !(i > 0 && tokens[i - 1].is_punct(':'))
            && tokens.get(i + 2).is_some_and(|n| n.is_ident("f64"))
        {
            names.push(t.text.clone());
        }
        if t.is_ident("let") && tokens.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            let is_float = |n: &Token| {
                n.kind == TokenKind::Number && (n.text.contains('.') || n.text.ends_with("f64"))
            };
            if tokens
                .get(i + 2)
                .is_some_and(|n| n.kind == TokenKind::Ident)
                && tokens.get(i + 3).is_some_and(|n| n.is_punct('='))
                && tokens.get(i + 4).is_some_and(is_float)
            {
                names.push(tokens[i + 2].text.clone());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// SL007's justification scan: a sort call or BTree collection within a
/// 30-token window around `i` counts as evidence the author made the
/// iteration order deliberate (`collect()` + `sort()`, or rebuilding into a
/// BTreeMap).
fn sorted_nearby(tokens: &[Token], i: usize) -> bool {
    let lo = i.saturating_sub(30);
    let hi = (i + 30).min(tokens.len());
    tokens[lo..hi].iter().any(|t| {
        t.kind == TokenKind::Ident && (t.text.starts_with("sort") || t.text.contains("BTree"))
    })
}

/// SL011: does the first top-level argument of the call opening at
/// `tokens[open]` (`(`) compute with a bare `-` (not `->`), with no clamp
/// (`max` / `saturating_sub` / `checked_sub`) in sight?
fn first_arg_unclamped_subtraction(tokens: &[Token], open: usize) -> bool {
    let mut depth = 0usize;
    let mut minus = false;
    let mut clamped = false;
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                break;
            }
        } else if t.is_punct(',') && depth == 1 {
            break;
        } else if t.is_punct('-') && !tokens.get(j + 1).is_some_and(|n| n.is_punct('>')) {
            minus = true;
        } else if t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "max" | "saturating_sub" | "checked_sub")
        {
            clamped = true;
        }
        j += 1;
    }
    minus && !clamped
}

/// Run every rule over one file. `path` must be workspace-relative with
/// forward slashes.
pub fn check_file(path: &str, tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    let krate = crate_dir(path);
    let in_sim = krate.is_some_and(|c| SIM_CRATES.contains(&c));
    let in_hash_scope = krate.is_some_and(|c| HASH_ORDER_CRATES.contains(&c));
    // SL009's scope: code that computes reported numbers.
    let in_metrics = matches!(krate, Some("simmetrics") | Some("experiments"));
    let test_path = is_test_path(path);
    let test_mask = test_region_mask(tokens);
    let scope = ScopeMap::build(tokens);
    let hash_names = if in_sim && !test_path {
        hash_typed_names(tokens)
    } else {
        Vec::new()
    };
    let f64_accs = if in_metrics && !test_path {
        f64_names(tokens)
    } else {
        Vec::new()
    };

    let mut push = |line: u32, code: &'static str, message: String| {
        out.push(Finding {
            file: path.to_string(),
            line,
            code,
            message,
            waived: false,
        });
    };

    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        // SL008: interior mutability declared inside a simulation state
        // type. A single-owner event loop is what makes runs replayable;
        // a RefCell/Atomic field lets state mutate behind a shared
        // reference, invisibly to the scheduler's ordering.
        if in_sim
            && !test_path
            && !test_mask[i]
            && scope.in_type_def(i)
            && (INTERIOR_MUT.contains(&t.text.as_str()) || t.text.starts_with("Atomic"))
            && !in_use_statement(tokens, i)
        {
            push(
                t.line,
                "SL008",
                format!(
                    "`{}` field in a simulation state type: interior mutability \
                     hides writes from the single-owner event loop; hold plain \
                     owned state (or waive with a proof it never affects results)",
                    t.text
                ),
            );
        }
        // SL013: cross-thread communication in simulation crates outside
        // the blessed `simshard` exchange. The sharded engine's determinism
        // rests on every cross-shard packet flowing through the epoch
        // barrier's (at, key)-sorted merge; a raw channel or a lock shared
        // between workers bypasses that ordering and reintroduces
        // scheduling-dependent results.
        if in_sim
            && !path.starts_with(SHARD_EXCHANGE_HOME)
            && !test_path
            && !test_mask[i]
            && !in_use_statement(tokens, i)
        {
            let fn_ctx = |scope: &ScopeMap| {
                scope
                    .enclosing_fn(i)
                    .map(|f| format!(" in fn `{f}`"))
                    .unwrap_or_default()
            };
            let after_thread_path = i >= 3
                && tokens[i - 1].is_punct(':')
                && tokens[i - 2].is_punct(':')
                && tokens[i - 3].is_ident("thread");
            match t.text.as_str() {
                "mpsc" => {
                    push(
                        t.line,
                        "SL013",
                        format!(
                            "`mpsc`{} in a simulation crate: channel delivery order \
                             between shard workers is scheduling-dependent; exchange \
                             cross-shard messages through the simshard EpochWorker \
                             outbox/inject API (sorted at the epoch barrier)",
                            fn_ctx(&scope)
                        ),
                    );
                }
                "channel" | "sync_channel"
                    if tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
                {
                    push(
                        t.line,
                        "SL013",
                        format!(
                            "`{}(..)`{} constructs a raw channel in a simulation \
                             crate: route cross-shard traffic through the simshard \
                             exchange API instead",
                            t.text,
                            fn_ctx(&scope)
                        ),
                    );
                }
                // Lock *usage* (construction, lock calls). Declared fields
                // are SL008 findings; Condvar/Barrier fields fall through
                // here because SL008's list does not cover them.
                s if SHARD_SYNC_TYPES.contains(&s)
                    && !(scope.in_type_def(i) && INTERIOR_MUT.contains(&s)) =>
                {
                    push(
                        t.line,
                        "SL013",
                        format!(
                            "`{}`{} shares state across shard workers outside the \
                             simshard exchange: workers must own their shards \
                             exclusively and trade packets only at epoch barriers \
                             (or waive with a proof the lock never orders results)",
                            t.text,
                            fn_ctx(&scope)
                        ),
                    );
                }
                "spawn" | "spawn_scoped" | "scope" if after_thread_path => {
                    push(
                        t.line,
                        "SL013",
                        format!(
                            "`thread::{}`{} spawns workers in a simulation crate: \
                             shard parallelism belongs to simshard::run_crew, which \
                             pins the exchange order; ad-hoc threads race the event \
                             loop",
                            t.text,
                            fn_ctx(&scope)
                        ),
                    );
                }
                _ => {}
            }
        }
        // SL009: the trigger ident is an arbitrary name from the f64
        // table, so it is checked outside the name match below.
        if !f64_accs.is_empty()
            && !test_mask[i]
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('+'))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct('='))
            && f64_accs.iter().any(|n| n == &t.text)
        {
            push(
                t.line,
                "SL009",
                format!(
                    "`{} +=` accumulates in f64: float addition is \
                     order-sensitive, so summation order leaks into reported \
                     numbers; accumulate in integers (u64/u128, like \
                     simmetrics' histogram) and convert once at the end",
                    t.text
                ),
            );
        }
        match t.text.as_str() {
            // SL001: wall-clock time sources in simulation crates.
            "Instant" | "SystemTime" if in_sim => {
                push(
                    t.line,
                    "SL001",
                    format!(
                        "`{}` in simulation crate `{}`: simulated time must come \
                         from SimTime, never the wall clock",
                        t.text,
                        krate.unwrap_or("?")
                    ),
                );
            }
            // SL002: default-hasher collections where iteration order leaks
            // into simulation state or reports.
            "HashMap" | "HashSet" if in_hash_scope => {
                if in_use_statement(tokens, i) {
                    continue; // imports are fine; usage sites are checked
                }
                let required = if t.text == "HashMap" { 2 } else { 1 };
                let custom_hasher = tokens
                    .get(i + 1)
                    .filter(|n| n.is_punct('<'))
                    .and_then(|_| generic_arity(tokens, i + 1))
                    .is_some_and(|commas| commas >= required);
                if !custom_hasher {
                    push(
                        t.line,
                        "SL002",
                        format!(
                            "`{}` with the default (randomized) hasher: iteration \
                             order is nondeterministic; use BTreeMap/BTreeSet or a \
                             fixed BuildHasher",
                            t.text
                        ),
                    );
                }
            }
            // SL003: ambient entropy anywhere in the workspace.
            "thread_rng" | "from_entropy" => {
                push(
                    t.line,
                    "SL003",
                    format!(
                        "`{}`: all randomness must flow from an explicitly seeded \
                         SimRng so runs are reproducible",
                        t.text
                    ),
                );
            }
            // SL004: unwrap/expect in non-test library code.
            "unwrap" | "expect" if !test_path && !test_mask[i] => {
                let is_method_call = i > 0
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
                if is_method_call {
                    push(
                        t.line,
                        "SL004",
                        format!(
                            "`.{}()` in library code: return a Result or document \
                             the invariant with a simlint.toml waiver",
                            t.text
                        ),
                    );
                }
            }
            // SL005: lossy `as` casts of time/byte counters. Test code is
            // exempt: its values are small constants by construction.
            "as" if !test_path && !test_mask[i] => {
                let Some(next) = tokens.get(i + 1) else {
                    continue;
                };
                if next.kind == TokenKind::Ident && NARROW_TYPES.contains(&next.text.as_str()) {
                    if let Some(counter) = lookback_names_counter(tokens, i, 6) {
                        push(
                            t.line,
                            "SL005",
                            format!(
                                "`{}` cast to `{}` can truncate: time/byte counters \
                                 must stay in 64-bit (or use try_into with a checked \
                                 contract)",
                                counter, next.text
                            ),
                        );
                    }
                }
            }
            // SL006: per-packet heap traffic outside the pool API. Packet
            // storage on the hot path belongs in `PacketPool`; a `Box::new`
            // or growable-buffer push of a packet payload is a per-packet
            // allocation the arena was built to eliminate.
            "Box" if in_sim && !test_path && !test_mask[i] => {
                // `Box::new(` — and the turbofish spelling
                // `Box::<T>::new(`, which the original adjacency check
                // missed (the generics sit between the path separators).
                let path_sep = |j: usize| {
                    tokens.get(j).is_some_and(|n| n.is_punct(':'))
                        && tokens.get(j + 1).is_some_and(|n| n.is_punct(':'))
                };
                if !path_sep(i + 1) {
                    continue;
                }
                let mut j = i + 3;
                if tokens.get(j).is_some_and(|n| n.is_punct('<')) {
                    match generic_close(tokens, j) {
                        Some(close) if path_sep(close + 1) => j = close + 3,
                        _ => continue,
                    }
                }
                let is_box_new = tokens.get(j).is_some_and(|n| n.is_ident("new"))
                    && tokens.get(j + 1).is_some_and(|n| n.is_punct('('));
                if is_box_new {
                    if let Some(what) = packetish_payload(tokens, j + 1) {
                        push(
                            t.line,
                            "SL006",
                            format!(
                                "`Box::new({what})` heap-allocates per packet: route \
                                 packet storage through PacketPool"
                            ),
                        );
                    }
                }
            }
            "push" | "push_back" if in_sim && !test_path && !test_mask[i] => {
                let is_method_call = i > 0
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
                if is_method_call {
                    if let Some(what) = packetish_payload(tokens, i + 1) {
                        push(
                            t.line,
                            "SL006",
                            format!(
                                "`.{}({what})` moves a packet-sized payload into a \
                                 growable buffer: pass PacketRef handles from the \
                                 pool, or waive with the buffer's amortization \
                                 contract in simlint.toml",
                                t.text
                            ),
                        );
                    }
                }
            }
            // SL007: hash-order iteration in simulation crates. The name
            // table holds everything declared HashMap/HashSet in this file;
            // visiting one in hash order without a sort/BTree nearby puts
            // an arbitrary (even if fixed-hasher deterministic) order on
            // the hot path.
            "iter" | "iter_mut" | "keys" | "values" | "values_mut" | "drain" | "into_iter"
            | "retain"
                if in_sim && !test_path && !test_mask[i] && !hash_names.is_empty() =>
            {
                debug_assert!(HASH_ITER_METHODS.contains(&t.text.as_str()));
                let receiver = (i >= 2
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('(')))
                .then(|| &tokens[i - 2])
                .filter(|r| r.kind == TokenKind::Ident && hash_names.contains(&r.text));
                if let Some(r) = receiver {
                    if !sorted_nearby(tokens, i) {
                        push(
                            t.line,
                            "SL007",
                            format!(
                                "`{}.{}()` in fn `{}` visits a hash-ordered collection: \
                                 iteration order is arbitrary; sort the result, use a \
                                 BTree collection, or waive with an order-insensitivity \
                                 argument",
                                r.text,
                                t.text,
                                scope.enclosing_fn(i).unwrap_or("?")
                            ),
                        );
                    }
                }
            }
            // SL007, `for _ in map` form (method-less iteration).
            "in" if in_sim && !test_path && !test_mask[i] && !hash_names.is_empty() => {
                let mut j = i + 1;
                while tokens
                    .get(j)
                    .is_some_and(|n| n.is_punct('&') || n.is_ident("mut"))
                {
                    j += 1;
                }
                if tokens.get(j).is_some_and(|n| n.is_ident("self"))
                    && tokens.get(j + 1).is_some_and(|n| n.is_punct('.'))
                {
                    j += 2;
                }
                let direct_loop = tokens
                    .get(j)
                    .is_some_and(|n| n.kind == TokenKind::Ident && hash_names.contains(&n.text))
                    && tokens.get(j + 1).is_some_and(|n| n.is_punct('{'));
                if direct_loop && !sorted_nearby(tokens, i) {
                    push(
                        t.line,
                        "SL007",
                        format!(
                            "`for .. in {}` in fn `{}` visits a hash-ordered collection: \
                             iteration order is arbitrary; sort the result, use a BTree \
                             collection, or waive with an order-insensitivity argument",
                            tokens[j].text,
                            scope.enclosing_fn(i).unwrap_or("?")
                        ),
                    );
                }
            }
            // SL008, ordering half: Relaxed atomics give no happens-before
            // edge at all — if an atomic sneaks into a sim crate, Relaxed
            // is the reddest flag.
            "Relaxed"
                if in_sim
                    && !test_path
                    && !test_mask[i]
                    && i >= 2
                    && tokens[i - 1].is_punct(':')
                    && tokens[i - 2].is_punct(':') =>
            {
                push(
                    t.line,
                    "SL008",
                    "`Ordering::Relaxed` in a simulation crate: relaxed atomics order \
                     nothing; simulation state must be plainly owned by the event loop"
                        .to_string(),
                );
            }
            // SL008, static-mut half: a `static mut` is global interior
            // mutability with extra steps.
            "static"
                if in_sim
                    && !test_path
                    && !test_mask[i]
                    && tokens.get(i + 1).is_some_and(|n| n.is_ident("mut")) =>
            {
                push(
                    t.line,
                    "SL008",
                    "`static mut` in a simulation crate: global mutable state survives \
                     across runs and breaks run-to-run purity; thread state through the \
                     simulation structs"
                        .to_string(),
                );
            }
            // SL010, wall-clock half: SL001 owns the sim crates; this arm
            // covers the rest of the workspace (harness, linter), where
            // wall-clock reads are measurement-only and each site must be
            // waived with its justification.
            "Instant" | "SystemTime"
                if !in_sim && krate.is_some() && !test_path && !test_mask[i] =>
            {
                push(
                    t.line,
                    "SL010",
                    format!(
                        "`{}` outside the simulation crates: wall-clock reads are \
                         measurement-only; keep them out of result data and waive each \
                         site with its purpose",
                        t.text
                    ),
                );
            }
            // SL010, RNG half: every random stream must fork from SimRng so
            // seeds reproduce runs; constructing a generator anywhere else
            // creates an unseeded (or separately seeded) side channel.
            "SmallRng" | "StdRng" | "seed_from_u64" | "from_seed" | "from_rng" | "from_os_rng"
                if path != "crates/simevent/src/rng.rs" && !test_path && !test_mask[i] =>
            {
                // `SimRng::seed_from_u64(..)` is the blessed wrapper itself.
                let blessed = i >= 3
                    && tokens[i - 1].is_punct(':')
                    && tokens[i - 2].is_punct(':')
                    && tokens[i - 3].is_ident("SimRng");
                if blessed {
                    continue;
                }
                push(
                    t.line,
                    "SL010",
                    format!(
                        "`{}` constructs an RNG outside simevent::rng: all randomness \
                         must fork from a scenario-seeded SimRng stream",
                        t.text
                    ),
                );
            }
            // SL012: the packet pool owns every sanctioned unsafe block.
            "unsafe" if path != "crates/netpacket/src/pool.rs" => {
                let ctx = scope
                    .enclosing_fn(i)
                    .map(|f| format!(" in fn `{f}`"))
                    .unwrap_or_default();
                push(
                    t.line,
                    "SL012",
                    format!(
                        "`unsafe`{ctx} outside netpacket::pool: the pool is the one \
                         audited home for unsafe packet storage; new blocks need a \
                         simlint.toml waiver with a safety argument"
                    ),
                );
            }
            // SL011: scheduling at a computed timestamp containing a bare
            // subtraction — the classic way to schedule into the past.
            // (`fn schedule...` definitions and clamped args are skipped.)
            s if s.starts_with("schedule")
                && in_sim
                && !test_path
                && !test_mask[i]
                && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                && !(i > 0 && tokens[i - 1].is_ident("fn"))
                && first_arg_unclamped_subtraction(tokens, i + 1) =>
            {
                push(
                    t.line,
                    "SL011",
                    format!(
                        "`{s}(..)` first argument computes a timestamp with `-`: \
                         subtraction can land before `now` and violate the \
                         no-past-scheduling invariant; clamp with `.max(now)` or \
                         `saturating_sub` before scheduling"
                    ),
                );
            }
            _ => {}
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn codes(path: &str, src: &str) -> Vec<&'static str> {
        check_file(path, &lex(src))
            .into_iter()
            .map(|f| f.code)
            .collect()
    }

    #[test]
    fn sl001_flags_instant_in_sim_crate_only() {
        let src = "use std::time::Instant;";
        assert_eq!(codes("crates/netsim/src/x.rs", src), vec!["SL001"]);
        // Outside the sim crates the wall clock is SL010's business.
        assert_eq!(codes("crates/experiments/src/x.rs", src), vec!["SL010"]);
    }

    #[test]
    fn sl002_default_hasher_flagged_custom_ok() {
        assert_eq!(
            codes(
                "crates/core/src/x.rs",
                "let m: HashMap<u64, u64> = HashMap::new();"
            ),
            vec!["SL002", "SL002"]
        );
        let custom = "type S = HashSet<u64, BuildHasherDefault<SeqHasher>>;";
        assert!(codes("crates/simevent/src/x.rs", custom).is_empty());
        let custom_map = "type M = HashMap<u64, u64, BuildHasherDefault<SeqHasher>>;";
        assert!(codes("crates/core/src/x.rs", custom_map).is_empty());
    }

    #[test]
    fn sl002_use_line_exempt() {
        assert!(codes("crates/core/src/x.rs", "use std::collections::HashSet;").is_empty());
        assert!(codes("crates/core/src/x.rs", "pub use std::collections::HashMap;").is_empty());
    }

    #[test]
    fn sl003_everywhere() {
        assert_eq!(
            codes("crates/experiments/src/x.rs", "let mut r = thread_rng();"),
            vec!["SL003"]
        );
        // `SmallRng` construction outside simevent::rng additionally
        // trips SL010.
        assert_eq!(
            codes("crates/core/src/x.rs", "let r = SmallRng::from_entropy();"),
            vec!["SL010", "SL003"]
        );
    }

    #[test]
    fn sl004_library_only() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }";
        assert_eq!(codes("crates/core/src/x.rs", src), vec!["SL004"]);
        assert!(codes("crates/core/tests/x.rs", src).is_empty());
        assert!(codes("crates/core/benches/x.rs", src).is_empty());
    }

    #[test]
    fn sl004_cfg_test_region_exempt() {
        let src = "fn lib(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { Some(1).unwrap(); }\n}";
        assert!(codes("crates/core/src/x.rs", src).is_empty());
        let mixed = "fn lib(x: Option<u8>) { x.expect(\"set\"); }\n\
                     #[cfg(test)]\nmod tests { fn t() { Some(1).unwrap(); } }";
        assert_eq!(codes("crates/core/src/x.rs", mixed), vec!["SL004"]);
    }

    #[test]
    fn sl004_ignores_unwrap_or_and_field_names() {
        assert!(codes(
            "crates/core/src/x.rs",
            "x.unwrap_or(1); x.unwrap_or_default();"
        )
        .is_empty());
        assert!(codes("crates/core/src/x.rs", "struct S { expect: u8 }").is_empty());
    }

    #[test]
    fn sl005_narrow_counter_cast() {
        assert_eq!(
            codes("crates/core/src/x.rs", "let x = t.as_nanos() as u32;"),
            vec!["SL005"]
        );
        assert_eq!(
            codes("crates/netsim/src/x.rs", "let b = total_bytes as f32;"),
            vec!["SL005"]
        );
        // 64-bit targets are fine; unrelated identifiers are fine.
        assert!(codes("crates/core/src/x.rs", "let x = t.as_nanos() as u64;").is_empty());
        assert!(codes("crates/core/src/x.rs", "let i = idx as u32;").is_empty());
    }

    #[test]
    fn sl006_flags_boxed_and_pushed_packets() {
        assert_eq!(
            codes("crates/netpacket/src/x.rs", "let b = Box::new(packet);"),
            vec!["SL006"]
        );
        assert_eq!(
            codes("crates/tcpstack/src/x.rs", "self.outbox.push(pkt);"),
            vec!["SL006"]
        );
        assert_eq!(
            codes(
                "crates/core/src/x.rs",
                "self.queue.push_back((packet, now));"
            ),
            vec!["SL006"]
        );
        // Inline construction counts: `Packet::...` is not a field label.
        assert_eq!(
            codes("crates/tcpstack/src/x.rs", "out.push(Packet::tcp(1, 2));"),
            vec!["SL006"]
        );
    }

    #[test]
    fn sl006_skips_handles_labels_and_non_sim_code() {
        // Struct-field labels carry an 8-byte PacketRef, not a payload.
        assert!(codes(
            "crates/netsim/src/x.rs",
            "pending.push((done, Event::Arrive { dev, packet: r }));"
        )
        .is_empty());
        // Counters that merely contain "packet" are not payloads.
        assert!(codes(
            "crates/netsim/src/x.rs",
            "let q = Box::new(DropTail::new(spec.host_buffer_packets));"
        )
        .is_empty());
        // Non-packetish pushes and non-sim crates are out of scope.
        assert!(codes("crates/core/src/x.rs", "out.push(p);").is_empty());
        assert!(codes("crates/experiments/src/x.rs", "v.push(packet);").is_empty());
        // Test code is exempt.
        assert!(codes("crates/core/tests/x.rs", "v.push(packet);").is_empty());
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = "// Instant HashMap thread_rng .unwrap()\nlet s = \"SystemTime\";";
        assert!(codes("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn sl006_turbofish_and_multiline_builder() {
        // The turbofish spelling the adjacency check used to miss.
        assert_eq!(
            codes(
                "crates/netpacket/src/x.rs",
                "let b = Box::<Packet>::new(pkt);"
            ),
            vec!["SL006"]
        );
        // Builder-style call split across lines: the lexer is line-agnostic,
        // so the payload scan must cross them.
        let multi = "let b = Box::new(\n    wrap(packet),\n);";
        assert_eq!(codes("crates/netsim/src/x.rs", multi), vec!["SL006"]);
        // Non-packet turbofish payloads stay clean.
        assert!(codes("crates/netsim/src/x.rs", "let b = Box::<u64>::new(7);").is_empty());
    }

    #[test]
    fn sl007_hash_iteration_needs_sort_or_btree() {
        let src = "struct S { m: HashMap<u64, u64, BuildHasherDefault<H>> }\n\
                   impl S { fn f(&self) { for v in self.m.values() { consume(v); } } }";
        assert_eq!(codes("crates/netsim/src/x.rs", src), vec!["SL007"]);
        // A sort in the same statement neighborhood is the justification.
        let sorted = "struct S { m: HashMap<u64, u64, BuildHasherDefault<H>> }\n\
                      impl S { fn f(&self) -> Vec<u64> {\n\
                        let mut v: Vec<u64> = self.m.keys().copied().collect();\n\
                        v.sort(); v } }";
        assert!(codes("crates/netsim/src/x.rs", sorted).is_empty());
        // `for .. in &self.map` (method-less) fires too.
        let forin = "struct S { m: HashSet<u64, BuildHasherDefault<H>> }\n\
                     impl S { fn f(&self) { for v in &self.m { consume(v); } } }";
        assert_eq!(codes("crates/tcpstack/src/x.rs", forin), vec!["SL007"]);
        // Vec iteration and non-sim crates are out of scope.
        assert!(codes(
            "crates/netsim/src/x.rs",
            "fn f(v: &Vec<u64>) { for x in v.iter() { consume(x); } }"
        )
        .is_empty());
        assert!(codes("crates/experiments/src/x.rs", src).is_empty());
    }

    #[test]
    fn sl008_interior_mutability_in_state_types() {
        assert_eq!(
            codes("crates/tcpstack/src/x.rs", "struct S { c: Cell<u64> }"),
            vec!["SL008"]
        );
        assert_eq!(
            codes("crates/netsim/src/x.rs", "static mut DROPS: u64 = 0;"),
            vec!["SL008"]
        );
        assert_eq!(
            codes(
                "crates/netsim/src/x.rs",
                "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }"
            ),
            vec!["SL008"]
        );
        // A local RefCell in a fn body is not simulation state.
        assert!(codes(
            "crates/tcpstack/src/x.rs",
            "fn f() { let scratch = RefCell::new(0u64); }"
        )
        .is_empty());
        // Imports and non-sim crates stay clean.
        assert!(codes("crates/tcpstack/src/x.rs", "use std::cell::RefCell;").is_empty());
        assert!(codes("crates/experiments/src/x.rs", "struct S { c: Cell<u64> }").is_empty());
    }

    #[test]
    fn sl009_f64_accumulation_in_metrics_code() {
        let src = "struct A { total: f64 }\n\
                   impl A { fn add(&mut self, x: f64) { self.total += x; } }";
        assert_eq!(codes("crates/simmetrics/src/x.rs", src), vec!["SL009"]);
        assert_eq!(codes("crates/experiments/src/x.rs", src), vec!["SL009"]);
        // Only metrics/claims crates are in scope.
        assert!(codes("crates/netsim/src/x.rs", src).is_empty());
        // Integer accumulation is the blessed pattern.
        assert!(codes(
            "crates/simmetrics/src/x.rs",
            "struct A { n: u64 } impl A { fn f(&mut self) { self.n += 1; } }"
        )
        .is_empty());
        // `let mut acc = 0.0` locals count as f64 accumulators.
        let local = "fn mean(xs: &[f64]) -> f64 {\n\
                     let mut acc = 0.0; for x in xs { acc += x; } acc }";
        assert_eq!(codes("crates/experiments/src/x.rs", local), vec!["SL009"]);
    }

    #[test]
    fn sl010_wall_clock_and_rng_blessed_homes() {
        assert_eq!(
            codes("crates/experiments/src/x.rs", "let t = Instant::now();"),
            vec!["SL010"]
        );
        assert_eq!(
            codes(
                "crates/netsim/src/x.rs",
                "let r = SmallRng::seed_from_u64(1);"
            ),
            vec!["SL010", "SL010"]
        );
        // The one allowed construction site.
        assert!(codes(
            "crates/simevent/src/rng.rs",
            "let r = SmallRng::seed_from_u64(1);"
        )
        .is_empty());
        // The SimRng wrapper itself is the blessed API.
        assert!(codes(
            "crates/workload/src/x.rs",
            "let r = SimRng::seed_from_u64(9);"
        )
        .is_empty());
        // Tests may measure wall time.
        assert!(codes("crates/experiments/tests/x.rs", "let t = Instant::now();").is_empty());
    }

    #[test]
    fn sl011_subtracted_schedule_timestamp() {
        assert_eq!(
            codes(
                "crates/simevent/src/x.rs",
                "sched.schedule_at(now - jitter, ev);"
            ),
            vec!["SL011"]
        );
        // Clamped computations and plain additions are fine.
        assert!(codes(
            "crates/simevent/src/x.rs",
            "sched.schedule_at((now - jitter).max(now), ev);"
        )
        .is_empty());
        assert!(codes(
            "crates/simevent/src/x.rs",
            "sched.schedule_at(now + delay, ev);"
        )
        .is_empty());
        // A `-` in a *later* argument is not a timestamp.
        assert!(codes(
            "crates/simevent/src/x.rs",
            "sched.schedule_at(now, total - done);"
        )
        .is_empty());
        // Definitions and non-sim crates are skipped.
        assert!(codes(
            "crates/simevent/src/x.rs",
            "fn schedule_at(&mut self, at: SimTime) {}"
        )
        .is_empty());
        assert!(codes(
            "crates/experiments/src/x.rs",
            "sched.schedule_at(now - jitter, ev);"
        )
        .is_empty());
    }

    #[test]
    fn sl013_channels_and_locks_outside_simshard() {
        // Raw channel construction and the mpsc path both fire.
        assert_eq!(
            codes(
                "crates/netsim/src/shard.rs",
                "let (tx, rx) = mpsc::channel();"
            ),
            vec!["SL013", "SL013"]
        );
        assert_eq!(
            codes(
                "crates/simevent/src/x.rs",
                "let (tx, rx) = sync_channel(4);"
            ),
            vec!["SL013"]
        );
        // Lock usage in a fn body fires with the enclosing fn named.
        let lock = "fn exchange(&self) { let g = self.slot.lock(); Mutex::new(0u64); }";
        let f = check_file("crates/netsim/src/x.rs", &lex(lock));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].code, "SL013");
        assert!(
            f[0].message.contains("in fn `exchange`"),
            "{}",
            f[0].message
        );
        // A Mutex *field* is SL008's finding, not a duplicate SL013; a
        // Condvar field IS SL013 (SL008's list does not cover it).
        assert_eq!(
            codes("crates/netsim/src/x.rs", "struct S { m: Mutex<u64> }"),
            vec!["SL008"]
        );
        assert_eq!(
            codes("crates/netsim/src/x.rs", "struct S { cv: Condvar }"),
            vec!["SL013"]
        );
        // Thread spawns in sim crates fire; `scope` only as a thread path.
        assert_eq!(
            codes(
                "crates/netsim/src/x.rs",
                "std::thread::spawn(move || run());"
            ),
            vec!["SL013"]
        );
        assert_eq!(
            codes("crates/netsim/src/x.rs", "std::thread::scope(|s| run(s));"),
            vec!["SL013"]
        );
        assert!(codes("crates/netsim/src/x.rs", "let scope = ScopeMap::build(t);").is_empty());
        // The simshard crate is the blessed exchange home; imports, tests
        // and non-sim crates are out of scope.
        assert!(codes(
            "crates/simshard/src/lib.rs",
            "let g = slot.lock(); std::thread::spawn(f); mpsc::channel();"
        )
        .is_empty());
        assert!(codes("crates/netsim/src/x.rs", "use std::sync::mpsc;").is_empty());
        assert!(codes("crates/netsim/tests/x.rs", "mpsc::channel::<u64>();").is_empty());
        assert!(codes("crates/experiments/src/x.rs", "let m = Mutex::new(0);").is_empty());
    }

    #[test]
    fn sl012_unsafe_outside_pool() {
        let src = "fn peek() { unsafe { danger() } }";
        assert_eq!(codes("crates/tcpstack/src/x.rs", src), vec!["SL012"]);
        // Unlike most rules, tests are NOT exempt: unsafe is unsafe there too.
        assert_eq!(codes("crates/tcpstack/tests/x.rs", src), vec!["SL012"]);
        // The pool is the audited home.
        assert!(codes("crates/netpacket/src/pool.rs", src).is_empty());
        // The message names the enclosing fn (scope pass at work).
        let f = check_file("crates/core/src/x.rs", &lex(src));
        assert!(f[0].message.contains("in fn `peek`"), "{}", f[0].message);
    }
}
