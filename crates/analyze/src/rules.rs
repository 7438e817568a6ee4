//! The rules the compiler cannot state: I1 IOA discipline, C1 spec
//! coverage, R1 lock discipline, A1 audit coverage, U1 unsafe
//! confinement. Determinism, the clock and panic-freedom are clippy's
//! (`clippy.toml` and the workspace lint wall; DESIGN.md §10).
//!
//! Each rule is phrased over the code mask of [`crate::SourceFile`]s and
//! produces [`Finding`]s carrying the rule id, `file:line`, a message,
//! and a fix hint. Waivers are applied by the caller
//! ([`crate::analyze_root`]), not here.

use crate::scan::{find_word, tokens, Tok};
use crate::{FileKind, Finding, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Crates holding precondition/effect transition functions (I1).
pub const I1_CRATES: [&str; 2] = ["core", "spec"];
/// Crates whose threaded code is held to the lock discipline (R1): the
/// real-transport layer, the only place the workspace takes locks.
pub const R1_CRATES: [&str; 1] = ["net"];
/// Files pinned under R1 *by path*, independent of [`R1_CRATES`]: the
/// event-loop transport core, where a guard held across a blocking call
/// stalls every connection the loop owns — not just one peer, and the
/// daemon's directory, shard pool and frame handler, where the same
/// mistake stalls every group on a shard. A future edit to the crate
/// list cannot silently drop these.
pub const R1_FILES: [&str; 6] = [
    "crates/net/src/tcp.rs",
    "crates/net/src/evloop.rs",
    "crates/net/src/writer.rs",
    "crates/server/src/directory.rs",
    "crates/server/src/shard.rs",
    "crates/server/src/server.rs",
];
/// The one file allowed to hold `unsafe` code (U1), pinned by path like
/// [`R1_FILES`]: the `extern "C"` declarations of the Linux readiness
/// calls the transport's event loops park on.
pub const U1_FILE: &str = "crates/net/src/sys.rs";

/// All rule identifiers the analyzer knows, with one-line descriptions.
pub const RULES: [(&str, &str); 6] = [
    ("I1", "IOA discipline: precondition/effect pairing and ObsEvent coverage"),
    ("C1", "spec coverage: every spec action exercised by a trace-checker test"),
    ("R1", "lock discipline: lock fields declare a vsgm-lock-tier; no guard held across a blocking call"),
    ("A1", "audit coverage: every endpoint State field read by at least one StateAudit check"),
    ("U1", "unsafe confinement: unsafe only in crates/net/src/sys.rs; crate roots forbid it"),
    ("W0", "waiver hygiene: vsgm-allow/vsgm-lock-tier comments must be well-formed"),
];

fn finding(rule: &str, file: &SourceFile, line: usize, message: String, hint: &str) -> Finding {
    Finding {
        rule: rule.to_string(),
        file: file.rel.clone(),
        line,
        message,
        hint: hint.to_string(),
    }
}

fn in_crate_src(file: &SourceFile, crates: &[&str]) -> bool {
    file.kind == FileKind::Src
        && file.crate_name.as_deref().is_some_and(|c| crates.contains(&c))
}

// ---------------------------------------------------------------- R1 ---

const R1_TIER_HINT: &str = "declare the lock's place in the global acquisition order with \
     `// vsgm-lock-tier(N): <what may be held when this is taken>` on the field or the \
     comment block above it (lower tiers are taken first; same-tier locks never nest)";
const R1_BLOCKING_HINT: &str = "copy what you need out of the guard and drop it before the \
     blocking call (or move the slow work to a dedicated thread); if holding across the \
     call is the design, waive with `// vsgm-allow(R1): <why the hold is bounded>`";

/// Calls that can park the thread for an unbounded or scheduler-decided
/// time. `Condvar::wait`/`wait_timeout` are deliberately absent: waiting
/// on a condvar *requires* holding the paired mutex.
const R1_BLOCKING: [&str; 9] = [
    "write_all", "read_exact", "flush", "connect", "recv", "recv_timeout", "accept", "sleep",
    "join",
];

/// R1 — lock discipline for the threaded net layer: (a) every
/// `Mutex`/`RwLock`/`Condvar` struct field (including `Arc`-wrapped
/// ones) declares a lock-order tier; (b) no lock guard is held across a
/// blocking call.
pub fn r1(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files.iter().filter(|f| {
        in_crate_src(f, &R1_CRATES)
            || (f.kind == FileKind::Src && R1_FILES.contains(&f.rel.as_str()))
    }) {
        out.extend(r1_fields(f));
        out.extend(r1_guards(f));
    }
    out
}

/// (a) Lock-typed struct fields must carry a well-formed
/// `vsgm-lock-tier` declaration.
fn r1_fields(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (name, line, ty) in struct_fields(f) {
        let is_test = f.scanned.test_line.get(line.saturating_sub(1)).copied().unwrap_or(false);
        let locky = ty.iter().any(|t| matches!(t.as_str(), "Mutex" | "RwLock" | "Condvar"));
        if !is_test && locky && f.scanned.tier_for(line).is_none() {
            out.push(finding(
                "R1",
                f,
                line,
                format!("lock field `{name}` declares no vsgm-lock-tier"),
                R1_TIER_HINT,
            ));
        }
    }
    out
}

/// `(field name, line, type tokens)` of every named-struct field in the
/// file. Angle brackets are depth-tracked so commas inside generics do
/// not split a field.
fn struct_fields(f: &SourceFile) -> Vec<(String, usize, Vec<String>)> {
    let toks = tokens(&f.scanned.mask);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let header = toks.get(i).is_some_and(|t| t.ident && t.text == "struct")
            && toks.get(i + 1).is_some_and(|t| t.ident);
        if !header {
            i += 1;
            continue;
        }
        // Skip to the body opener, bailing on tuple/unit structs.
        let mut j = i + 2;
        let mut angle = 0i64;
        let mut body = None;
        while let Some(t) = toks.get(j) {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle == 0 => {
                    body = Some(j);
                    break;
                }
                ";" | "(" if angle == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body else {
            i = j.max(i + 1);
            continue;
        };
        // Walk the body at depth 1 collecting `name: Type` pairs.
        let mut depth = 1i64;
        angle = 0;
        let mut k = open + 1;
        let mut pending: Option<(String, usize, Vec<String>)> = None;
        let mut last_ident: Option<(String, usize)> = None;
        while let Some(t) = toks.get(k) {
            match t.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "<" if depth == 1 => angle += 1,
                ">" if depth == 1 => angle -= 1,
                _ => {}
            }
            if depth == 1 && angle == 0 && t.text == "," {
                if let Some(field) = pending.take() {
                    out.push(field);
                }
                last_ident = None;
            } else if pending.is_none()
                && t.text == ":"
                && toks.get(k + 1).is_none_or(|n| n.text != ":")
                && toks.get(k.saturating_sub(1)).is_some_and(|p| p.ident)
                && depth == 1
                && angle == 0
            {
                if let Some((name, line)) = last_ident.take() {
                    pending = Some((name, line, Vec::new()));
                }
            } else if let Some((_, _, ty)) = pending.as_mut() {
                if t.ident {
                    ty.push(t.text.clone());
                }
            } else if t.ident {
                last_ident = Some((t.text.clone(), t.line));
            }
            k += 1;
        }
        if let Some(field) = pending.take() {
            out.push(field);
        }
        i = k.max(i + 1);
    }
    out
}

/// (b) Heuristic guard-liveness scan: from a `let g = ….lock()` (or
/// `.read()` / `.write()`) binding until its enclosing block closes or
/// `drop(g)` runs, any line containing a blocking call is flagged. The
/// scrutinee guard of an `if let`/`while let` lives exactly for the
/// statement's block. Purely lexical — it cannot see through function
/// calls — but it catches the pattern TSan only hits probabilistically.
fn r1_guards(f: &SourceFile) -> Vec<Finding> {
    struct Guard {
        name: Option<String>,
        /// Brace depth at the binding line; the guard dies when the
        /// running depth drops below this (or `<=` for scrutinees).
        depth: i64,
        scrutinee: bool,
        bound_at: usize,
    }
    let mut out = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i64;
    for (idx, text) in f.scanned.mask.iter().enumerate() {
        let line = idx + 1;
        let is_test = f.scanned.test_line.get(idx).copied().unwrap_or(false);
        let acquires = [".lock()", ".read()", ".write()"]
            .iter()
            .any(|p| !find_word(text, p).is_empty());
        let blocking: Vec<&str> = R1_BLOCKING
            .iter()
            .filter(|w| !find_word(text, w).is_empty())
            .copied()
            .collect();
        if !is_test && !blocking.is_empty() {
            for g in &guards {
                let held = g.name.as_deref().unwrap_or("guard");
                out.push(finding(
                    "R1",
                    f,
                    line,
                    format!(
                        "blocking call ({}) while lock guard `{held}` (line {}) is held",
                        blocking.join(", "),
                        g.bound_at
                    ),
                    R1_BLOCKING_HINT,
                ));
            }
            if guards.is_empty() && acquires {
                out.push(finding(
                    "R1",
                    f,
                    line,
                    format!("blocking call ({}) on a locked temporary", blocking.join(", ")),
                    R1_BLOCKING_HINT,
                ));
            }
        }
        // Drop guards the line explicitly releases.
        guards.retain(|g| {
            g.name.as_deref().is_none_or(|n| {
                find_word(text, "drop").is_empty() || !text.contains(&format!("drop({n})"))
            })
        });
        // New binding that actually *holds* a guard? A plain
        // `let g = m.lock();` does; `let v = m.lock().get(k).copied()…;`
        // does not (the guard is a statement-scoped temporary — the
        // locked-temporary check above covers blocking calls chained on
        // it). Scrutinees (`if let` / `while let` / `match`) hold for
        // the whole block: Rust extends scrutinee temporaries.
        if !is_test && acquires {
            let is_let = !find_word(text, "let").is_empty();
            let scrutinee = (is_let
                && (!find_word(text, "if").is_empty() || !find_word(text, "while").is_empty()))
                || !find_word(text, "match").is_empty();
            if scrutinee || (is_let && acquire_ends_statement(text)) {
                let name = is_let.then(|| binding_name(text)).flatten();
                guards.push(Guard { name, depth, scrutinee, bound_at: line });
            }
        }
        // Update depth and expire guards whose block closed.
        for c in text.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        guards.retain(|g| if g.scrutinee { depth > g.depth } else { depth >= g.depth });
    }
    out
}

/// Whether the last lock-acquire call on the line ends the statement —
/// i.e. the binding keeps the guard itself rather than a value read
/// *through* a statement-scoped temporary guard. Tolerates a trailing
/// `.unwrap()`/`?` (std-mutex poisoning) before the `;`.
fn acquire_ends_statement(text: &str) -> bool {
    let end = [".lock()", ".read()", ".write()"]
        .iter()
        .flat_map(|p| find_word(text, p).into_iter().map(move |at| at + p.len()))
        .max()
        .unwrap_or(0);
    let mut tail = text.get(end..).unwrap_or("").trim();
    for suffix in [".unwrap()", ".expect()", "?"] {
        tail = tail.strip_prefix(suffix).unwrap_or(tail).trim_start();
    }
    tail.is_empty() || tail == ";"
}

/// The identifier bound by a `let` on this line: the first identifier
/// after `let` that is not `mut` (best-effort; `None` for patterns).
fn binding_name(text: &str) -> Option<String> {
    let at = find_word(text, "let").into_iter().next()?;
    let rest = text.get(at + 3..)?;
    let mut name = String::new();
    for c in rest.chars() {
        if c.is_alphanumeric() || c == '_' {
            name.push(c);
        } else if !name.is_empty() {
            if name == "mut" {
                name.clear();
                continue;
            }
            break;
        } else if !c.is_whitespace() {
            return None;
        }
    }
    (!name.is_empty() && name != "mut").then_some(name)
}

// ---------------------------------------------------------------- U1 ---

const U1_STRAY_HINT: &str = "move the call into crates/net/src/sys.rs behind a safe wrapper; \
     that file is the workspace's only unsafe code";
const U1_ROOT_HINT: &str = "keep `#![forbid(unsafe_code)]` at the crate root (the crate \
     holding sys.rs: `#![deny(unsafe_code)]`, with `#[allow(unsafe_code)]` on that module)";

/// U1 — unsafe confinement: the `unsafe` keyword appears only in
/// [`U1_FILE`], and every library crate root keeps the compiler-level
/// ban — `#![forbid(unsafe_code)]`, or `#![deny(unsafe_code)]` in the
/// crate that holds `U1_FILE` (forbid cannot be relaxed for one module).
/// Clippy's `undocumented_unsafe_blocks` asks each block there for its
/// justifying comment.
pub fn u1(files: &[SourceFile]) -> Vec<Finding> {
    let host = U1_FILE.split('/').nth(1);
    let mut out = Vec::new();
    for f in files {
        if f.rel != U1_FILE {
            for (k, text) in f.scanned.mask.iter().enumerate() {
                if !find_word(text, "unsafe").is_empty() {
                    out.push(finding(
                        "U1",
                        f,
                        k + 1,
                        format!("`unsafe` outside {U1_FILE}"),
                        U1_STRAY_HINT,
                    ));
                }
            }
        }
        if f.crate_root {
            let want = if f.crate_name.as_deref() == host {
                "#![deny(unsafe_code)]"
            } else {
                "#![forbid(unsafe_code)]"
            };
            let compact = |l: &String| l.split_whitespace().collect::<String>();
            if !f.scanned.mask.iter().any(|l| compact(l) == want) {
                out.push(finding(
                    "U1",
                    f,
                    1,
                    format!("crate root does not carry `{want}`"),
                    U1_ROOT_HINT,
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------- I1 ---

const I1_PAIR_HINT: &str = "IOA discipline (Figs. 9-11): every transition effect pairs with an \
     explicit precondition function (`*_pre` or `*_restriction`) and vice versa";
const I1_OBS_HINT: &str = "keep the observability vocabulary total: list the variant in \
     ObsEvent::ALL, match it in recorder.rs, emit it from the instrumented protocol \
     layers, and cover it with a journal/ioa test";

/// I1 — IOA discipline: (a) precondition/effect pairing of transition
/// functions in the algorithm crates; (b) the `vsgm-obs` event vocabulary
/// is total — every `ObsEvent` variant is listed in `ALL`, matched in
/// `recorder.rs`, emitted by instrumented code, and covered by a test.
pub fn i1(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(i1_pairing(files));
    out.extend(i1_obs(files));
    out
}

fn i1_pairing(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for krate in I1_CRATES {
        // name -> (file index, line) of every non-test `fn` in the crate.
        let mut fns: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            if f.kind != FileKind::Src || f.crate_name.as_deref() != Some(krate) {
                continue;
            }
            let toks = tokens(&f.scanned.mask);
            for pair in toks.windows(2) {
                if let [a, b] = pair {
                    let in_test = f
                        .scanned
                        .test_line
                        .get(a.line.saturating_sub(1))
                        .copied()
                        .unwrap_or(false);
                    if !in_test && a.ident && a.text == "fn" && b.ident {
                        fns.entry(b.text.clone()).or_insert((fi, b.line));
                    }
                }
            }
        }
        let base_of = |name: &str, suffix: &str| {
            name.strip_suffix(suffix).map(str::to_string)
        };
        let pres: BTreeSet<String> = fns
            .keys()
            .filter_map(|n| {
                base_of(n, "_pre")
                    .or_else(|| base_of(n, "_restriction"))
                    .or_else(|| base_of(n, "_restriction_with"))
            })
            .collect();
        let effs: BTreeSet<String> =
            fns.keys().filter_map(|n| base_of(n, "_eff")).collect();
        for (name, (fi, line)) in &fns {
            if let Some(base) = base_of(name, "_eff") {
                if !pres.contains(&base) {
                    if let Some(f) = files.get(*fi) {
                        out.push(finding(
                            "I1",
                            f,
                            *line,
                            format!(
                                "transition effect `{name}` has no matching precondition \
                                 (`{base}_pre` / `{base}_restriction`) in crate `{krate}`"
                            ),
                            I1_PAIR_HINT,
                        ));
                    }
                }
            } else if let Some(base) = base_of(name, "_pre") {
                if !effs.contains(&base) {
                    if let Some(f) = files.get(*fi) {
                        out.push(finding(
                            "I1",
                            f,
                            *line,
                            format!(
                                "precondition `{name}` has no matching effect `{base}_eff` \
                                 in crate `{krate}`"
                            ),
                            I1_PAIR_HINT,
                        ));
                    }
                }
            }
        }
    }
    out
}

/// `(enum-variant name, line)` pairs of `pub enum <name>` in the file.
pub fn enum_variants(file: &SourceFile, enum_name: &str) -> Vec<(String, usize)> {
    let toks = tokens(&file.scanned.mask);
    let mut i = 0usize;
    // Find `enum <enum_name> {`.
    while i < toks.len() {
        let is_start = toks.get(i).is_some_and(|t| t.ident && t.text == "enum")
            && toks.get(i + 1).is_some_and(|t| t.ident && t.text == enum_name)
            && toks.get(i + 2).is_some_and(|t| t.text == "{");
        if is_start {
            break;
        }
        i += 1;
    }
    if i >= toks.len() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut expect_variant = false;
    let mut j = i + 2;
    while let Some(t) = toks.get(j) {
        match t.text.as_str() {
            "{" | "(" | "[" => {
                depth += 1;
                if depth == 1 {
                    expect_variant = true;
                }
            }
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => expect_variant = true,
            "#" if depth == 1 => {} // variant attribute: idents inside are at depth 2
            _ => {
                if depth == 1 && expect_variant && t.ident {
                    out.push((t.text.clone(), t.line));
                    expect_variant = false;
                }
            }
        }
        j += 1;
    }
    out
}

/// All `Prefix::Variant` references in a token stream, with the line of
/// each and whether that line is test code.
fn path_refs(toks: &[Tok], prefix: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for w in toks.windows(4) {
        if let [a, c1, c2, b] = w {
            if a.ident && a.text == prefix && c1.text == ":" && c2.text == ":" && b.ident {
                out.push((b.text.clone(), b.line));
            }
        }
    }
    out
}

fn is_test_at(f: &SourceFile, line: usize) -> bool {
    f.kind == FileKind::TestsDir
        || f.scanned.test_line.get(line.saturating_sub(1)).copied().unwrap_or(false)
}

fn i1_obs(files: &[SourceFile]) -> Vec<Finding> {
    let Some((efi, event_file)) = files
        .iter()
        .enumerate()
        .find(|(_, f)| f.crate_name.as_deref() == Some("obs") && f.rel.ends_with("src/event.rs"))
    else {
        return Vec::new();
    };
    let variants = enum_variants(event_file, "ObsEvent");
    if variants.is_empty() {
        return Vec::new();
    }

    // `ObsEvent::X` occurrences inside the `const ALL: ... = [...];`
    // declaration of event.rs (everything from `const ALL` to the `;`
    // that ends the item, so the type annotation's brackets don't
    // confuse the span).
    let etoks = tokens(&event_file.scanned.mask);
    let mut in_all: BTreeSet<String> = BTreeSet::new();
    let mut k = 0usize;
    while k < etoks.len() {
        let is_decl = etoks.get(k).is_some_and(|t| t.ident && t.text == "const")
            && etoks.get(k + 1).is_some_and(|t| t.ident && t.text == "ALL");
        if is_decl {
            let mut depth = 0i64;
            let mut j = k + 2;
            let start = j;
            while let Some(t) = etoks.get(j) {
                match t.text.as_str() {
                    "[" | "(" | "{" => depth += 1,
                    "]" | ")" | "}" => depth -= 1,
                    ";" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let slice = etoks.get(start..j).unwrap_or(&[]);
            for (v, _) in path_refs(slice, "ObsEvent") {
                in_all.insert(v);
            }
        }
        k += 1;
    }

    // Where each variant is referenced across the workspace.
    let mut matched_in_recorder: BTreeSet<String> = BTreeSet::new();
    let mut emitted: BTreeSet<String> = BTreeSet::new();
    let mut tested: BTreeSet<String> = BTreeSet::new();
    for (fi, f) in files.iter().enumerate() {
        let toks = tokens(&f.scanned.mask);
        for (v, line) in path_refs(&toks, "ObsEvent") {
            if f.rel.ends_with("obs/src/recorder.rs") && !is_test_at(f, line) {
                matched_in_recorder.insert(v.clone());
            }
            if is_test_at(f, line) {
                tested.insert(v.clone());
            } else if fi != efi
                && f.kind == FileKind::Src
                && f.crate_name.as_deref() != Some("obs")
            {
                emitted.insert(v);
            }
        }
    }

    let mut out = Vec::new();
    for (v, line) in &variants {
        let mut missing = Vec::new();
        if !in_all.contains(v) {
            missing.push("not listed in ObsEvent::ALL");
        }
        if !matched_in_recorder.contains(v) {
            missing.push("not matched in obs/src/recorder.rs");
        }
        if !emitted.contains(v) {
            missing.push("never emitted by instrumented protocol code");
        }
        if !tested.contains(v) {
            missing.push("not covered by any journal/ioa test");
        }
        if !missing.is_empty() {
            out.push(finding(
                "I1",
                event_file,
                *line,
                format!("ObsEvent::{v}: {}", missing.join("; ")),
                I1_OBS_HINT,
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- C1 ---

const C1_HINT: &str = "add a trace-checker test feeding this action to the spec automaton \
     (module test, crates/spec/tests, or the workspace tests/ suites)";

/// C1 — spec coverage: every `Event::X` action a spec automaton in
/// `crates/spec` matches must be exercised by at least one trace-checker
/// test somewhere in the workspace.
pub fn c1(files: &[SourceFile]) -> Vec<Finding> {
    // The test corpus: Event::X references on test lines anywhere.
    let mut tested: BTreeSet<String> = BTreeSet::new();
    for f in files {
        let toks = tokens(&f.scanned.mask);
        for (v, line) in path_refs(&toks, "Event") {
            if is_test_at(f, line) {
                tested.insert(v);
            }
        }
    }
    let mut out = Vec::new();
    for f in files {
        if f.kind != FileKind::Src || f.crate_name.as_deref() != Some("spec") {
            continue;
        }
        let toks = tokens(&f.scanned.mask);
        // First non-test reference per variant in this module.
        let mut first: BTreeMap<String, usize> = BTreeMap::new();
        for (v, line) in path_refs(&toks, "Event") {
            if !is_test_at(f, line) {
                first.entry(v).or_insert(line);
            }
        }
        for (v, line) in first {
            if !tested.contains(&v) {
                out.push(finding(
                    "C1",
                    f,
                    line,
                    format!("spec action `Event::{v}` is not exercised by any trace-checker test"),
                    C1_HINT,
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------- A1 ---

/// The endpoint state definition A1 audits…
pub const A1_STATE_FILE: &str = "crates/core/src/state.rs";
/// …and the `StateAudit` pass that must read every field of it.
pub const A1_AUDIT_FILE: &str = "crates/core/src/audit.rs";

const A1_HINT: &str = "extend vsgm_core::audit with a legal-state check that reads this \
     field — corruption of a field the audit never looks at survives every tick \
     undetected — or waive with `// vsgm-allow(A1): <why corruption here is benign>`";

/// A1 — audit coverage: every field of the endpoint `State` struct
/// ([`A1_STATE_FILE`]) is referenced by the `StateAudit` pass
/// ([`A1_AUDIT_FILE`]), non-test code only. The self-stabilization tier
/// (DESIGN.md §15) claims convergence from *any* corrupted state; a
/// `State` field the audit never reads is a blind spot that silently
/// narrows the claim to "converges unless that field is hit", so new
/// fields are deny-by-default until a check covers them.
pub fn a1(files: &[SourceFile]) -> Vec<Finding> {
    let Some(state) = files.iter().find(|f| f.rel == A1_STATE_FILE) else {
        return Vec::new();
    };
    let audited: BTreeSet<String> = files
        .iter()
        .find(|f| f.rel == A1_AUDIT_FILE)
        .map(|audit| {
            tokens(&audit.scanned.mask)
                .into_iter()
                .filter(|t| t.ident && !is_test_at(audit, t.line))
                .map(|t| t.text)
                .collect()
        })
        .unwrap_or_default();
    let mut out = Vec::new();
    for (name, line) in fields_of_struct(state, "State") {
        if !audited.contains(&name) {
            out.push(finding(
                "A1",
                state,
                line,
                format!("State field `{name}` is read by no StateAudit check"),
                A1_HINT,
            ));
        }
    }
    out
}

/// `(field name, line)` pairs of the named struct's fields in the file.
/// Like [`struct_fields`], but anchored to one struct by name; angle
/// brackets are depth-tracked so `::` paths and generic arguments in
/// field types are never mistaken for field names.
fn fields_of_struct(file: &SourceFile, struct_name: &str) -> Vec<(String, usize)> {
    let toks = tokens(&file.scanned.mask);
    let mut i = 0usize;
    while i < toks.len() {
        let is_start = toks.get(i).is_some_and(|t| t.ident && t.text == "struct")
            && toks.get(i + 1).is_some_and(|t| t.ident && t.text == struct_name);
        if is_start {
            break;
        }
        i += 1;
    }
    // Skip generics to the body opener, bailing on tuple/unit structs.
    let mut j = i + 2;
    let mut angle = 0i64;
    let mut body = None;
    while let Some(t) = toks.get(j) {
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "{" if angle == 0 => {
                body = Some(j);
                break;
            }
            ";" | "(" if angle == 0 => break,
            _ => {}
        }
        j += 1;
    }
    let Some(open) = body else {
        return Vec::new();
    };
    // Walk the body at depth 1: a field name is an identifier followed
    // by a single `:` (two would be a path separator inside a type).
    let mut out = Vec::new();
    let mut depth = 1i64;
    angle = 0;
    let mut k = open + 1;
    while let Some(t) = toks.get(k) {
        match t.text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "<" if depth == 1 => angle += 1,
            ">" if depth == 1 => angle -= 1,
            _ => {}
        }
        if depth == 1
            && angle == 0
            && t.ident
            && toks.get(k + 1).is_some_and(|n| n.text == ":")
            && toks.get(k + 2).is_none_or(|n| n.text != ":")
        {
            out.push((t.text.clone(), t.line));
        }
        k += 1;
    }
    out
}
