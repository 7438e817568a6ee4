//! The rules the compiler cannot state: I1 precondition/effect pairing
//! and R1 lock discipline. Determinism, the clock, panic-freedom, unsafe
//! confinement and audit coverage are the compiler's (`clippy.toml`, the
//! workspace lint wall and `audit::check`'s exhaustive destructure); the
//! `ObsEvent` vocabulary and spec coverage are tests' (DESIGN.md §10).
//!
//! Each rule is phrased over the code mask of [`crate::SourceFile`]s and
//! produces [`Finding`]s carrying the rule id, `file:line`, a message,
//! and a fix hint. Waivers are applied by the caller
//! ([`crate::analyze_root`]), not here.

use crate::scan::{find_word, tokens};
use crate::{Finding, SourceFile};
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

/// All rule identifiers the analyzer knows, with one-line descriptions.
pub const RULES: [(&str, &str); 3] = [
    ("I1", "IOA discipline: *_eff effects and *_pre/*_restriction preconditions come in pairs"),
    ("R1", "lock discipline: lock fields declare a vsgm-lock-tier; no guard held across a blocking call"),
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

fn in_crate(file: &SourceFile, crates: &[&str]) -> bool {
    crates.contains(&file.crate_name.as_str())
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
    let covered = |f: &&SourceFile| in_crate(f, &R1_CRATES) || R1_FILES.contains(&f.rel.as_str());
    for f in files.iter().filter(covered) {
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

// ---------------------------------------------------------------- I1 ---

const I1_HINT: &str = "IOA discipline (Figs. 9-11): every transition effect pairs with an \
     explicit precondition function (`*_pre` or `*_restriction`) and vice versa";

/// I1 — IOA discipline: precondition/effect pairing of transition
/// functions in the algorithm crates.
pub fn i1(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for krate in I1_CRATES {
        // name -> (file index, line) of every non-test `fn` in the crate.
        let mut fns: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            if f.crate_name != krate {
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
                            I1_HINT,
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
                            I1_HINT,
                        ));
                    }
                }
            }
        }
    }
    out
}
