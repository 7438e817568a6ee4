//! `vsgm-analyze` — a workspace protocol analyzer.
//!
//! The paper's algorithms (Figs. 9–11) refine its I/O-automaton specs
//! (Figs. 2–7); the refinement only means something while the Rust
//! implementation stays **deterministic**, **total**, and structured as
//! precondition/effect transitions. This crate walks the workspace
//! sources with a small hand-rolled token scanner (no `syn`; the build
//! environment is offline) and enforces exactly that discipline:
//!
//! | Rule | Enforces |
//! |---|---|
//! | `D1` | determinism: no `HashMap`/`HashSet`, no ambient randomness in protocol crates |
//! | `P1` | panic-freedom: no `unwrap`/`expect`/panicking macros/indexing in protocol code |
//! | `I1` | IOA discipline: `*_pre`/`*_eff` pairing; total `ObsEvent` vocabulary |
//! | `C1` | spec coverage: every spec action exercised by a trace-checker test |
//! | `R1` | lock discipline: lock fields declare a `vsgm-lock-tier`; no guard held across a blocking call |
//! | `T1` | clock discipline: time enters via `Input::Tick`/sim time, never the ambient clock |
//! | `A1` | audit coverage: every endpoint `State` field is read by at least one `StateAudit` check |
//! | `U1` | unsafe confinement: `unsafe` only in `crates/net/src/sys.rs`, each block under a `// SAFETY:` comment; every other crate root forbids `unsafe_code` |
//! | `W0` | waiver hygiene: `vsgm-allow`/`vsgm-lock-tier` comments must be well-formed, and every waiver must suppress something |
//!
//! Findings carry `file:line`, the rule id, and a fix hint. A finding is
//! suppressed by an inline waiver — `// vsgm-allow(RULE): reason` on the
//! same line or the comment block directly above — so every exception is
//! visible and justified in the source itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod rules;
pub mod scan;

use scan::Scanned;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Where a source file lives, which decides how rules treat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Under some `crates/<name>/src`: production code (modulo inline
    /// `#[cfg(test)]` regions, which the scanner marks).
    Src,
    /// Under a `tests/` directory (crate-level or workspace-level): test
    /// code, exempt from D1/P1 and counted as coverage for I1/C1.
    TestsDir,
}

/// One scanned workspace source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// The `crates/<name>` the file belongs to, if any.
    pub crate_name: Option<String>,
    /// Production or test location.
    pub kind: FileKind,
    /// The file is `crates/<name>/src/lib.rs` of a directory with a
    /// `Cargo.toml`: a library crate root (rule U1).
    pub crate_root: bool,
    /// Scanner output (code mask, test regions, waivers).
    pub scanned: Scanned,
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`D1`, `P1`, `I1`, `C1`, `W0`).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

/// The analyzer's result: surviving findings plus bookkeeping.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived waivers, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by well-formed waivers.
    pub waived: usize,
    /// Suppressed-finding counts keyed by rule id — the waiver budget.
    /// Tests pin these totals so a new waiver is a visible, reviewed
    /// event rather than silent drift.
    pub waived_by_rule: std::collections::BTreeMap<String, usize>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Scans every workspace source under `root` (`crates/*/{src,tests}` and
/// the top-level `tests/`) and runs the selected rules (`None` = all).
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn analyze_root(root: &Path, selected: Option<&BTreeSet<String>>) -> io::Result<Report> {
    let files = collect_files(root)?;
    let enabled = |r: &str| selected.is_none_or(|s| s.contains(r));
    let mut raw = Vec::new();
    if enabled("D1") {
        raw.extend(rules::d1(&files));
    }
    if enabled("P1") {
        raw.extend(rules::p1(&files));
    }
    if enabled("I1") {
        raw.extend(rules::i1(&files));
    }
    if enabled("C1") {
        raw.extend(rules::c1(&files));
    }
    if enabled("R1") {
        raw.extend(rules::r1(&files));
    }
    if enabled("T1") {
        raw.extend(rules::t1(&files));
    }
    if enabled("A1") {
        raw.extend(rules::a1(&files));
    }
    if enabled("U1") {
        raw.extend(rules::u1(&files));
    }

    // Apply waivers, attributing each suppression to the waiver comment
    // that did the suppressing so unused waivers can be flagged below.
    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    let mut used: BTreeSet<(String, usize)> = BTreeSet::new();
    for f in raw {
        let sf = files.iter().find(|sf| sf.rel == f.file);
        let waived = sf.is_some_and(|sf| sf.scanned.is_waived(&f.rule, f.line));
        if waived {
            report.waived += 1;
            *report.waived_by_rule.entry(f.rule.clone()).or_insert(0) += 1;
            if let Some(sf) = sf {
                for w in sf.scanned.waivers.iter().filter(|w| {
                    w.has_reason
                        && w.rules.iter().any(|r| r == &f.rule)
                        && sf.scanned.covers(w.line, f.line)
                }) {
                    used.insert((sf.rel.clone(), w.line));
                }
            }
        } else {
            report.findings.push(f);
        }
    }

    // Hygiene (W0): malformed waivers/tier declarations, and — when the
    // full rule set ran, so `used` is complete — waivers that suppress
    // nothing. The analyzer's own sources discuss the comment syntax in
    // prose, so they are exempt from the sweeps that key on that text.
    if enabled("W0") {
        let known: BTreeSet<&str> = rules::RULES.iter().map(|(r, _)| *r).collect();
        for sf in &files {
            let is_analyze = sf.crate_name.as_deref() == Some("analyze");
            for w in &sf.scanned.waivers {
                if !w.has_reason {
                    report.findings.push(Finding {
                        rule: "W0".to_string(),
                        file: sf.rel.clone(),
                        line: w.line,
                        message: format!(
                            "waiver for {} carries no reason and is ignored",
                            w.rules.join(", ")
                        ),
                        hint: "write `// vsgm-allow(RULE): <why the rule is safe to bend here>`"
                            .to_string(),
                    });
                }
            }
            for t in sf.scanned.tiers.iter().filter(|t| !t.is_well_formed() && !is_analyze) {
                report.findings.push(Finding {
                    rule: "W0".to_string(),
                    file: sf.rel.clone(),
                    line: t.line,
                    message: "malformed vsgm-lock-tier declaration (tier must be a number \
                              and a `: reason` must follow) — it is ignored"
                        .to_string(),
                    hint: "write `// vsgm-lock-tier(N): <what may be held when this is taken>`"
                        .to_string(),
                });
            }
            if selected.is_none() && !is_analyze {
                for w in &sf.scanned.waivers {
                    let in_test =
                        sf.scanned.test_line.get(w.line.saturating_sub(1)).copied().unwrap_or(false);
                    let all_known = w.rules.iter().all(|r| known.contains(r.as_str()));
                    if w.has_reason
                        && !in_test
                        && all_known
                        && !used.contains(&(sf.rel.clone(), w.line))
                    {
                        report.findings.push(Finding {
                            rule: "W0".to_string(),
                            file: sf.rel.clone(),
                            line: w.line,
                            message: format!(
                                "waiver for {} suppresses no finding — stale, delete it",
                                w.rules.join(", ")
                            ),
                            hint: "every waiver must buy an exception some rule would \
                                   otherwise flag; remove waivers the code has outgrown"
                                .to_string(),
                        });
                    }
                }
            }
        }
    }
    report.findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    Ok(report)
}

/// Walks `root` for the analyzable sources.
///
/// # Errors
///
/// Propagates I/O errors (unreadable directories or files).
pub fn collect_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let name = dir.file_name().and_then(|n| n.to_str()).map(str::to_string);
            let first_src = out.len();
            walk_rs(&dir.join("src"), root, name.clone(), FileKind::Src, &mut out)?;
            if dir.join("Cargo.toml").is_file() {
                let lib = format!("crates/{}/src/lib.rs", name.as_deref().unwrap_or(""));
                for f in out.iter_mut().skip(first_src) {
                    f.crate_root = f.rel == lib;
                }
            }
            walk_rs(&dir.join("tests"), root, name.clone(), FileKind::TestsDir, &mut out)?;
            walk_rs(&dir.join("benches"), root, name, FileKind::TestsDir, &mut out)?;
        }
    }
    walk_rs(&root.join("tests"), root, None, FileKind::TestsDir, &mut out)?;
    Ok(out)
}

fn walk_rs(
    dir: &Path,
    root: &Path,
    crate_name: Option<String>,
    kind: FileKind,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, root, crate_name.clone(), kind, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let src = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                rel,
                crate_name: crate_name.clone(),
                kind,
                crate_root: false,
                scanned: scan::scan(&src),
            });
        }
    }
    Ok(())
}

/// Searches upward from `start` for a directory that looks like the
/// workspace root (has both `Cargo.toml` and `crates/`).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}
