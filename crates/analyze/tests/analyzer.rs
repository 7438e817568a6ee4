//! End-to-end analyzer tests: tempdir fixture workspaces seeded with one
//! violation per rule, waiver-placement semantics, and the zero-exit
//! guarantee on the real tree (which `scripts/check.sh` relies on).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use vsgm_analyze::analyze_root;

/// Materializes a throwaway workspace under `CARGO_TARGET_TMPDIR` with
/// the given `(relative path, contents)` files plus a root `Cargo.toml`.
fn fixture(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear stale fixture");
    }
    for (rel, content) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("create fixture dirs");
        fs::write(&path, content).expect("write fixture file");
    }
    fs::create_dir_all(root.join("crates")).expect("create crates dir");
    fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write root manifest");
    root
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

// ---------------------------------------------------------------- D1 ---

#[test]
fn d1_flags_hash_collections_and_ambient_randomness() {
    let root = fixture(
        "d1-dirty",
        &[(
            "crates/core/src/lib.rs",
            "use std::collections::HashMap;\n\
             pub fn r() -> u64 { rand::random() }\n",
        )],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    let hits: Vec<(&str, usize)> =
        report.findings.iter().map(|f| (f.rule.as_str(), f.line)).collect();
    assert!(hits.contains(&("D1", 1)), "HashMap not flagged: {:?}", report.findings);
    assert!(hits.contains(&("D1", 2)), "rand::random not flagged: {:?}", report.findings);
    let first = report.findings.first().expect("at least one finding");
    assert_eq!(first.file, "crates/core/src/lib.rs");
    assert!(!first.hint.is_empty(), "findings carry a fix hint");
}

#[test]
fn d1_ignores_crates_outside_its_scope() {
    let root = fixture(
        "d1-out-of-scope",
        &[("crates/harness/src/lib.rs", "use std::collections::HashMap;\n")],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    assert!(report.is_clean(), "harness is not a D1 crate: {:?}", report.findings);
}

#[test]
fn d1_covers_the_wire_codec_by_path() {
    // `net` as a whole is exempt from D1 (real transports need ambient
    // time), but the wire codec is pinned to the determinism bar by file
    // path: its byte output backs golden vectors and cross-peer interop.
    let root = fixture(
        "d1-codec-file",
        &[
            (
                "crates/net/src/codec.rs",
                "use std::collections::HashMap;\npub fn f() {}\n",
            ),
            ("crates/net/src/tcp.rs", "use std::collections::HashMap;\npub fn g() {}\n"),
        ],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    let d1_files: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "D1")
        .map(|f| f.file.as_str())
        .collect();
    assert!(
        d1_files.contains(&"crates/net/src/codec.rs"),
        "codec.rs must be D1-covered: {:?}",
        report.findings
    );
    assert!(
        !d1_files.contains(&"crates/net/src/tcp.rs"),
        "the rest of net stays out of D1 scope: {:?}",
        report.findings
    );
}

#[test]
fn d1_covers_the_batching_stage_by_path() {
    // `batch.rs` sits inside the D1 crate `core` *and* is pinned by file
    // path: frame boundaries must be a function of inputs (Input::Tick),
    // or the batching differential suite stops being replayable. The
    // explicit entry keeps the file covered even if the crate list is
    // ever reorganized.
    assert!(
        vsgm_analyze::rules::D1_FILES.contains(&"crates/core/src/batch.rs"),
        "batch.rs must be pinned in D1_FILES: {:?}",
        vsgm_analyze::rules::D1_FILES
    );
    let root = fixture(
        "d1-batch-file",
        &[("crates/core/src/batch.rs", "use std::collections::HashMap;\npub fn f() {}\n")],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    let d1_files: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "D1")
        .map(|f| f.file.as_str())
        .collect();
    assert!(
        d1_files.contains(&"crates/core/src/batch.rs"),
        "batch.rs must be D1-covered: {:?}",
        report.findings
    );
}

// ---------------------------------------------------------------- P1 ---

#[test]
fn p1_flags_panics_and_indexing_but_not_test_code() {
    let root = fixture(
        "p1-dirty",
        &[(
            "crates/net/src/lib.rs",
            "pub fn f(xs: &[u8]) -> u8 {\n\
                 let v = Some(1u8).unwrap();\n\
                 if xs.is_empty() { panic!(\"boom\") }\n\
                 v + xs[0]\n\
             }\n\
             \n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn t() {\n\
                     Some(2u8).unwrap();\n\
                 }\n\
             }\n",
        )],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    assert!(report.findings.iter().all(|f| f.rule == "P1"), "{:?}", report.findings);
    let lines: Vec<usize> = report.findings.iter().map(|f| f.line).collect();
    assert!(lines.contains(&2), "unwrap not flagged: {:?}", report.findings);
    assert!(lines.contains(&3), "panic! not flagged: {:?}", report.findings);
    assert!(lines.contains(&4), "indexing not flagged: {:?}", report.findings);
    assert!(!lines.contains(&11), "cfg(test) region must be exempt: {:?}", report.findings);
}

#[test]
fn p1_ignores_tests_directories() {
    let root = fixture(
        "p1-tests-dir",
        &[("crates/core/tests/endpoint.rs", "#[test]\nfn t() { Some(1).unwrap(); }\n")],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    assert!(report.is_clean(), "tests/ dirs are exempt: {:?}", report.findings);
}

// ---------------------------------------------------------------- I1 ---

#[test]
fn i1_flags_unpaired_transition_functions() {
    let root = fixture(
        "i1-pairing",
        &[(
            "crates/core/src/lib.rs",
            "pub fn deliver_eff() {}\n\
             pub fn send_pre() -> bool { true }\n\
             pub fn install_pre() -> bool { true }\n\
             pub fn install_eff() {}\n",
        )],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("deliver_eff") && m.contains("no matching precondition")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("send_pre") && m.contains("no matching effect")),
        "{msgs:?}"
    );
    assert!(
        !msgs.iter().any(|m| m.contains("install")),
        "paired install_pre/install_eff must not be flagged: {msgs:?}"
    );
}

#[test]
fn i1_flags_incomplete_obs_vocabulary() {
    let root = fixture(
        "i1-obs",
        &[
            (
                "crates/obs/src/event.rs",
                "pub enum ObsEvent { MsgSent, MsgDropped }\n\
                 impl ObsEvent {\n\
                     pub const ALL: [ObsEvent; 2] = [ObsEvent::MsgSent, ObsEvent::MsgDropped];\n\
                 }\n",
            ),
            (
                "crates/obs/src/recorder.rs",
                "pub fn role(e: super::ObsEvent) {\n\
                     match e { ObsEvent::MsgSent => {} _ => {} }\n\
                 }\n",
            ),
            ("crates/core/src/lib.rs", "pub fn emit() { observe(ObsEvent::MsgSent); }\n"),
            ("crates/core/tests/journal.rs", "#[test]\nfn t() { check(ObsEvent::MsgSent); }\n"),
        ],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    // MsgSent is listed, matched, emitted, and tested: clean.
    assert!(
        !report.findings.iter().any(|f| f.message.contains("MsgSent:")),
        "{:?}",
        report.findings
    );
    // MsgDropped is in ALL but matched nowhere else: one finding naming
    // each missing obligation.
    let dropped: Vec<_> =
        report.findings.iter().filter(|f| f.message.contains("MsgDropped")).collect();
    assert_eq!(dropped.len(), 1, "{:?}", report.findings);
    let d = dropped.first().expect("checked nonempty");
    assert_eq!(d.rule, "I1");
    assert_eq!(d.file, "crates/obs/src/event.rs");
    assert!(d.message.contains("not matched in obs/src/recorder.rs"), "{}", d.message);
    assert!(d.message.contains("never emitted"), "{}", d.message);
    assert!(d.message.contains("not covered by any journal/ioa test"), "{}", d.message);
}

// ---------------------------------------------------------------- C1 ---

#[test]
fn c1_flags_spec_actions_without_trace_tests() {
    let root = fixture(
        "c1-dirty",
        &[
            (
                "crates/spec/src/lib.rs",
                "pub fn observe(e: &Event) {\n\
                     match e { Event::Send => {} Event::Crash => {} _ => {} }\n\
                 }\n",
            ),
            ("crates/spec/tests/trace.rs", "#[test]\nfn t() { drive(Event::Send); }\n"),
        ],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    let c1: Vec<_> = report.findings.iter().filter(|f| f.rule == "C1").collect();
    assert_eq!(c1.len(), 1, "{:?}", report.findings);
    let f = c1.first().expect("checked nonempty");
    assert!(f.message.contains("Event::Crash"), "{}", f.message);
    assert!(!report.findings.iter().any(|f| f.message.contains("Event::Send")));
}

// ----------------------------------------------------------- waivers ---

const HASHMAP_LINE: &str = "use std::collections::HashMap;";

fn analyze_one(name: &str, core_lib: &str) -> vsgm_analyze::Report {
    let root = fixture(name, &[("crates/core/src/lib.rs", core_lib)]);
    analyze_root(&root, None).expect("analyze fixture")
}

#[test]
fn waiver_on_the_finding_line_suppresses() {
    let src = format!("{HASHMAP_LINE} // vsgm-allow(D1): lookup only, never iterated\n");
    let report = analyze_one("waive-inline", &src);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.waived, 1);
}

#[test]
fn waiver_in_the_comment_block_above_suppresses() {
    let src = format!(
        "// This map is keyed by ProcessId but only ever probed.\n\
         // vsgm-allow(D1): lookup only, never iterated\n\
         {HASHMAP_LINE}\n"
    );
    let report = analyze_one("waive-above", &src);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.waived, 1);
}

#[test]
fn blank_line_breaks_the_waiver_chain() {
    let src = format!("// vsgm-allow(D1): too far away\n\n{HASHMAP_LINE}\n");
    let report = analyze_one("waive-gap", &src);
    // The HashMap is flagged, and the now-orphaned waiver is flagged too.
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, vec!["W0", "D1"], "{:?}", report.findings);
    assert_eq!(report.waived, 0);
}

#[test]
fn waiver_for_another_rule_does_not_suppress() {
    let src = format!("{HASHMAP_LINE} // vsgm-allow(P1): names the wrong rule\n");
    let report = analyze_one("waive-wrong-rule", &src);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    // The D1 finding survives, and the P1 waiver — which suppresses
    // nothing — is itself reported stale.
    assert_eq!(rules, vec!["D1", "W0"], "{:?}", report.findings);
}

#[test]
fn reasonless_waiver_is_ignored_and_reported_as_w0() {
    let src = format!("{HASHMAP_LINE} // vsgm-allow(D1)\n");
    let report = analyze_one("waive-no-reason", &src);
    let rules: BTreeSet<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    assert!(rules.contains("D1"), "reasonless waiver must not suppress: {:?}", report.findings);
    assert!(rules.contains("W0"), "reasonless waiver must be reported: {:?}", report.findings);
    assert_eq!(report.waived, 0);
}

// ----------------------------------------------- rule selection & CLI ---

#[test]
fn rule_selection_runs_only_the_requested_rules() {
    let root = fixture(
        "select-rules",
        &[(
            "crates/core/src/lib.rs",
            "use std::collections::HashMap;\npub fn f() { None::<u8>.unwrap(); }\n",
        )],
    );
    let only_p1: BTreeSet<String> = ["P1".to_string()].into_iter().collect();
    let report = analyze_root(&root, Some(&only_p1)).expect("analyze fixture");
    assert!(report.findings.iter().all(|f| f.rule == "P1"), "{:?}", report.findings);
    assert!(!report.findings.is_empty());
}

#[test]
fn cli_exits_nonzero_on_findings_and_zero_on_the_real_tree() {
    let bin = env!("CARGO_BIN_EXE_vsgm-analyze");
    let dirty = fixture("cli-dirty", &[("crates/core/src/lib.rs", "use std::collections::HashMap;\n")]);

    let out = std::process::Command::new(bin)
        .args(["--root", dirty.to_str().expect("utf-8 path")])
        .output()
        .expect("run vsgm-analyze");
    assert_eq!(out.status.code(), Some(1), "dirty tree must exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("D1") && text.contains("crates/core/src/lib.rs:1"), "{text}");

    let repo = repo_root();
    let out = std::process::Command::new(bin)
        .args(["--root", repo.to_str().expect("utf-8 path"), "--format", "json"])
        .output()
        .expect("run vsgm-analyze");
    assert_eq!(
        out.status.code(),
        Some(0),
        "the real tree must be clean: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let out = std::process::Command::new(bin)
        .arg("--definitely-not-a-flag")
        .output()
        .expect("run vsgm-analyze");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
}

// ---------------------------------------------------------------- R1 ---

#[test]
fn r1_flags_lock_fields_without_a_tier_and_accepts_declared_ones() {
    let root = fixture(
        "r1-fields",
        &[(
            "crates/net/src/lib.rs",
            "pub struct Q {\n\
                 bare: std::sync::Mutex<u8>,\n\
                 // vsgm-lock-tier(1): leaf lock, nothing nests inside\n\
                 tiered: std::sync::Mutex<u8>,\n\
                 wrapped: std::sync::Arc<std::sync::RwLock<u8>>,\n\
                 cv: std::sync::Condvar,\n\
                 plain: u64,\n\
             }\n",
        )],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    let r1: Vec<usize> =
        report.findings.iter().filter(|f| f.rule == "R1").map(|f| f.line).collect();
    assert_eq!(r1, vec![2, 5, 6], "bare/wrapped/cv need tiers, tiered and plain do not: {:?}", report.findings);
    assert!(
        report.findings.iter().any(|f| f.message.contains("`bare`")),
        "{:?}",
        report.findings
    );
}

#[test]
fn r1_flags_blocking_calls_under_a_held_guard() {
    let root = fixture(
        "r1-guard",
        &[(
            "crates/net/src/lib.rs",
            "pub fn held(m: &std::sync::Mutex<u8>) {\n\
                 let g = m.lock().unwrap();\n\
                 std::thread::sleep(std::time::Duration::from_millis(1));\n\
                 drop(g);\n\
             }\n\
             pub fn released(m: &std::sync::Mutex<u8>) {\n\
                 let g = m.lock().unwrap();\n\
                 drop(g);\n\
                 std::thread::sleep(std::time::Duration::from_millis(1));\n\
             }\n\
             pub fn copied_out(m: &std::sync::Mutex<Vec<u8>>) {\n\
                 let v = m.lock().unwrap().clone();\n\
                 std::thread::sleep(std::time::Duration::from_millis(v.len() as u64));\n\
             }\n",
        )],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    let r1: Vec<usize> =
        report.findings.iter().filter(|f| f.rule == "R1").map(|f| f.line).collect();
    // Only the sleep at line 3 runs under a live guard: line 9 sleeps
    // after an explicit drop, line 13 bound a *clone* through a
    // statement-scoped guard temporary.
    assert_eq!(r1, vec![3], "{:?}", report.findings);
}

#[test]
fn r1_scrutinee_guards_live_for_their_block_and_condvar_wait_is_exempt() {
    let root = fixture(
        "r1-scrutinee",
        &[(
            "crates/net/src/lib.rs",
            "pub fn f(m: &std::sync::Mutex<Option<u8>>, cv: &std::sync::Condvar) {\n\
                 if let Ok(g) = m.lock() {\n\
                     std::thread::sleep(std::time::Duration::from_millis(1));\n\
                     let _g2 = cv.wait(g);\n\
                 }\n\
                 std::thread::sleep(std::time::Duration::from_millis(1));\n\
             }\n",
        )],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    let r1: Vec<usize> =
        report.findings.iter().filter(|f| f.rule == "R1").map(|f| f.line).collect();
    // Line 3 sleeps inside the if-let (scrutinee temporaries live for
    // the whole block); line 4's condvar wait is the *correct* pattern
    // and exempt; line 6 is outside the block.
    assert_eq!(r1, vec![3], "{:?}", report.findings);
}

#[test]
fn r1_only_covers_the_net_crate() {
    let root = fixture(
        "r1-scope",
        &[("crates/harness/src/lib.rs", "pub struct S { m: std::sync::Mutex<u8> }\n")],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    assert!(
        !report.findings.iter().any(|f| f.rule == "R1"),
        "harness is not an R1 crate: {:?}",
        report.findings
    );
}

#[test]
fn r1_pins_the_event_loop_transport_modules_by_path() {
    // The event-loop core is pinned by file path, not just by crate: a
    // guard held across a blocking call there stalls every connection
    // the loop owns, so a future reorganization of R1_CRATES must not
    // silently drop these files.
    for pinned in
        ["crates/net/src/tcp.rs", "crates/net/src/evloop.rs", "crates/net/src/writer.rs"]
    {
        assert!(
            vsgm_analyze::rules::R1_FILES.contains(&pinned),
            "{pinned} must be pinned in R1_FILES: {:?}",
            vsgm_analyze::rules::R1_FILES
        );
    }
    // And the pin actually maps through to findings.
    let root = fixture(
        "r1-evloop-file",
        &[(
            "crates/net/src/evloop.rs",
            "pub struct L { inbox: std::sync::Mutex<Vec<u8>> }\n",
        )],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    assert!(
        report.findings.iter().any(|f| f.rule == "R1" && f.file.ends_with("evloop.rs")),
        "a tierless lock field in evloop.rs must be R1-covered: {:?}",
        report.findings
    );
}

#[test]
fn malformed_tier_declarations_are_reported_as_w0() {
    let root = fixture(
        "r1-bad-tier",
        &[(
            "crates/net/src/lib.rs",
            "pub struct Q {\n\
                 // vsgm-lock-tier(one): tier must be a number\n\
                 m: std::sync::Mutex<u8>,\n\
             }\n",
        )],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    // The malformed declaration does not count as a tier (R1 still
    // fires) and is itself flagged.
    assert_eq!(rules, vec!["W0", "R1"], "{:?}", report.findings);
}

// ---------------------------------------------------------------- T1 ---

#[test]
fn t1_flags_ambient_clock_reads_outside_the_net_crate() {
    let root = fixture(
        "t1-dirty",
        &[
            (
                // `harness` is in T1's scope but not D1's, isolating T1.
                "crates/harness/src/lib.rs",
                "pub fn a() -> std::time::Instant { std::time::Instant::now() }\n\
                 pub fn b(t: std::time::Instant) -> std::time::Duration { t.elapsed() }\n\
                 pub fn c() -> std::time::SystemTime { std::time::SystemTime::now() }\n",
            ),
            (
                "crates/net/src/clock.rs",
                "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
            ),
        ],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    let t1: Vec<(&str, usize)> = report
        .findings
        .iter()
        .filter(|f| f.rule == "T1")
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        t1,
        vec![
            ("crates/harness/src/lib.rs", 1),
            ("crates/harness/src/lib.rs", 2),
            ("crates/harness/src/lib.rs", 3),
        ],
        "all three harness reads flagged, net exempt: {:?}",
        report.findings
    );
}

#[test]
fn t1_alone_flags_the_clock_in_d1_crates_and_files() {
    // The clock is T1's: in a D1 crate and in a D1-pinned file of `net`
    // each read is one T1 finding, and D1 stays silent about it.
    let read = "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n";
    let root = fixture(
        "t1-d1-scope",
        &[("crates/core/src/lib.rs", read), ("crates/net/src/codec.rs", read)],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    let hits: Vec<(&str, &str)> =
        report.findings.iter().map(|f| (f.rule.as_str(), f.file.as_str())).collect();
    assert_eq!(
        hits,
        vec![("T1", "crates/core/src/lib.rs"), ("T1", "crates/net/src/codec.rs")],
        "{:?}",
        report.findings
    );
}

// ------------------------------------------------------ stale waivers ---

#[test]
fn waivers_that_suppress_nothing_are_flagged_stale() {
    // The code under the waiver was fixed, the waiver forgotten.
    let report = analyze_one(
        "waive-stale",
        "// vsgm-allow(D1): was a HashMap once\n\
         use std::collections::BTreeMap;\n\
         pub type T = BTreeMap<u8, u8>;\n",
    );
    let w0: Vec<&vsgm_analyze::Finding> =
        report.findings.iter().filter(|f| f.rule == "W0").collect();
    assert_eq!(w0.len(), 1, "{:?}", report.findings);
    let f = w0.first().expect("checked nonempty");
    assert!(f.message.contains("suppresses no finding"), "{}", f.message);
    assert_eq!(f.line, 1);
}

#[test]
fn stale_waiver_detection_needs_the_full_rule_set() {
    // With only P1 selected, a D1 waiver's target rule never ran, so
    // staleness cannot be judged — no W0 is emitted.
    let root = fixture(
        "waive-stale-selected",
        &[(
            "crates/core/src/lib.rs",
            "// vsgm-allow(D1): was a HashMap once\npub fn f() {}\n",
        )],
    );
    let only_p1: BTreeSet<String> = ["P1".to_string(), "W0".to_string()].into_iter().collect();
    let report = analyze_root(&root, Some(&only_p1)).expect("analyze fixture");
    assert!(report.is_clean(), "{:?}", report.findings);
}

// -------------------------------------------------------- real tree ---

/// The gate `scripts/check.sh` relies on: the workspace itself carries
/// zero unwaived findings, and its waivers are each justified in-source.
#[test]
fn real_workspace_is_clean() {
    let report = analyze_root(&repo_root(), None).expect("analyze the workspace");
    assert!(
        report.is_clean(),
        "the workspace must stay analyzer-clean:\n{:#?}",
        report.findings
    );
    assert!(report.files_scanned > 50, "walked the whole tree");
    assert!(report.waived >= 1, "the known transport/oracle waivers are counted");
}

/// The waiver budget, pinned per rule. Growing it is a reviewed event:
/// a new waiver must both carry an in-source justification *and* bump
/// the count here. (Shrinking is always welcome — the stale-waiver W0
/// sweep deletes the comment for you.)
#[test]
fn real_workspace_waiver_budget_is_pinned() {
    let report = analyze_root(&repo_root(), None).expect("analyze the workspace");
    let budget: Vec<(&str, usize)> =
        report.waived_by_rule.iter().map(|(r, n)| (r.as_str(), *n)).collect();
    assert_eq!(
        budget,
        vec![("P1", 4), ("R1", 1), ("T1", 4)],
        "the per-rule waiver counts moved — audit the new/removed waiver and re-pin"
    );
    assert_eq!(report.waived, 9);
    // All nine rules are registered (so `--rules R1,T1` is accepted).
    let ids: Vec<&str> = vsgm_analyze::rules::RULES.iter().map(|(r, _)| *r).collect();
    assert_eq!(ids, vec!["D1", "P1", "I1", "C1", "R1", "T1", "A1", "U1", "W0"]);
}

// ---------------------------------------------------------------- A1 ---

/// A fixture `State` with one audited and one unaudited field, plus an
/// audit pass that reads only the former.
fn a1_fixture(name: &str, state_extra: &str) -> PathBuf {
    fixture(
        name,
        &[
            (
                "crates/core/src/state.rs",
                &format!(
                    "pub struct Other {{ pub ghost_free: u64 }}\n\
                     pub struct State {{\n\
                         pub pid: u64,\n\
                         pub msgs: std::collections::BTreeMap<u64, u64>,\n\
                         {state_extra}\n\
                     }}\n"
                ),
            ),
            (
                "crates/core/src/audit.rs",
                "pub fn check(st: &crate::state::State) -> bool {\n\
                     st.pid == 0 && st.msgs.is_empty()\n\
                 }\n",
            ),
        ],
    )
}

#[test]
fn a1_flags_state_fields_the_audit_never_reads() {
    let root = a1_fixture("a1-blind-spot", "pub ghost: u64,");
    let only_a1: BTreeSet<String> = ["A1".to_string()].into_iter().collect();
    let report = analyze_root(&root, Some(&only_a1)).expect("analyze fixture");
    let hits: Vec<(&str, usize)> =
        report.findings.iter().map(|f| (f.rule.as_str(), f.line)).collect();
    // `ghost` (line 5 of state.rs) is unaudited; `pid`/`msgs` are read,
    // and `ghost_free` belongs to a different struct — not A1's concern.
    assert_eq!(hits, vec![("A1", 5)], "{:?}", report.findings);
    let f = report.findings.first().expect("one finding");
    assert_eq!(f.file, "crates/core/src/state.rs");
    assert!(f.message.contains("`ghost`"), "{}", f.message);
}

#[test]
fn a1_accepts_a_waived_blind_spot() {
    let root = a1_fixture(
        "a1-waived",
        "// vsgm-allow(A1): fixture field, corruption here is benign\n\
         pub ghost: u64,",
    );
    let only_a1: BTreeSet<String> = ["A1".to_string()].into_iter().collect();
    let report = analyze_root(&root, Some(&only_a1)).expect("analyze fixture");
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.waived, 1);
}

// ---------------------------------------------------------------- U1 ---

fn u1_findings(report: &vsgm_analyze::Report) -> Vec<(&str, usize)> {
    report.findings.iter().filter(|f| f.rule == "U1").map(|f| (f.file.as_str(), f.line)).collect()
}

#[test]
fn u1_pins_unsafe_to_the_sys_file_by_path() {
    assert_eq!(vsgm_analyze::rules::U1_FILE, "crates/net/src/sys.rs");
    let root = fixture(
        "u1-stray",
        &[
            ("crates/net/src/sys.rs", "// SAFETY: fixture invariant\npub fn a() { unsafe { g() } }\n"),
            ("crates/core/src/lib.rs", "pub fn b() {\n    unsafe { g() }\n}\n"),
            ("crates/net/src/tcp.rs", "// SAFETY: a comment does not make it the sys file\nunsafe fn c() {}\n"),
            ("crates/net/tests/t.rs", "#[test]\nfn t() { unsafe { g() } }\n"),
            // Prose and literals are not code.
            ("crates/spec/src/lib.rs", "// unsafe here is prose\npub const S: &str = \"unsafe\";\n"),
        ],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    assert_eq!(
        u1_findings(&report),
        vec![("crates/core/src/lib.rs", 2), ("crates/net/src/tcp.rs", 2), ("crates/net/tests/t.rs", 2)],
        "{:?}",
        report.findings
    );
}

#[test]
fn u1_requires_a_safety_comment_on_every_unsafe_block_in_the_sys_file() {
    let root = fixture(
        "u1-safety",
        &[(
            "crates/net/src/sys.rs",
            "pub fn a() -> i32 {\n\
                 // SAFETY: fixture invariant,\n\
                 // continued on a second line\n\
                 unsafe { g() }\n\
             }\n\
             pub fn b() -> i32 {\n\
                 unsafe { g() }\n\
             }\n\
             // SAFETY: too far away\n\
             \n\
             pub fn c() -> i32 { unsafe { g() } }\n\
             pub fn d() -> i32 { unsafe { g() } } // SAFETY: same line\n",
        )],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    assert_eq!(
        u1_findings(&report),
        vec![("crates/net/src/sys.rs", 7), ("crates/net/src/sys.rs", 11)],
        "{:?}",
        report.findings
    );
    assert!(report.findings.iter().any(|f| f.message.contains("SAFETY")), "{:?}", report.findings);
}

#[test]
fn u1_flags_a_crate_root_that_dropped_forbid_unsafe_code() {
    let root = fixture(
        "u1-roots",
        &[
            ("crates/core/Cargo.toml", "[package]\n"),
            ("crates/core/src/lib.rs", "//! Core.\n\npub fn f() {}\n"),
            ("crates/spec/Cargo.toml", "[package]\n"),
            ("crates/spec/src/lib.rs", "//! Spec.\n\n#![forbid(unsafe_code)]\n"),
            // The crate holding sys.rs denies instead (forbid cannot be
            // relaxed for one module); no other crate may.
            ("crates/net/Cargo.toml", "[package]\n"),
            ("crates/net/src/lib.rs", "#![deny(unsafe_code)]\n#[allow(unsafe_code)]\nmod sys;\n"),
            ("crates/obs/Cargo.toml", "[package]\n"),
            ("crates/obs/src/lib.rs", "#![deny(unsafe_code)]\n"),
            // No manifest: not a crate, so no root to check.
            ("crates/harness/src/lib.rs", "pub fn h() {}\n"),
        ],
    );
    let report = analyze_root(&root, None).expect("analyze fixture");
    assert_eq!(
        u1_findings(&report),
        vec![("crates/core/src/lib.rs", 1), ("crates/obs/src/lib.rs", 1)],
        "{:?}",
        report.findings
    );
    let core = report.findings.iter().find(|f| f.file == "crates/core/src/lib.rs").expect("core");
    assert!(core.message.contains("#![forbid(unsafe_code)]"), "{}", core.message);
}
