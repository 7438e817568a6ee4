//! The compiler's lint wall, read from `cargo clippy` runs over a copy of
//! the workspace with probe lines planted in it: determinism (D1),
//! panic-freedom (P1), the ambient clock (T1), unsafe confinement, audit
//! coverage, `#[expect]` hygiene, and the precondition/effect pairing of
//! the end-point's actions (I1). Each rule's probes sit both inside and
//! outside its scope.

use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

// -------------------------------------------------------- the lint wall ---

const MAP: &str = "pub fn probe_map() -> std::collections::HashMap<u8, u8> { Default::default() }";
const NOW: &str = "pub fn probe_now() -> std::time::Instant { std::time::Instant::now() }";
const EXPECT: &str = "pub fn probe_expect(x: Option<u8>) -> u8 { x.expect(\"probe\") }";
const UNSAFE: &str = "pub fn probe_unsafe() -> u8 { unsafe { std::ptr::read(&0u8) } }";

/// Lines planted into a copy of the workspace before the clippy runs:
/// `(name, file, code)`, the code appended to the file (created if
/// absent). Each rule's probes sit both inside and outside its scope.
const PROBES: &[(&str, &str, &str)] = &[
    // D1: clippy.toml's `disallowed-types`.
    ("map in core", "crates/core/src/lib.rs", MAP),
    ("set in core", "crates/core/src/lib.rs", "pub fn probe_set() -> std::collections::HashSet<u8> { Default::default() }"),
    ("map in the batching stage", "crates/core/src/batch.rs", MAP),
    ("map in the codec", "crates/net/src/codec.rs", MAP),
    ("map in tcp", "crates/net/src/tcp.rs", MAP),
    ("map in ioa", "crates/ioa/src/lib.rs", MAP),
    ("map in baseline", "crates/baseline/src/lib.rs", MAP),
    ("randomness in core", "crates/core/src/bin/lint_probe.rs", "fn main() { let _ = rand::thread_rng(); }"),
    ("randomness in ioa", "crates/ioa/src/bin/lint_probe.rs", "fn main() { let _ = rand::thread_rng(); let _: u64 = rand::random(); }"),
    // P1: the workspace lint wall.
    ("unwrap in core", "crates/core/src/lib.rs", "pub fn probe_unwrap(x: Option<u8>) -> u8 { x.unwrap() }"),
    ("expect in core", "crates/core/src/lib.rs", EXPECT),
    ("panic in core", "crates/core/src/lib.rs", "pub fn probe_panic() { panic!(\"probe\") }"),
    ("unreachable in core", "crates/core/src/lib.rs", "pub fn probe_unreachable() { unreachable!() }"),
    ("unimplemented in core", "crates/core/src/lib.rs", "pub fn probe_unimplemented() { unimplemented!() }"),
    ("todo in core", "crates/core/src/lib.rs", "pub fn probe_todo() { todo!() }"),
    ("dbg in core", "crates/core/src/lib.rs", "pub fn probe_dbg(x: u8) -> u8 { dbg!(x) }"),
    ("index in core", "crates/core/src/lib.rs", "pub fn probe_index(xs: &[u8]) -> u8 { xs[0] }"),
    ("slice in core", "crates/core/src/lib.rs", "pub fn probe_slice(xs: &[u8]) -> &[u8] { &xs[1..] }"),
    ("unwrap in core test code", "crates/core/src/lib.rs", "#[cfg(test)] mod probe_tests { pub fn probe(x: Option<u8>) -> u8 { x.unwrap() } }"),
    ("unwrap in a tests directory", "crates/core/tests/lint_probe.rs", "#[test] fn probe() { Some(1).unwrap(); }"),
    ("expect in explore", "crates/explore/src/lib.rs", EXPECT),
    // T1: clippy.toml's `disallowed-methods`.
    ("clock in core", "crates/core/src/lib.rs", NOW),
    ("clock in harness", "crates/harness/src/lib.rs", NOW),
    ("elapsed in harness", "crates/harness/src/lib.rs", "pub fn probe_elapsed(t: std::time::Instant) -> std::time::Duration { t.elapsed() }"),
    ("wall clock in harness", "crates/harness/src/lib.rs", "pub fn probe_wall() -> std::time::SystemTime { std::time::SystemTime::now() }"),
    ("clock in the codec", "crates/net/src/codec.rs", NOW),
    ("clock in tcp", "crates/net/src/tcp.rs", NOW),
    ("clock in the shard pool", "crates/server/src/shard.rs", NOW),
    ("clock in the daemon", "crates/server/src/server.rs", NOW),
    // Unsafe confinement: `[workspace.lints.rust]`, and the
    // `#[expect(unsafe_code)]` on `vsgm-net`'s `sys` module (the other
    // one, on the cost ledger's allocator, is in a test target).
    ("unsafe in core", "crates/core/src/lib.rs", UNSAFE),
    ("unsafe in tcp", "crates/net/src/tcp.rs", UNSAFE),
    ("unsafe in a core test", "crates/core/tests/lint_probe_unsafe.rs", "#[test] fn probe_unsafe() { let _ = unsafe { std::ptr::read(&0u8) }; }"),
    // The justifying comment on an unsafe block.
    ("bare unsafe block", "crates/net/src/sys.rs", "pub(crate) fn probe_bare() -> u8 { unsafe { std::ptr::read(&0u8) } }"),
    ("documented unsafe block", "crates/net/src/sys.rs", "pub(crate) fn probe_documented() -> u8 {\n    // SAFETY: reads a live local.\n    unsafe { std::ptr::read(&0u8) }\n}"),
    // Exceptions: `#[expect]` with a reason, fulfilled.
    ("stale expect", "crates/core/src/lib.rs", "#[expect(clippy::unwrap_used, reason = \"probe\")] pub fn probe_stale() {}"),
    ("reasonless expect", "crates/core/src/lib.rs", "#[expect(clippy::unwrap_used)] pub fn probe_reasonless(x: Option<u8>) -> u8 { x.unwrap() }"),
];

/// A field added to `State` and to its constructor, and read by no
/// audit check: `(after, insert)` edits to `crates/core/src/state.rs`.
const STATE_FIELD: [(&str, &str); 2] = [
    ("    pub crashed: bool,\n", "    pub probe: u8,\n"),
    ("            crashed: false,\n", "            probe: 0,\n"),
];

/// Two actions planted into `crates/core/src/endpoint.rs` with one half
/// each of a precondition/effect pair: `(after, insert)` edits. The
/// halves are arms of `Endpoint::pre`'s and `Endpoint::fire`'s
/// matches, so each probe leaves the other match non-exhaustive.
const ACTION_PROBES: [(&str, &str); 3] = [
    ("    SendAck,\n", "    ProbeEffectOnly,\n    ProbePreOnly,\n"),
    (
        "            Action::SendAck => stability::send_ack_pre(&self.st),\n",
        "            Action::ProbePreOnly => false,\n",
    ),
    (
        "                out.push(Effect::SetReliable(target));\n            }\n",
        "            Action::ProbeEffectOnly => {}\n",
    ),
];

/// The I1 probes, each named by the missing half, with the function whose
/// match must then fail to build.
const ACTION_MATCHES: [(&str, &str); 2] = [
    ("an effect with no precondition", "    pub fn pre("),
    ("a precondition with no effect", "    pub fn fire("),
];

/// What clippy reported on a probed copy of the workspace.
struct Wall {
    /// Lint or error codes by `(file, line)` of their primary span.
    codes: BTreeMap<(String, usize), BTreeSet<String>>,
    /// Each probe's file and lines.
    probes: BTreeMap<&'static str, (&'static str, RangeInclusive<usize>)>,
}

/// Copies the workspace (no `target/`, no hidden entries) under
/// `CARGO_TARGET_TMPDIR`, plants [`PROBES`], and runs `cargo clippy` over
/// it in its own target directory, with every lint capped at `warn` so
/// that no crate's findings stop its dependents being checked. Three
/// probes need runs of their own after that one: the test target holding
/// `unsafe`, which a plain clippy run does not build, and
/// [`ACTION_PROBES`] and [`STATE_FIELD`], which each stop `vsgm-core`
/// building at all.
fn wall() -> &'static Wall {
    static WALL: OnceLock<Wall> = OnceLock::new();
    WALL.get_or_init(|| {
        let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-wall");
        let tree = base.join("tree");
        if tree.exists() {
            fs::remove_dir_all(&tree).expect("clear the last copy");
        }
        copy_sources(&repo_root(), &tree);
        let mut probes = BTreeMap::new();
        for &(name, file, code) in PROBES {
            let path = tree.join(file);
            fs::create_dir_all(path.parent().expect("probe paths have parents"))
                .expect("create probe dirs");
            let mut text = fs::read_to_string(&path).unwrap_or_default();
            if !text.is_empty() && !text.ends_with('\n') {
                text.push('\n');
            }
            let first = text.lines().count() + 1;
            text.push_str(code);
            text.push('\n');
            fs::write(&path, text).expect("plant a probe");
            probes.insert(name, (file, first..=first + code.lines().count() - 1));
        }
        let target = base.join("target");
        let mut codes = BTreeMap::new();
        clippy(&tree, &target, &["--workspace", "--keep-going"], &mut codes);
        clippy(&tree, &target, &["-p", "vsgm-core", "--test", "lint_probe_unsafe"], &mut codes);
        let endpoint = tree.join("crates/core/src/endpoint.rs");
        let original = fs::read_to_string(&endpoint).expect("read endpoint.rs");
        let probed = plant(&original, &ACTION_PROBES);
        for (name, head) in ACTION_MATCHES {
            let line = match_after(&probed, head);
            probes.insert(name, ("crates/core/src/endpoint.rs", line..=line));
        }
        fs::write(&endpoint, probed).expect("plant the actions");
        clippy(&tree, &target, &["-p", "vsgm-core", "--lib"], &mut codes);
        fs::write(&endpoint, original).expect("restore endpoint.rs");
        let state = tree.join("crates/core/src/state.rs");
        let text = fs::read_to_string(&state).expect("read state.rs");
        fs::write(&state, plant(&text, &STATE_FIELD)).expect("plant the State field");
        clippy(&tree, &target, &["-p", "vsgm-core", "--lib"], &mut codes);
        Wall { codes, probes }
    })
}

/// `text` with each `(after, insert)` edit's `insert` placed after the
/// first `after`.
fn plant(text: &str, edits: &[(&str, &str)]) -> String {
    let mut text = text.to_string();
    for (after, insert) in edits {
        assert!(text.contains(after), "no longer holds `{after}`");
        text = text.replacen(after, &format!("{after}{insert}"), 1);
    }
    text
}

/// The 1-based line of the first `match` after the line starting with
/// `head`.
fn match_after(text: &str, head: &str) -> usize {
    let lines: Vec<&str> = text.lines().collect();
    let start = lines.iter().position(|l| l.starts_with(head)).expect("the function");
    start + 1 + lines[start..].iter().position(|l| l.contains("match ")).expect("its match")
}

/// Runs `cargo clippy <args>` over `tree` with every lint capped at
/// `warn`, adding the code of each diagnostic to `codes` under the
/// `(file, line)` of its primary span.
fn clippy(
    tree: &Path,
    target: &Path,
    args: &[&str],
    codes: &mut BTreeMap<(String, usize), BTreeSet<String>>,
) {
    let out = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .current_dir(tree)
        .args(["clippy", "--offline", "--message-format=json"])
        .args(args)
        .arg("--target-dir")
        .arg(target)
        .args(["--", "--cap-lints", "warn"])
        .output()
        .expect("run cargo clippy");
    let before = codes.len();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let Ok(v) = serde_json::from_str::<Value>(line) else { continue };
        let Some(msg) = v.get("message") else { continue };
        let Some(Value::Str(code)) = msg.get("code").and_then(|c| c.get("code")) else {
            continue;
        };
        for span in msg.get("spans").and_then(Value::as_array).unwrap_or_default() {
            if let (Some(Value::Bool(true)), Some(Value::Str(file)), Some(Value::U64(line))) =
                (span.get("is_primary"), span.get("file_name"), span.get("line_start"))
            {
                let at = (file.clone(), usize::try_from(*line).expect("line fits usize"));
                codes.entry(at).or_default().insert(code.clone());
            }
        }
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(codes.len() > before, "clippy {args:?} reported nothing new:\n{stderr}");
}

fn copy_sources(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("create the copy");
    for entry in fs::read_dir(from).expect("read a source dir") {
        let entry = entry.expect("read a source entry");
        let name = entry.file_name();
        if name == "target" || name.to_string_lossy().starts_with('.') {
            continue;
        }
        let path = entry.path();
        if path.is_dir() {
            copy_sources(&path, &to.join(&name));
        } else {
            fs::copy(&path, to.join(&name)).expect("copy a source file");
        }
    }
}

/// The codes clippy reported on the named probe's lines.
fn fired(probe: &str) -> BTreeSet<String> {
    let wall = wall();
    let (file, lines) = wall.probes.get(probe).unwrap_or_else(|| panic!("no probe `{probe}`"));
    lines
        .clone()
        .filter_map(|line| wall.codes.get(&(file.to_string(), line)))
        .flatten()
        .cloned()
        .collect()
}

fn flags(probe: &str, lint: &str) -> bool {
    fired(probe).contains(lint)
}

/// Whether the probe is a hard compile error (a rustc `E…` code).
fn does_not_build(probe: &str) -> bool {
    fired(probe).iter().any(|c| c.starts_with('E'))
}

/// The codes reported anywhere in `file`.
fn codes_in(file: &str) -> BTreeSet<String> {
    wall().codes.iter().filter(|((f, _), _)| f == file).flat_map(|(_, c)| c.clone()).collect()
}

const MAP_BAN: &str = "clippy::disallowed_types";
const CLOCK_BAN: &str = "clippy::disallowed_methods";

#[test]
fn d1_flags_hash_collections_and_ambient_randomness() {
    assert!(flags("map in core", MAP_BAN), "{:?}", fired("map in core"));
    assert!(flags("set in core", MAP_BAN), "{:?}", fired("set in core"));
    assert!(flags("map in ioa", MAP_BAN), "{:?}", fired("map in ioa"));
    // Ambient randomness needs no lint: `core` has no `rand`, and the
    // vendored `rand` that `ioa` uses has no entropy source to call.
    assert!(does_not_build("randomness in core"), "{:?}", fired("randomness in core"));
    assert!(does_not_build("randomness in ioa"), "{:?}", fired("randomness in ioa"));
}

#[test]
fn d1_ignores_crates_outside_its_scope() {
    // Each allows the ban at its crate root.
    assert!(!flags("map in baseline", MAP_BAN), "{:?}", fired("map in baseline"));
    assert!(!flags("map in tcp", MAP_BAN), "{:?}", fired("map in tcp"));
    assert!(flags("map in core", MAP_BAN));
}

#[test]
fn d1_covers_the_wire_codec_by_path() {
    // `net` as a whole is outside D1 (real transports need ambient
    // time), but the wire codec re-denies it in its own module: its
    // bytes back golden vectors and cross-peer interop.
    assert!(flags("map in the codec", MAP_BAN), "{:?}", fired("map in the codec"));
    assert!(!flags("map in tcp", MAP_BAN), "{:?}", fired("map in tcp"));
}

#[test]
fn d1_covers_the_batching_stage_by_path() {
    // Frame boundaries must be a function of inputs (Input::Tick), or the
    // batching differential stops being replayable; batch.rs sits in
    // `core`, which the ban covers whole.
    let probe = "map in the batching stage";
    assert!(flags(probe, MAP_BAN), "{:?}", fired(probe));
}

#[test]
fn p1_flags_panics_and_indexing_but_not_test_code() {
    for (probe, lint) in [
        ("unwrap in core", "clippy::unwrap_used"),
        ("expect in core", "clippy::expect_used"),
        ("panic in core", "clippy::panic"),
        ("unreachable in core", "clippy::unreachable"),
        ("unimplemented in core", "clippy::unimplemented"),
        ("todo in core", "clippy::todo"),
        ("dbg in core", "clippy::dbg_macro"),
        ("index in core", "clippy::indexing_slicing"),
        ("slice in core", "clippy::indexing_slicing"),
    ] {
        assert!(flags(probe, lint), "{probe}: {:?}", fired(probe));
    }
    let in_test_code = fired("unwrap in core test code");
    assert!(in_test_code.is_empty(), "{in_test_code:?}");
    assert!(
        !flags("expect in explore", "clippy::expect_used"),
        "explore allows expect at its root: {:?}",
        fired("expect in explore")
    );
}

#[test]
fn p1_ignores_tests_directories() {
    let in_tests_dir = fired("unwrap in a tests directory");
    assert!(in_tests_dir.is_empty(), "{in_tests_dir:?}");
    assert!(flags("unwrap in core", "clippy::unwrap_used"));
}

#[test]
fn t1_flags_ambient_clock_reads_outside_the_net_crate() {
    for probe in
        ["clock in harness", "elapsed in harness", "wall clock in harness", "clock in the daemon"]
    {
        assert!(flags(probe, CLOCK_BAN), "{probe}: {:?}", fired(probe));
    }
    // `net` allows the clock at its crate root.
    assert!(!flags("clock in tcp", CLOCK_BAN), "{:?}", fired("clock in tcp"));
}

#[test]
fn t1_alone_flags_the_clock_in_d1_crates_and_files() {
    // The clock is T1's ban: in a D1 crate and in the D1 files pinned by
    // path, a clock read trips the method ban and not the map ban.
    for probe in ["clock in core", "clock in the codec", "clock in the shard pool"] {
        assert!(flags(probe, CLOCK_BAN), "{probe}: {:?}", fired(probe));
        assert!(!flags(probe, MAP_BAN), "{probe}: {:?}", fired(probe));
    }
}

#[test]
fn u1_requires_a_safety_comment_on_every_unsafe_block_in_the_sys_file() {
    let lint = "clippy::undocumented_unsafe_blocks";
    assert!(flags("bare unsafe block", lint), "{:?}", fired("bare unsafe block"));
    assert!(!flags("documented unsafe block", lint), "{:?}", fired("documented unsafe block"));
}

#[test]
fn u1_pins_unsafe_to_the_sys_file_by_path() {
    for probe in ["unsafe in core", "unsafe in tcp", "unsafe in a core test"] {
        assert!(flags(probe, "unsafe_code"), "{probe}: {:?}", fired(probe));
    }
    // The `sys` module's one `#[expect(unsafe_code)]` covers the probe
    // planted there.
    let sys = fired("documented unsafe block");
    assert!(!sys.contains("unsafe_code"), "{sys:?}");
}

/// The wall is only as wide as the packages that inherit it: one without
/// `[lints] workspace = true` could hold `unsafe` unnoticed.
#[test]
fn u1_every_package_inherits_the_lint_wall() {
    let root = repo_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let manifest = entry.expect("read a crate dir").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "{manifests:?}");
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("read a manifest");
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} does not inherit [workspace.lints]",
            manifest.display()
        );
    }
}

#[test]
fn a1_flags_state_fields_the_audit_never_reads() {
    // The field is initialized, so the one error is the audit's
    // destructure not naming it.
    let audit = codes_in("crates/core/src/audit.rs");
    assert!(audit.contains("E0027"), "{audit:?}");
    let state = codes_in("crates/core/src/state.rs");
    assert!(!state.iter().any(|c| c.starts_with('E')), "{state:?}");
}

#[test]
fn expected_lints_need_a_reason_and_a_finding() {
    assert!(flags("stale expect", "unfulfilled_lint_expectations"), "{:?}", fired("stale expect"));
    assert!(
        flags("reasonless expect", "clippy::allow_attributes_without_reason"),
        "{:?}",
        fired("reasonless expect")
    );
}

#[test]
fn i1_an_action_with_an_effect_and_no_precondition_does_not_build() {
    let probe = "an effect with no precondition";
    assert!(flags(probe, "E0004"), "{:?}", fired(probe));
}

#[test]
fn i1_an_action_with_a_precondition_and_no_effect_does_not_build() {
    let probe = "a precondition with no effect";
    assert!(flags(probe, "E0004"), "{:?}", fired(probe));
}
