#!/usr/bin/env bash
# The full local CI gate: release build, tests, and lint-clean clippy.
# Pass --offline (the default when CARGO_NET_OFFLINE=true) in sandboxes
# with no crates.io access; the vendored stubs in vendor/ satisfy every
# external dependency.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=(${CARGO_FLAGS:-})
if ! cargo metadata --format-version 1 >/dev/null 2>&1; then
    CARGO_FLAGS+=(--offline)
fi

# Runs the named tests of one test target, each matched exactly, and
# fails unless every name ran: `cargo test` exits 0 when a renamed or
# deleted test's name matches nothing. Usage:
#   named_tests <cargo test args> -- <test name>...
named_tests() {
    local args=() out
    while [ "$1" != -- ]; do
        args+=("$1")
        shift
    done
    shift
    out="$(cargo test -q "${CARGO_FLAGS[@]}" "${args[@]}" -- --exact "$@" 2>&1)" \
        || { echo "$out"; return 1; }
    grep -Eq "test result: ok\. $# passed" <<<"$out" \
        || { echo "    ${args[*]}: expected $# tests to run:"; echo "$out"; return 1; }
}

# Formatting (rustfmt.toml): the tree stays rustfmt-clean.
echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release "${CARGO_FLAGS[@]}"

echo "==> cargo test -q"
cargo test -q "${CARGO_FLAGS[@]}"

# The lint wall (DESIGN.md §10), the one checker of determinism, the
# clock, panic-freedom and unsafe confinement: clippy.toml bans
# HashMap/HashSet (D1) and Instant::now, SystemTime::now and .elapsed()
# (T1); [workspace.lints] denies unsafe_code (in every target, so the
# build and test stages above enforce it too), unwrap_used, expect_used,
# panic, unreachable, unimplemented, todo, dbg_macro and indexing_slicing
# (P1), undocumented_unsafe_blocks and allow_attributes_without_reason.
# -D warnings makes the bans and an #[expect] that no longer fires
# errors. No --all-targets: test code is exempt from the clippy lints.
echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace "${CARGO_FLAGS[@]}" -- -D warnings

# Lock tiers and transition pairing, run by name, every name checked to
# have run. Every lock net and server share between threads
# is a `vsgm_net::tiered::Tiered` of a fixed tier; debug builds panic on a
# lock taken out of tier order and on a blocking call made holding a
# tracked guard (the dial and backoff under a peer's connect guard are
# the one stated exception). The tracker sees only the paths that run,
# so a loopback daemon session must reach every lock and blocking call
# site in the source with no violation. Release builds carry no tracker
# (a const assertion, checked by the release build above). An action's
# precondition and effect are arms of two exhaustive matches; the lint
# wall plants an action with only one half of the pair and reads E0004.
echo "==> lock tiers and transition pairing"
named_tests -p vsgm-net --lib -- \
    tiered::tests::increasing_tiers_nest_and_release_in_any_order \
    tiered::tests::an_inversion_and_a_same_tier_nesting_panic_in_debug_builds \
    tiered::tests::a_blocking_call_under_a_guard_panics_unless_it_names_that_one_tier \
    tiered::tests::a_guard_waits_on_its_condvar_and_keeps_its_tier
named_tests -p vsgm-server --test daemon -- \
    every_tiered_lock_and_blocking_call_site_runs_under_the_tracker
named_tests -p vsgm --test lint_wall -- \
    i1_an_action_with_an_effect_and_no_precondition_does_not_build \
    i1_an_action_with_a_precondition_and_no_effect_does_not_build

# Explore smoke: exhaustively enumerate every interleaving of the five
# seed configurations (DPOR-pruned) and judge each path with the full
# checker suite. Exit 1 carries a replayable counterexample schedule.
# The same counts are pinned as regressions in crates/explore/tests; the
# stability configuration's (an acknowledgement round racing a
# start_change, DESIGN.md §18) is pinned here as well.
echo "==> vsgm-explore seeds"
for cfg in canonical aggregation crash-recovery corruption ack-round; do
    explored="$(cargo run -q --release -p vsgm-explore --bin explore "${CARGO_FLAGS[@]}" -- \
        --config "$cfg" --format json)"
    echo "$explored"
    [ "$cfg" != ack-round ] || grep -q '"paths":30928,' <<<"$explored"
done

# TSan smoke: the writer / batching / transport paths of vsgm-net under
# ThreadSanitizer — `writer::` includes the inline-write tests: batch
# pushers writing the socket on their own threads beside frame pushers,
# a heartbeat claimer and the loop's drain. A *sound* run needs std itself instrumented
# (-Zbuild-std), i.e. a nightly toolchain with the rust-src component —
# without it TSan sees no happens-before edges inside std's locks and
# reports false races, so the stage skips rather than cry wolf. Where it
# does run, any report is a real data race and fails the gate. Where it
# skips, the lock discipline is checked by the debug-build tier tracker
# the "lock tiers" stage above runs.
echo "==> tsan smoke (net writer/batching)"
host_triple="$(rustc -vV | sed -n 's/^host: //p')"
if rustup run nightly cargo --version >/dev/null 2>&1 \
    && [ -d "$(rustup run nightly rustc --print sysroot)/lib/rustlib/src/rust/library" ]; then
    RUSTFLAGS="-Zsanitizer=thread" \
        rustup run nightly cargo test -q "${CARGO_FLAGS[@]}" \
        -Zbuild-std --target "$host_triple" --target-dir target/tsan \
        -p vsgm-net writer::
    echo "    tsan: clean"
else
    echo "    tsan: nightly with rust-src unavailable, skipped"
fi

# Transport readiness (DESIGN.md §16), run by name: the epoll loops'
# pinned regressions — 20,000 window-1 round trips that one lost wake-up
# would hang (the loops wait without a timeout), an idle connected pair
# that must stay under 5 ms of CPU per second, half-open eviction woken
# by its deadline alone, the churn soak that counts descriptors and
# threads, a dropped pair giving back its threads within 1 s whatever its
# heartbeat interval (the loops send the heartbeats) — and a listener that keeps accepting after the process ran
# out of descriptors (a binary of its own: it exhausts the fd table).
# Then, by name, the choice of the one connection a peer's sends use
# (every connection carries frames both ways): peers that dial each
# other at once keep each direction's frames on one connection, in
# order, over 50 trials; and a client with no registered address that
# comes back under its pid is answered on its new connection. Then a
# peer's one record: a registered peer has it before any connection,
# and a broken queue refuses pushes and wakes a pusher waiting for room.
echo "==> transport readiness (evloop regressions, accept under fd exhaustion, one writer per peer)"
cargo test -q -p vsgm-net --test evloop_regressions --test accept_under_fd_exhaustion \
    "${CARGO_FLAGS[@]}" >/dev/null
named_tests -p vsgm --test net_sendpath -- \
    racing_first_sends_share_one_connection \
    simultaneous_first_sends_keep_each_direction_on_one_connection \
    a_client_that_reconnects_under_its_pid_is_answered_on_its_new_connection
named_tests -p vsgm-net --lib -- \
    tcp::tests::registered_peers_have_records_before_any_connection \
    writer::tests::a_broken_queue_refuses_pushes_and_wakes_a_blocked_pusher

# Net-bench smoke: a short loopback run of one transport pair with its
# coalesced binary flushing (the `binary_coalesced` arm) plus the
# connection-scaling arms (16/256/4096 inbound connections into one
# fixed loop pool). Emits BENCH_net.json at the repo root; the gate
# fails unless the file reports a `binary_coalesced` rate above 0.
echo "==> net-bench smoke (BENCH_net.json)"
VSGM_NET_BENCH_MSGS="${VSGM_NET_BENCH_MSGS:-2000}" \
VSGM_BENCH_BUDGET_MS="${VSGM_BENCH_BUDGET_MS:-50}" \
VSGM_BENCH_JSON="$PWD/BENCH_net.json" \
    cargo bench -q -p vsgm-bench --bench net_throughput "${CARGO_FLAGS[@]}" >/dev/null
pair_rate="$(sed -n 's/^ *"binary_coalesced": *\([0-9.]*\).*/\1/p' BENCH_net.json)"
if ! awk -v r="${pair_rate:-0}" 'BEGIN { exit !(r > 0) }'; then
    echo "BENCH_net.json reports no binary_coalesced rate above 0" >&2
    exit 1
fi

# Net-scaling smoke: the 16-connection arm alone, re-run against the
# pinned pre-rewrite baseline (592,845 frames/s, the old transport's
# binary-coalesced rate). The bench itself asserts the frames/s floor
# and that the receiver's loop threads stayed within the configured
# pool, and exits nonzero on either regression.
echo "==> net-scaling smoke (16 conns >= pinned baseline)"
VSGM_NET_SCALING_ONLY=1 \
VSGM_NET_BENCH_CONNS=16 \
VSGM_NET_SCALE_FLOOR="${VSGM_NET_SCALE_FLOOR:-592845}" \
    cargo bench -q -p vsgm-bench --bench net_throughput "${CARGO_FLAGS[@]}"

# GCS-bench smoke: the endpoint batching comparison (per-message vs
# small/large batches) over the full group-multicast path on TCP
# loopback. Emits BENCH_gcs.json at the repo root; an empty or missing
# file fails the gate.
echo "==> gcs-bench smoke (BENCH_gcs.json)"
VSGM_GCS_BENCH_MSGS="${VSGM_GCS_BENCH_MSGS:-2000}" \
VSGM_BENCH_BUDGET_MS="${VSGM_BENCH_BUDGET_MS:-50}" \
VSGM_BENCH_JSON="$PWD/BENCH_gcs.json" \
    cargo bench -q -p vsgm-bench --bench gcs_throughput "${CARGO_FLAGS[@]}" >/dev/null
test -s BENCH_gcs.json

# Batching differential suite, run by name so a batching regression
# fails with a readable stage (the suite is also part of `cargo test`).
echo "==> batching differential suite"
cargo test -q -p vsgm --test batching_differential "${CARGO_FLAGS[@]}" >/dev/null

# Stability differential (DESIGN.md §18), run by name: 60 randomized
# schedules with and without acknowledgement rounds must deliver the
# byte-identical events per process with every checker green; the pinned
# race (a view change against a half-acknowledged prefix) must forward
# and install; and on a network that makes end-points drop at the max
# acknowledgement instead of the min, the same race must fail.
echo "==> stability differential suite"
cargo test -q -p vsgm --test stability_differential "${CARGO_FLAGS[@]}" >/dev/null

# The end-point's action chooser (DESIGN.md §19), run by name: every
# poll of randomized Sim schedules — under each forwarding strategy, §9
# aggregation, implicit cuts, slim sync, batching and the WV-only and
# WV+VS stack prefixes, some polls put off so inputs pile up — must fire
# exactly what a copy driven through enabled_actions().first() fires and
# leave the same state. (Debug builds also assert it at every step of
# every poll, so the whole `cargo test` above checks it.)
echo "==> first-enabled equivalence suite"
cargo test -q -p vsgm --test first_enabled_equivalence "${CARGO_FLAGS[@]}" >/dev/null

# The paper's proof invariants (DESIGN.md §8), run by name: on every
# reachable state of randomized Sim schedules, with the Config shape one
# of the drawn inputs (each forwarding strategy, aggregation, implicit
# cuts, slim sync, batching, the audit on, the WV and WV+VS prefixes),
# every end-point passes the legal-state audit under its own Config —
# its checks are the local invariants 6.1, 6.2, 6.9, 6.13, 7.1 and 7.2 —
# and the group the cross-process ones (6.6, 6.7, Cor. 6.1).
echo "==> paper invariants suite"
cargo test -q -p vsgm --test paper_invariants "${CARGO_FLAGS[@]}" >/dev/null

# The one composition of an end-point with its CLIENT:SPEC client
# (vsgm_core::Hosted, DESIGN.md §15, §17), run by name: the handshake
# emits block then block_ok; a send while blocked emits nothing until
# the view, then one send per queued message, in order; a crash and an
# audit reset each leave a fresh client with nothing queued. Then its
# TCP host: a Node's send between block_ok and the next view is
# delivered in that view at both nodes, and an audited node whose
# end-point is damaged resets, its client fresh, after one pump.
echo "==> hosted composition (Hosted, Node under CLIENT:SPEC)"
named_tests -p vsgm-core --lib -- \
    client::tests::the_handshake_emits_block_then_block_ok \
    client::tests::a_send_while_blocked_waits_for_the_view_then_goes_out_in_order \
    client::tests::a_crash_leaves_a_fresh_client_and_drops_queued_sends \
    client::tests::a_reconciled_end_point_shows_a_crash_and_recover_and_gets_a_fresh_client \
    node::tests::a_send_between_block_ok_and_the_next_view_is_delivered_in_that_view \
    node::tests::an_audit_reset_reaches_the_node_and_leaves_a_fresh_client

# What an end-point keeps (DESIGN.md §18), run by name: one generation
# of sync records — after a cascaded change, after a leave and re-join,
# and after a hosted group's churn only the records the current view's
# start ids select remain, while a future joiner's early sync survives
# the install and its view installs — and one shared, immutable cut,
# which answers every call as the sorted-vector map it replaced, with
# the same Debug text and JSON. An acknowledgement vector decodes into
# a cut built once (2^18 entries within 2 s in debug; one copy per
# entry is quadratic). A hosted group frees what all its members
# delivered after every step (no acknowledgement sent): through
# multicasts, a leave and a re-join, no window of any end-point holds a
# message or a heap buffer once its step ends, and none keeps an
# acknowledgement record. A window holds one message inline and moves
# to the heap only past it; one that empties hands its heap buffer back
# and keeps its indices. The host's floor is clamped by the end-point's
# own deliveries and, in its own window, by what it sent.
echo "==> end-point memory (one generation of sync records, shared cuts, empty windows)"
named_tests -p vsgm-core --lib -- \
    state::tests::after_a_cascaded_change_only_the_current_views_start_ids_remain \
    state::tests::a_member_that_leaves_and_rejoins_leaves_one_generation_behind \
    state::tests::a_future_joiners_early_sync_survives_the_install_and_the_next_view_installs \
    state::tests::releasing_empty_windows_frees_their_buffers_and_keeps_their_indices \
    state::tests::a_hosts_floor_is_clamped_by_the_own_deliveries_and_sends
named_tests -p vsgm-server --lib -- \
    group::tests::after_churn_each_end_point_holds_one_sync_record_per_member \
    group::tests::through_churn_no_window_or_acknowledgement_record_outlives_its_step
named_tests -p vsgm-types --lib -- \
    cut::tests::behaves_like_a_vec_map_cut \
    cut::tests::a_set_on_a_clone_leaves_the_original_unchanged \
    cut::tests::an_empty_cut_is_equal_however_it_was_built \
    cut::tests::debug_and_json_literals_are_the_vec_map_cuts
named_tests -p vsgm-net --lib -- codec::tests::a_huge_increasing_ack_decodes_in_one_build

# Observability reads the trace (DESIGN.md §9), run by name: view-change
# spans folded over real Sim runs — one sync and one block per end-point
# per uncascaded change, a cascade's first span left open and its second
# closed, a crash mid-change leaving its span open, a closed span's
# latency its GcsView's time minus its MbrshpStartChange's, the same
# spans after a JSON-lines round trip of the trace, and the end-points'
# registry counts equal to the trace's events (syncs sent to the span
# fold) under the default, optimized and aggregation configs.
echo "==> observability (spans from the trace)"
named_tests -p vsgm-harness --lib -- \
    sim::tests::obs_journal_traces_one_sync_per_endpoint_per_view_change \
    sim::tests::spans_fold_over_a_cascade_and_a_crash \
    sim::tests::registry_counts_agree_with_the_trace_under_each_config

# The cost ledger, run by name (release builds: debug builds' assertions
# allocate). A counting global allocator pins a quiescent end-point poll
# at zero allocations under each forwarding strategy, allocations per
# multicast on a bare GroupInstance at n = 2/4/8/16 under upper bounds,
# and the live heap bytes of a group of four at the end of set-up and
# after 22 multicasts under upper bounds (the same on every run, unlike
# the resident set the footprint soak reads).
echo "==> cost ledger (allocations per poll and per multicast, live bytes per group)"
named_tests --release -p vsgm-server --test alloc_ledger -- \
    a_quiescent_poll_allocates_nothing_under_each_forwarding_strategy \
    allocations_per_multicast_stay_within_their_pins \
    a_group_of_four_holds_no_more_live_bytes_than_pinned

# Multi-group conformance (DESIGN.md §17). Differential: the daemon's
# direct host must hand every receiver the byte-identical frame sequence
# the Sim-backed oracle (tests/support/) does over >=50 randomized
# Join/Leave/Send schedules plus two pinned cases, and groups hosted on
# a shard pool must be frame-identical to isolated reruns. Isolation:
# faults injected into one oracle group, and a join/leave storm with a
# flood of ignorable sends in one direct group, must leave the groups
# stepped beside it untouched. Both suites are also part of
# `cargo test`; run by name so a hosting or multiplexing regression
# fails with a readable stage. The direct host frees what its members
# delivered after every step and sends no acknowledgement, so two tests
# pin that forgetting changes no frame and that nothing runs on a
# clock: the oracle fed acknowledgement rounds at seeded points hands
# out the direct host's frames, and a hosted run paused halfway, idle,
# matches the isolated arm event for event.
echo "==> multi-group differential + isolation suites"
cargo test -q -p vsgm --test multigroup_differential "${CARGO_FLAGS[@]}" >/dev/null
named_tests -p vsgm --test multigroup_differential -- \
    oracle_ack_rounds_at_seeded_points_change_no_direct_host_frame \
    schedules_paused_halfway_match_their_isolated_runs_event_for_event
cargo test -q -p vsgm --test multigroup_chaos "${CARGO_FLAGS[@]}" >/dev/null

# Hosted-group memory soaks (DESIGN.md §17), every spec checker online,
# release-only (ignored in debug builds), run by name, a few seconds
# each. Plateau: one 4-member group through 200,000 multicasts with a
# leave/re-join every 1,000, the same 200,000 in a view that never
# changes (from all four members, then from one with three silent
# receivers), then 40,000 view changes — resident memory must stop
# growing (< 16 B per multicast with churn, < 1 B without, < 64 B per
# view change over the second half); a host that hoards history again,
# or stops freeing what its members delivered, fails here.
# Footprint: 1000 groups of four (joined, drained, then 4, 22 or 70
# multicasts) stay under 11 KiB resident each, 70 multicasts within
# 1 KiB of 4; and four members in capacity 16 cost within 1 KiB of four
# in capacity 4 — a host that keeps messages past their step, provisions per capacity,
# simulates its clients again, keeps per-process state in B-tree
# leaves again, or end-points that keep two generations of sync
# records or a private copy of every cut, fail here. Each soak's growth or per-group line is
# printed, as the benchmark smoke below prints rss_paced_mb.
#
# Before the soaks, the daemon itself (DESIGN.md §17), run by name: a
# two-shard daemon runs exactly four threads (two loops, which also send
# its heartbeats, and two shard workers — no router or forwarder between
# them), and serving a one-loop client adds that client's loop alone; 20
# bind/serve/drop rounds return the process's thread and descriptor
# counts to baseline (the loops' router holds the shard pool and the
# pool's sink sends on the transport: a strong cycle there leaks a
# daemon per round); one client's `join`/`leave` and the multicast it
# sends right behind each are applied in the order it sent them;
# clients on both loops racing `create`/`join` each end in a view; and
# the frames owed to a dropped client are counted in
# `server.frames_unsent`, exactly one per multicast, while the group's
# other members still receive theirs, and the daemon tries no redial.
# A client only dials: README's quick-start is answered on its one
# connection by a daemon nobody told its address, and by the shipped
# `vsgm-server` binary (a child process the test kills and reaps); a
# client costs three sockets in a process holding both ends (its
# listener and the two ends of its one connection); and 500 clients
# that each ask once and close leave no record behind. Then the shard worker's batching,
# in exact counts: one burst of interleaved commands for three groups
# gives each group the isolated instance's frames in order, one sink
# call per batch; a batch reaching c idle clients costs exactly c socket
# writes; `report` and `finish` are answered only after the outputs
# queued before them were handed over. And the worker keeps no clock: a
# daemon-mode worker leaves no message and no heap buffer in any window
# of any group it hosts after each command it steps.
echo "==> vsgm-server (daemon threads and order; memory soaks plateau x3, footprint)"
named_tests -p vsgm-server --test daemon -- \
    a_two_shard_daemon_runs_four_threads \
    dropping_a_daemon_gives_back_its_threads_and_descriptors \
    a_clients_verbs_and_multicasts_are_applied_in_the_order_it_sent_them \
    racing_creates_and_joins_from_both_loops_each_lead_to_a_view \
    frames_owed_to_a_dropped_client_are_counted_and_the_others_still_get_theirs \
    the_readme_quick_start_is_answered_on_the_connection_the_client_dialed \
    a_client_costs_one_socket_on_each_side \
    a_departed_clients_record_goes_with_its_connection \
    the_shipped_binary_answers_the_readme_quick_start
named_tests -p vsgm-server --lib -- \
    shard::tests::one_burst_for_three_groups_gives_each_its_isolated_frames_in_order \
    shard::tests::a_batch_reaching_c_idle_clients_raises_flushes_by_exactly_c \
    shard::tests::report_and_finish_answer_after_their_batch_is_handed_over \
    shard::tests::a_daemon_worker_leaves_no_message_in_any_window_after_each_command
for soak in resident_memory_plateaus_under_multicast_with_churn \
            resident_memory_plateaus_in_a_view_that_never_changes \
            resident_memory_plateaus_under_view_changes \
            a_thousand_groups_of_four_fit_their_budget_and_unused_capacity_costs_nothing; do
    timeout 600 cargo test -q --release -p vsgm-server --test plateau "${CARGO_FLAGS[@]}" \
        -- --exact "$soak" --nocapture | grep -E 'resident set|per group' | sed 's/^/    /' \
        || { echo "    plateau soak $soak printed no line (failed, renamed or deleted)" >&2; exit 1; }
done

# Step scaling (DESIGN.md §19, EXPERIMENTS.md E17), release-only, printed
# like the soaks and judged by nobody: µs per multicast and per join on
# one hosted group at n = 4..64, every checker online, and the fitted
# slope in n of each.
echo "==> vsgm-server step scaling (n = 4..64)"
timeout 600 cargo test -q --release -p vsgm-server --test step_scaling "${CARGO_FLAGS[@]}" \
    -- --exact step_cost_per_multicast_and_per_join_by_group_size --nocapture \
    | grep 'step scaling' | sed 's/^step scaling: /    /' \
    || { echo "    step_cost_per_multicast_and_per_join_by_group_size printed no line" \
              "(failed, renamed or deleted)" >&2; exit 1; }

# Group-scaling smoke (EXPERIMENTS.md E15): a reduced groups×clients
# sweep through the real vsgm-server daemon on loopback. The bench
# itself judges the run — every expected delivery observed, every
# group's spec checkers green, zero unroutable frames — and asserts the
# deliveries/s floor — half of what the smoke reads since the daemon
# hosts end-points directly (48-50k/s: the 256 deliveries land within
# one or two of the bench's 5 ms polls, so this is a did-it-stall gate,
# not a throughput reading). Emits BENCH_groups.json at the repo root;
# an empty or missing file fails the gate. (The committed headline run
# is 1000 groups × 10 clients with the knobs at their defaults.)
echo "==> group-scaling smoke (BENCH_groups.json)"
VSGM_GROUPS="${VSGM_GROUPS:-64}" \
VSGM_GROUP_CLIENTS="${VSGM_GROUP_CLIENTS:-4}" \
VSGM_GROUP_SENDS="${VSGM_GROUP_SENDS:-64}" \
VSGM_GROUPS_FLOOR="${VSGM_GROUPS_FLOOR:-24000}" \
VSGM_BENCH_JSON="$PWD/BENCH_groups.json" \
    cargo bench -q -p vsgm-bench --bench group_scaling "${CARGO_FLAGS[@]}" >/dev/null
test -s BENCH_groups.json

# Repo-benchmark smoke: the ruler the pipeline judges a PR with
# (BENCHMARK.json, benchmark/README.md), at its own --smoke scale — all
# four workloads through the real daemon in under 30 s, every received
# frame checked. A non-zero exit (void, broken or incorrect run) or any
# run line reporting "correct":false fails the gate; timings are not
# judged here, but the four rss_paced_mb values are printed so a memory
# regression shows in this log (smoke scale: compare with earlier logs,
# not with the committed 20 s medians).
echo "==> repo benchmark smoke (benchmark/ --smoke)"
smoke_out="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke)"
if grep -q '"correct":false' <<<"$smoke_out"; then
    echo "$smoke_out" >&2
    exit 1
fi
awk '/^vsgm benchmark: workload/ { w = $4 }
     /^  rss_paced_mb/ { printf "    %-12s rss_paced_mb %s %s\n", w, $2, $3 }' <<<"$smoke_out"

# Chaos smoke: randomized fault-injection search over a fixed seed batch
# (rounds of stability acknowledgements are in its step alphabet).
# Every generated scenario must pass the full checker suite (exit 0); the
# run is deterministic, so a failure here is a reproducible protocol bug —
# rerun with `--seed <n> --minimize` to shrink it.
echo "==> chaos --seeds 100"
cargo run -q --release -p vsgm-chaos --bin chaos "${CARGO_FLAGS[@]}" -- --seeds 100 --format json >/dev/null

# Stabilization smoke (DESIGN.md §15, EXPERIMENTS.md E11): the same seed
# batch with state-corruption faults mixed in — every run must converge
# back to a legal state (audit-detected §8 reconciliation, clean judged
# suffix) — then the per-corruption-class convergence sweep, which emits
# BENCH_stabilize.json at the repo root. An empty or missing file, or any
# non-converging seed, fails the gate; rerun a failure with
# `--seed <n> --corrupt --minimize` to shrink it.
echo "==> stabilization smoke (BENCH_stabilize.json)"
cargo run -q --release -p vsgm-chaos --bin chaos "${CARGO_FLAGS[@]}" -- \
    --seeds 100 --corrupt --format json >/dev/null
cargo run -q --release -p vsgm-chaos --bin chaos "${CARGO_FLAGS[@]}" -- \
    --seeds 25 --stabilize-json "$PWD/BENCH_stabilize.json" >/dev/null
test -s BENCH_stabilize.json

echo "==> all checks passed"
