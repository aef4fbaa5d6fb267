#!/usr/bin/env bash
# Repo gate: everything a PR must pass, in the order a developer wants
# failures reported. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== unsafe gate (every library root forbids unsafe_code; the signal FFI is the one exception)"
# A crate root without the attribute could grow unsafe silently, so the
# attribute is required of every one, new crates included.
for lib in crates/*/src/lib.rs src/lib.rs; do
    grep -qx '#!\[forbid(unsafe_code)\]' "$lib" || {
        echo "unsafe gate: $lib lacks #![forbid(unsafe_code)]"; exit 1; }
done
STRAY_UNSAFE=$(grep -rn '\bunsafe\b' --include=*.rs crates src tests |
    grep -v ':#!\[forbid(unsafe_code)\]$' |
    grep -v '^crates/serve/src/bin/tcmp-serve\.rs:' || true)
if [ -n "$STRAY_UNSAFE" ]; then
    echo "unsafe gate: unsafe outside crates/serve/src/bin/tcmp-serve.rs:"
    echo "$STRAY_UNSAFE"
    exit 1
fi
echo "unsafe gate: every library root forbids unsafe_code; only the signal FFI uses it"

echo "== one checkpoint store (CheckpointCache is the frozen benchmark's shim, nothing else's)"
# DiskStore is the only checkpoint store. CheckpointCache survives only
# because benchmark/ times it; nothing in the workspace may come to
# depend on it again.
STRAY_CACHE=$(grep -rn 'CheckpointCache' crates src tests |
    grep -v '^crates/core/src/checkpoint\.rs:' || true)
if [ -n "$STRAY_CACHE" ]; then
    echo "checkpoint gate: CheckpointCache named outside crates/core/src/checkpoint.rs:"
    echo "$STRAY_CACHE"
    exit 1
fi
echo "checkpoint gate: CheckpointCache is named only where it is defined"

echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== cargo check (frozen benchmark package against this tree's API)"
CARGO_TARGET_DIR=benchmark/target \
    cargo check --offline --release --manifest-path benchmark/Cargo.toml

echo "== cargo test"
cargo test -q --workspace

echo "== cargo test (TCMP_SANITIZE=1: protocol sanitizer armed)"
TCMP_SANITIZE=1 cargo test -q --workspace

echo "== snapshot/restore round-trip smoke"
cargo test -q --release --test snapshot_restore

echo "== footprint gates (32x32 sparse proposal machine built, 16x16 sparse proposal cell run; each in its own process)"
# Ignored in the plain test runs: VmHWM is whole-process, so each test
# gets a release process of its own. One malloc arena, as the benchmark
# runs: under libtest's per-thread arena the same machine reads about
# half the peak, which would hide a regression.
for gate in a_32x32_sparse_proposal_machine_fits_its_rss_budget \
    a_16x16_sparse_proposal_run_fits_its_rss_budget; do
    MALLOC_ARENA_MAX=1 cargo test -q --release -p tcmp-core --test footprint -- \
        --ignored --exact "$gate"
done

echo "== NoC under the optimized build (contention hashes, layout-4 checkpoint byte pin, next-event equivalence)"
cargo test -q --release -p mesh-noc

echo "== goldens under the sparse directory + multicast codec (non-golden paths sanitizer-clean)"
cargo test -q --release --test determinism_golden \
    goldens_replay_bit_identically_under_the_sparse_directory
cargo test -q --release --test determinism_golden \
    multicast_codec_is_deterministic_and_sanitizer_clean
cargo test -q --release --test directory_equivalence

echo "== 16x16 sparse-directory smoke (proposal vs baseline, wall deadline)"
timeout 300 target/release/tcmp-fig sensitivity \
    --app FFT --side 16 --directory sparse --scale 0.002 --seed 1025041 >/dev/null || {
    echo "16x16 sparse smoke: failed or blew the 300 s wall deadline"; exit 1; }
echo "16x16 sparse smoke: completed under the deadline"

echo "== perf-floor smoke (hotspot_4x4 must clear a coarse throughput floor)"
# Catches order-of-magnitude scheduler regressions, not percent-level
# drift: the floor sits far below any healthy machine's throughput
# (this repo's reference box does ~1.3M cycles/s). Read from the repo
# benchmark's own surface (BENCHMARK.json: the one-line result a
# --workload run prints last). On 1-core containers timing shares the
# core with everything else, so a miss only warns there; multi-core
# machines fail hard.
PERF_FLOOR=400000
PERF_OUT="$(mktemp -d "${TMPDIR:-/tmp}/tcmp-perfsmoke-XXXXXX")"
PERF_CPS=$(bash benchmark/run.sh --workload hotspot_4x4 --seconds 2 --out "$PERF_OUT" |
    tail -n 1 | python3 -c '
import json, sys
print(int(json.load(sys.stdin)["metrics"]["sim_cycles_per_s"]["value"]))')
rm -rf "$PERF_OUT"
if [ "$PERF_CPS" -lt "$PERF_FLOOR" ]; then
    if [ "$(nproc)" -le 1 ]; then
        echo "perf-floor smoke: WARNING — hotspot_4x4 $PERF_CPS cycles/s" \
             "under floor $PERF_FLOOR, tolerated on a 1-core container"
    else
        echo "perf-floor smoke: hotspot_4x4 $PERF_CPS cycles/s under floor $PERF_FLOOR"
        exit 1
    fi
else
    echo "perf-floor smoke: hotspot_4x4 $PERF_CPS cycles/s clears floor $PERF_FLOOR"
fi

echo "== forward-progress watchdog unit + livelock tests"
cargo test -q --release -p tcmp-core engine::watchdog
cargo test -q --release --test robustness watchdog

echo "== campaign journal + resume tests"
cargo test -q --release -p cmp-common journal
cargo test -q --release --test campaign_resume

echo "== kill-and-resume smoke (SIGKILL mid-sweep, resume, diff CSVs)"
SMOKE_DIR="$(mktemp -d "${TMPDIR:-/tmp}/tcmp-killsmoke-XXXXXX")"
trap 'rm -rf "$SMOKE_DIR"' EXIT
FIG6=(target/release/tcmp-fig fig6)
FIG6_ARGS=(--scale 0.002 --app FFT --app MP3D --no-perfect --seed 1025041 --jobs 2)
# reference: one uninterrupted journaled sweep
"${FIG6[@]}" "${FIG6_ARGS[@]}" --out "$SMOKE_DIR/ref" --csv "$SMOKE_DIR/ref.csv" >/dev/null 2>&1
# victim: start the same sweep, SIGKILL it mid-flight, then resume
"${FIG6[@]}" "${FIG6_ARGS[@]}" --out "$SMOKE_DIR/victim" >/dev/null 2>&1 &
VICTIM_PID=$!
# wait for the journal to hold at least one finished cell, then kill -9
# (--out DIR is a campaign service's state root: the sweep is campaign
# c0001 under DIR/campaigns/)
VICTIM_JOURNAL="$SMOKE_DIR/victim/campaigns/c0001/journal.jsonl"
for _ in $(seq 1 200); do
    if grep -q '"finish"' "$VICTIM_JOURNAL" 2>/dev/null; then break; fi
    sleep 0.05
done
kill -9 "$VICTIM_PID" 2>/dev/null || true
wait "$VICTIM_PID" 2>/dev/null || true
test -s "$VICTIM_JOURNAL" || {
    echo "kill-and-resume smoke: victim never journaled a cell"; exit 1; }
"${FIG6[@]}" "${FIG6_ARGS[@]}" --resume "$SMOKE_DIR/victim" --csv "$SMOKE_DIR/resumed.csv" \
    >/dev/null 2>&1
# the resumed sweep must reproduce the reference CSVs byte-for-byte
# (modulo the provenance stamp line, which embeds the git SHA)
for suffix in exec_time.csv link_ed2p.csv; do
    diff <(grep -v '^#' "$SMOKE_DIR/ref.csv.$suffix") \
         <(grep -v '^#' "$SMOKE_DIR/resumed.csv.$suffix") || {
        echo "kill-and-resume smoke: resumed $suffix differs from reference"; exit 1; }
done
echo "kill-and-resume smoke: resumed CSVs are bit-identical"

echo "== fault-campaign smoke (desync, drop, corrupt and planted violations through tcmp-fig)"
# The filesystem fault classes are asserted by crates/core/tests/fs_faults.rs
# in both cargo test passes above.
FAULTS=(target/release/tcmp-fig faults --app FFT --app MP3D --scale 0.005 --seed 1025041)
"${FAULTS[@]}" --jobs 2 --out "$SMOKE_DIR/faults" --csv "$SMOKE_DIR/faults.csv" \
    >"$SMOKE_DIR/faults.md" 2>"$SMOKE_DIR/faults.log" || {
    echo "fault-campaign smoke: an outcome was not the one its fault expects"
    cat "$SMOKE_DIR/faults.md" "$SMOKE_DIR/faults.log"; exit 1; }
# the journaled path: a resume replays the completed cells, re-runs the
# failed ones (expected failures are not journaled as rows) and must
# print and write the first run's tables byte for byte
"${FAULTS[@]}" --resume "$SMOKE_DIR/faults" --csv "$SMOKE_DIR/resumed-faults.csv" \
    >"$SMOKE_DIR/resumed-faults.md" 2>/dev/null || {
    echo "fault-campaign smoke: the resumed campaign failed"; exit 1; }
for f in faults.md faults.csv.faults.csv faults.csv.fault_totals.csv; do
    cmp "$SMOKE_DIR/$f" "$SMOKE_DIR/resumed-$f" || {
        echo "fault-campaign smoke: resumed $f differs from the first run's"; exit 1; }
done
echo "fault-campaign smoke: every outcome expected; the resumed tables are identical"

echo "== every-figure smoke (tcmp-fig all: one campaign, each table and figure into its own directory)"
ALL_DIR="$SMOKE_DIR/all"
ALL_CAMPAIGN="$ALL_DIR/campaigns/c0001"
ALL_ARGS=(--scale 0.002 --app FFT --jobs 2)
ALL_FIGURES=(fig2 fig5 fig6 fig7 ablation sensitivity faults)
starts() { grep -c '"event":"start"' "$ALL_CAMPAIGN/journal.jsonl" || true; }
target/release/tcmp-fig all "${ALL_ARGS[@]}" --out "$ALL_DIR" >/dev/null 2>"$SMOKE_DIR/all.log" || {
    echo "every-figure smoke: tcmp-fig all failed"; cat "$SMOKE_DIR/all.log"; exit 1; }
for f in table1/results.csv table2/results.csv table3/results.csv \
         fig2/results.coverage.csv fig5/results.breakdown.csv \
         fig6/results.exec_time.csv fig6/results.link_ed2p.csv fig7/results.chip_ed2p.csv \
         ablation/results.ablation.csv sensitivity/results.sensitivity.csv \
         faults/results.faults.csv faults/results.fault_totals.csv; do
    for g in "$f" "$(dirname "$f")/results.md"; do
        test -s "$ALL_CAMPAIGN/$g" || { echo "every-figure smoke: $g missing"; exit 1; }
    done
done
# the figures' 42 cells are 27 distinct simulations, each started once
# (no retries), journaled in the one campaign; the figure directories
# hold no journal
[ "$(starts)" -eq 27 ] || {
    echo "every-figure smoke: expected 27 simulations started, saw $(starts)"
    cat "$SMOKE_DIR/all.log"; exit 1; }
[ "$(find "$ALL_DIR" -name journal.jsonl)" = "$ALL_CAMPAIGN/journal.jsonl" ] || {
    echo "every-figure smoke: $ALL_CAMPAIGN/journal.jsonl must be the only journal"; exit 1; }
echo "every-figure smoke: every table and figure written from one campaign of 27 simulations"
# a resume over the finished directory replays every completed cell,
# re-runs only the fault cells that ended in expected errors (they are
# journaled as failures, not rows) and rewrites every file byte for byte
cp -r "$ALL_DIR" "$SMOKE_DIR/all-first"
EXPECTED_ERRORS=$(grep -c '"event":"fail"' "$ALL_CAMPAIGN/journal.jsonl" || true)
target/release/tcmp-fig all "${ALL_ARGS[@]}" --resume "$ALL_DIR" >/dev/null 2>"$SMOKE_DIR/all-resume.log" || {
    echo "every-figure smoke: the resumed all failed"; cat "$SMOKE_DIR/all-resume.log"; exit 1; }
[ "$(starts)" -eq $((27 + EXPECTED_ERRORS)) ] || {
    echo "every-figure smoke: the resume should replay all but the $EXPECTED_ERRORS expected errors"
    cat "$SMOKE_DIR/all-resume.log"; exit 1; }
for f in $(cd "$SMOKE_DIR/all-first" && find . -name 'results.*'); do
    cmp "$SMOKE_DIR/all-first/$f" "$ALL_DIR/$f" || {
        echo "every-figure smoke: resumed $f differs from the first pass"; exit 1; }
done
# a figure run alone renders what all renders for it, stamp line
# included: fig5's cell carries Figure 2's probes in the sweep, and the
# ablation's cells are Figure 6's
target/release/tcmp-fig fig5 "${ALL_ARGS[@]}" --csv "$SMOKE_DIR/alone-fig5.csv" >/dev/null 2>&1 || {
    echo "every-figure smoke: fig5 alone failed"; exit 1; }
cmp "$SMOKE_DIR/alone-fig5.csv" "$ALL_CAMPAIGN/fig5/results.breakdown.csv" || {
    echo "every-figure smoke: fig5 alone differs from all's"; exit 1; }
target/release/tcmp-fig ablation "${ALL_ARGS[@]}" --csv "$SMOKE_DIR/alone-ablation.csv" >/dev/null 2>&1 || {
    echo "every-figure smoke: ablation alone failed"; exit 1; }
cmp "$SMOKE_DIR/alone-ablation.csv" "$ALL_CAMPAIGN/ablation/results.ablation.csv" || {
    echo "every-figure smoke: ablation alone differs from all's"; exit 1; }
# --out promises a fresh campaign: a finished directory is refused
if target/release/tcmp-fig all "${ALL_ARGS[@]}" --out "$ALL_DIR" >/dev/null 2>&1; then
    echo "every-figure smoke: all --out over a finished campaign was not refused"; exit 1
fi
# a directory laid out before campaigns moved under campaigns/ (its
# journal at the top) is refused by --resume, not re-run
mkdir "$SMOKE_DIR/all-old-layout"
cp "$ALL_CAMPAIGN/journal.jsonl" "$SMOKE_DIR/all-old-layout/"
if target/release/tcmp-fig all "${ALL_ARGS[@]}" --resume "$SMOKE_DIR/all-old-layout" \
    >/dev/null 2>"$SMOKE_DIR/all-old.log"; then
    echo "every-figure smoke: --resume of a pre-campaigns/ directory was not refused"; exit 1
fi
grep -q "cannot resume it" "$SMOKE_DIR/all-old.log" || {
    echo "every-figure smoke: the old-layout refusal does not say why"; cat "$SMOKE_DIR/all-old.log"; exit 1; }
echo "every-figure smoke: the resume and the figures run alone are byte-identical; --out refuses a finished directory, --resume an old-layout one"

echo "== tcmp-serve smoke (submit over the socket, SIGKILL the daemon, restart, diff CSVs)"
SERVE="target/release/tcmp-serve"
SUBMIT_ARGS=(--scale 0.002 --app FFT --no-perfect --seed 1025041)
SERVE_REF="$SMOKE_DIR/serve-ref"
SERVE_KILL="$SMOKE_DIR/serve-kill"
SOCK_REF="$SMOKE_DIR/ref.sock"
SOCK_KILL="$SMOKE_DIR/kill.sock"
wait_for() { # wait_for SECONDS TEST...
    local tries=$(( $1 * 20 )); shift
    for _ in $(seq 1 "$tries"); do
        if "$@" 2>/dev/null; then return 0; fi
        sleep 0.05
    done
    return 1
}
# reference: an uninterrupted daemon runs the whole campaign; the
# submitting client exits 0 on campaign_done; SIGTERM drains cleanly
"$SERVE" --root "$SERVE_REF" --socket "$SOCK_REF" --jobs 2 \
    >"$SMOKE_DIR/serve-ref.log" 2>&1 &
REF_PID=$!
wait_for 10 test -S "$SOCK_REF" || {
    echo "tcmp-serve smoke: reference daemon never bound its socket"
    cat "$SMOKE_DIR/serve-ref.log"; exit 1; }
"${FIG6[@]}" "${SUBMIT_ARGS[@]}" --submit "$SOCK_REF" >/dev/null 2>"$SMOKE_DIR/serve-submit.log" || {
    echo "tcmp-serve smoke: reference campaign failed"
    cat "$SMOKE_DIR/serve-submit.log" "$SMOKE_DIR/serve-ref.log"; exit 1; }
# the submitter hears every cell start, the first ones claimed included
STARTS=$(grep -c "^  start  " "$SMOKE_DIR/serve-submit.log" || true)
test "$STARTS" -eq 6 || {
    echo "tcmp-serve smoke: --submit printed $STARTS start lines for 6 simulated cells"
    cat "$SMOKE_DIR/serve-submit.log"; exit 1; }
# both doors, one meaning: the same flags run locally must write the
# daemon's CSVs byte for byte — provenance stamp included, so whole
# files are compared — under full-map (c0001) and under --directory
# sparse (c0002), which the local door once dropped
"${FIG6[@]}" "${SUBMIT_ARGS[@]}" --directory sparse --submit "$SOCK_REF" >/dev/null 2>&1 || {
    echo "tcmp-serve smoke: sparse reference campaign failed"
    cat "$SMOKE_DIR/serve-ref.log"; exit 1; }
"${FIG6[@]}" "${SUBMIT_ARGS[@]}" --csv "$SMOKE_DIR/local-full.csv" >/dev/null 2>&1 &&
"${FIG6[@]}" "${SUBMIT_ARGS[@]}" --directory sparse --csv "$SMOKE_DIR/local-sparse.csv" >/dev/null 2>&1 || {
    echo "tcmp-serve smoke: the local run of the reference request failed"; exit 1; }
for suffix in exec_time.csv link_ed2p.csv; do
    cmp "$SMOKE_DIR/local-full.csv.$suffix" "$SERVE_REF/campaigns/c0001/results.$suffix" &&
    cmp "$SMOKE_DIR/local-sparse.csv.$suffix" "$SERVE_REF/campaigns/c0002/results.$suffix" || {
        echo "tcmp-serve smoke: local and daemon $suffix differ for the same request"; exit 1; }
done
cmp -s "$SMOKE_DIR/local-full.csv.exec_time.csv" "$SMOKE_DIR/local-sparse.csv.exec_time.csv" && {
    echo "tcmp-serve smoke: --directory sparse did not reach the stamp"; exit 1; }
echo "tcmp-serve smoke: local run and daemon wrote identical CSVs (full-map and sparse)"
# each simulation once: the reference request resubmitted (c0003)
# simulates nothing; every cell is answered from c0001's finished rows
"${FIG6[@]}" "${SUBMIT_ARGS[@]}" --submit "$SOCK_REF" >/dev/null 2>"$SMOKE_DIR/serve-again.log" || {
    echo "tcmp-serve smoke: resubmitted reference campaign failed"
    cat "$SMOKE_DIR/serve-again.log"; exit 1; }
TAKEN=$(grep -c "warm-start: journal" "$SMOKE_DIR/serve-again.log" || true)
test "$TAKEN" -eq 6 || {
    echo "tcmp-serve smoke: expected all 6 resubmitted cells from finished rows, saw $TAKEN"
    cat "$SMOKE_DIR/serve-again.log"; exit 1; }
for suffix in exec_time.csv link_ed2p.csv; do
    cmp <(grep -v '^#' "$SERVE_REF/campaigns/c0001/results.$suffix") \
        <(grep -v '^#' "$SERVE_REF/campaigns/c0003/results.$suffix") || {
        echo "tcmp-serve smoke: resubmitted $suffix differs from c0001's"; exit 1; }
done
echo "tcmp-serve smoke: the resubmitted request took all 6 rows and wrote identical CSVs"
# all through the daemon (c0004) writes every figure directory byte for
# byte as the local all --out above did
target/release/tcmp-fig all --scale 0.002 --app FFT --submit "$SOCK_REF" >/dev/null 2>&1 || {
    echo "tcmp-serve smoke: all through the daemon failed"
    cat "$SMOKE_DIR/serve-ref.log"; exit 1; }
ALL_FILES=$(cd "$ALL_CAMPAIGN" && find "${ALL_FIGURES[@]}" -name 'results.*')
[ "$(echo "$ALL_FILES" | wc -w)" -eq 16 ] || {
    echo "tcmp-serve smoke: expected 16 figure files (9 CSVs, 7 results.md):" $ALL_FILES; exit 1; }
for f in $ALL_FILES; do
    cmp "$ALL_CAMPAIGN/$f" "$SERVE_REF/campaigns/c0004/$f" || {
        echo "tcmp-serve smoke: all's $f differs between the local door and the daemon"; exit 1; }
done
echo "tcmp-serve smoke: all through the daemon wrote the local door's figure directories"
kill -TERM "$REF_PID"
wait "$REF_PID" || {
    echo "tcmp-serve smoke: reference daemon did not drain cleanly (exit $?)"
    cat "$SMOKE_DIR/serve-ref.log"; exit 1; }
# victim: same campaign; the daemon is SIGKILLed once the journal holds
# a finished cell, the submitter's stream breaks (tolerated), and a
# fresh daemon on the same root — and the same, now-stale, socket —
# resumes the campaign to completion with no client attached at all
"$SERVE" --root "$SERVE_KILL" --socket "$SOCK_KILL" --jobs 2 \
    >"$SMOKE_DIR/serve-kill.log" 2>&1 &
KILL_PID=$!
wait_for 10 test -S "$SOCK_KILL" || {
    echo "tcmp-serve smoke: victim daemon never bound its socket"
    cat "$SMOKE_DIR/serve-kill.log"; exit 1; }
"${FIG6[@]}" "${SUBMIT_ARGS[@]}" --submit "$SOCK_KILL" >/dev/null 2>&1 &
CLIENT_PID=$!
wait_for 30 grep -q '"finish"' "$SERVE_KILL/campaigns/c0001/journal.jsonl" || {
    echo "tcmp-serve smoke: victim daemon never journaled a cell"
    cat "$SMOKE_DIR/serve-kill.log"; exit 1; }
kill -9 "$KILL_PID" 2>/dev/null || true
wait "$KILL_PID" 2>/dev/null || true
wait "$CLIENT_PID" 2>/dev/null || true
"$SERVE" --root "$SERVE_KILL" --socket "$SOCK_KILL" --jobs 2 \
    >>"$SMOKE_DIR/serve-kill.log" 2>&1 &
RESUME_PID=$!
wait_for 60 test -f "$SERVE_KILL/campaigns/c0001/results.exec_time.csv" || {
    echo "tcmp-serve smoke: resumed daemon never finalised the campaign"
    cat "$SMOKE_DIR/serve-kill.log"; exit 1; }
kill -TERM "$RESUME_PID"
wait "$RESUME_PID" || {
    echo "tcmp-serve smoke: resumed daemon did not drain cleanly (exit $?)"
    cat "$SMOKE_DIR/serve-kill.log"; exit 1; }
# the resumed daemon's CSVs must match the uninterrupted daemon's
# byte-for-byte (modulo the provenance stamp line with the git SHA)
for f in results.exec_time.csv results.link_ed2p.csv; do
    diff <(grep -v '^#' "$SERVE_REF/campaigns/c0001/$f") \
         <(grep -v '^#' "$SERVE_KILL/campaigns/c0001/$f") || {
        echo "tcmp-serve smoke: resumed $f differs from the uninterrupted daemon's"
        exit 1; }
done
echo "tcmp-serve smoke: SIGKILLed daemon resumed to bit-identical CSVs"

echo "== disk-tier smoke (SIGKILL mid-spill, TCMP_FS_FAULTS-armed restart, warm-start bit-identity)"
SERVE_DISK="$SMOKE_DIR/serve-disk"
SOCK_DISK="$SMOKE_DIR/disk.sock"
DISK_ARGS=(--root "$SERVE_DISK" --socket "$SOCK_DISK" --jobs 2 --warm-cycles 50000)
# lifetime 1: a warm-cycles daemon runs the campaign cold, spilling one
# checkpoint per configuration; SIGKILL it once at least two .ckpt files
# have landed (whatever spill is in flight dies mid-write) and before
# any cell has journaled its finish. The second half is what lifetime
# 3's "all 6 warm-start" rests on — a checkpoint quarantined in lifetime
# 2 is only spilled again if its cell re-runs there — and a cell lasts
# about 30 ms, so the kill point is pinned rather than hoped for: poll
# without sleeping or forking, freeze the daemon, and look at the
# journal while it cannot move. A daemon caught too late is discarded
# and the lifetime starts over on an empty root.
DISK_LANDED=0
for _ in $(seq 1 8); do
    "$SERVE" "${DISK_ARGS[@]}" >"$SMOKE_DIR/serve-disk.log" 2>&1 &
    DISK_PID=$!
    wait_for 10 test -S "$SOCK_DISK" || {
        echo "disk-tier smoke: daemon never bound its socket"
        cat "$SMOKE_DIR/serve-disk.log"; exit 1; }
    "${FIG6[@]}" "${SUBMIT_ARGS[@]}" --submit "$SOCK_DISK" >/dev/null 2>&1 &
    DISK_CLIENT=$!
    DISK_DEADLINE=$(( SECONDS + 60 ))
    # an unmatched glob stays one literal word, so two words = two files
    until CKPTS=("$SERVE_DISK/checkpoints/"*.ckpt); [ "${#CKPTS[@]}" -ge 2 ]; do
        [ "$SECONDS" -lt "$DISK_DEADLINE" ] || {
            echo "disk-tier smoke: daemon never spilled two checkpoints"
            cat "$SMOKE_DIR/serve-disk.log"; exit 1; }
    done
    kill -STOP "$DISK_PID"
    grep -q '"finish"' "$SERVE_DISK/campaigns/c0001/journal.jsonl" || DISK_LANDED=1
    kill -9 "$DISK_PID" 2>/dev/null || true
    wait "$DISK_PID" 2>/dev/null || true
    wait "$DISK_CLIENT" 2>/dev/null || true
    [ "$DISK_LANDED" -eq 1 ] && break
    rm -rf "$SERVE_DISK" "$SOCK_DISK"
done
[ "$DISK_LANDED" -eq 1 ] || {
    echo "disk-tier smoke: 8 daemons in a row journaled a finish before two checkpoints landed"
    exit 1; }
# lifetime 2: restart on the same root with the read-fault seam armed.
# The startup scan is the first reader, so the two-fault budget lands on
# the first two checkpoint files: both must be quarantined loudly, the
# campaign must still resume, and its CSVs must match the uninterrupted
# reference byte-for-byte.
TCMP_FS_FAULTS="seed=9,short=1,flip=1,max=2" \
    "$SERVE" "${DISK_ARGS[@]}" >>"$SMOKE_DIR/serve-disk.log" 2>&1 &
DISK_PID=$!
wait_for 60 test -f "$SERVE_DISK/campaigns/c0001/results.exec_time.csv" || {
    echo "disk-tier smoke: faulted restart never finalised the campaign"
    cat "$SMOKE_DIR/serve-disk.log"; exit 1; }
kill -TERM "$DISK_PID"
wait "$DISK_PID" || {
    echo "disk-tier smoke: faulted daemon did not drain cleanly (exit $?)"
    cat "$SMOKE_DIR/serve-disk.log"; exit 1; }
grep -q "quarantined checkpoint" "$SMOKE_DIR/serve-disk.log" || {
    echo "disk-tier smoke: injected read faults were not quarantined loudly"
    cat "$SMOKE_DIR/serve-disk.log"; exit 1; }
test "$(ls "$SERVE_DISK/checkpoints/quarantine/" | wc -l)" -eq 2 || {
    echo "disk-tier smoke: expected exactly the two faulted artifacts in quarantine"
    ls "$SERVE_DISK/checkpoints/quarantine/"; exit 1; }
for f in results.exec_time.csv results.link_ed2p.csv; do
    diff <(grep -v '^#' "$SERVE_REF/campaigns/c0001/$f") \
         <(grep -v '^#' "$SERVE_DISK/campaigns/c0001/$f") || {
        echo "disk-tier smoke: faulted-restart $f differs from the reference"
        exit 1; }
done
# lifetime 3: a clean restart re-submits the same sweep. c0001's
# build.id is rewritten first, standing in for a daemon rebuilt from
# another tree: its rows are then another build's and no cell takes
# them, so every cell must warm-start from the surviving + re-spilled
# checkpoints and the CSVs must still be bit-identical to the cold
# reference.
test -f "$SERVE_DISK/campaigns/c0001/build.id" || {
    echo "disk-tier smoke: c0001 names no build"; exit 1; }
echo "another build" >"$SERVE_DISK/campaigns/c0001/build.id"
"$SERVE" "${DISK_ARGS[@]}" >>"$SMOKE_DIR/serve-disk.log" 2>&1 &
DISK_PID=$!
wait_for 10 test -S "$SOCK_DISK" || {
    echo "disk-tier smoke: warm daemon never bound its socket"
    cat "$SMOKE_DIR/serve-disk.log"; exit 1; }
"${FIG6[@]}" "${SUBMIT_ARGS[@]}" --submit "$SOCK_DISK" \
    >/dev/null 2>"$SMOKE_DIR/disk-warm-client.log" || {
    echo "disk-tier smoke: warm campaign failed"
    cat "$SMOKE_DIR/disk-warm-client.log"; exit 1; }
kill -TERM "$DISK_PID"
wait "$DISK_PID" || {
    echo "disk-tier smoke: warm daemon did not drain cleanly (exit $?)"
    cat "$SMOKE_DIR/serve-disk.log"; exit 1; }
WARMED=$(grep -c "warm-start: warmed" "$SMOKE_DIR/disk-warm-client.log" || true)
test "$WARMED" -eq 6 || {
    echo "disk-tier smoke: expected all 6 cells to warm-start from disk, saw $WARMED"
    cat "$SMOKE_DIR/disk-warm-client.log"; exit 1; }
for f in results.exec_time.csv results.link_ed2p.csv; do
    diff <(grep -v '^#' "$SERVE_REF/campaigns/c0001/$f") \
         <(grep -v '^#' "$SERVE_DISK/campaigns/c0002/$f") || {
        echo "disk-tier smoke: disk-warmed $f differs from the cold reference"
        exit 1; }
done
echo "disk-tier smoke: quarantine + resume + warm-start all bit-identical"

echo "== benchmark smoke (traced serve_campaign: state-capture, warm == cold and serve gates)"
# The cargo check above only shows the frozen benchmark still compiles.
# Its own gates — snapshot bytes round-trip to the same digest, disk and
# memory checkpoints load back, 18 warm cells all warmed and equal to
# their cold runs — need a run, and serve_campaign is the one workload
# that stores and loads checkpoints end to end.
bash benchmark/run.sh --workload serve_campaign --seconds 2 --trace 1 \
    --out "$SMOKE_DIR/bench" >"$SMOKE_DIR/bench.log" 2>&1 || {
    echo "benchmark smoke: traced serve_campaign failed a gate"
    tail -n 40 "$SMOKE_DIR/bench.log"; exit 1; }
echo "benchmark smoke: traced serve_campaign passed its gates"

echo "All checks passed."
