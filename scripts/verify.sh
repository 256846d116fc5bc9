#!/usr/bin/env bash
# Tier-1 verification: build, full test suite (unit + doc tests), docs,
# trace capture/replay, ablation, checkpoint warm-start and stats-export
# smoke tests, and formatting. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
build_start=$SECONDS
cargo build --release
echo "release build took $((SECONDS - build_start))s"

echo "== cargo test -q (includes doc tests)"
cargo test -q

echo "== cargo test --doc (explicit gate: Session/Checkpoint examples)"
cargo test --doc -q

echo "== cargo clippy --all-targets -D warnings (lint gate)"
cargo clippy --all-targets -- -D warnings

echo "== cargo doc --no-deps (warnings are errors; docs cannot rot)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "== trace capture/replay smoke test"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
./target/release/repro --scale quick trace capture swim "$tmp/swim.cmtr"
./target/release/repro trace replay "$tmp/swim.cmtr" --sched fr-fcfs | tee "$tmp/replay.out"
./target/release/repro trace replay "$tmp/swim.cmtr" --sched casras-crit
# Auditing observes replay without changing it: same output, line for line.
./target/release/repro --audit trace replay "$tmp/swim.cmtr" --sched fr-fcfs > "$tmp/replay.audit"
diff "$tmp/replay.out" "$tmp/replay.audit"

echo "== streaming pipeline smoke test (capture -> profile -> synth)"
# Stream the capture back (constant chunk memory), fit a CMPF traffic
# profile, and synthesize a 1M-request long-horizon run with windowed
# online stats.
./target/release/repro trace stream "$tmp/swim.cmtr" --sched fr-fcfs \
  | tee "$tmp/stream.out"
grep -q 'peak resident chunk memory 10756 B' "$tmp/stream.out"
# Streamed and in-memory replay of one capture agree on every statistic.
summary() { grep -E '^  (mean read latency|row hits)' "$1"; }
diff <(summary "$tmp/replay.out") <(summary "$tmp/stream.out")
./target/release/repro trace profile "$tmp/swim.cmtr" "$tmp/swim.cmpf"
./target/release/repro trace synth "$tmp/swim.cmpf" --requests 1000000 \
  --sched casras-crit --max-outstanding 64 --epoch 1000000 --window 32 \
  | tee "$tmp/synth.out"
grep -q 'synthesized 1000000 requests' "$tmp/synth.out"
grep -q 'windowed online stats' "$tmp/synth.out"
# The recorded bench block must carry the long-horizon acceptance line
# (regenerate with `cargo bench --bench engine`).
grep -q '"streaming"' BENCH_engine.json
grep -q '"requests_per_sec"' BENCH_engine.json
grep -q '"acceptance": "requests_per_sec measured over >= 10000000 synthesized requests; peak_resident_chunk_bytes <= chunk_bytes"' BENCH_engine.json

echo "== parallel engine smoke test (--jobs 2 must match serial output)"
./target/release/repro --scale quick --jobs 1 fig10 > "$tmp/fig10.serial" 2>/dev/null
./target/release/repro --scale quick --jobs 2 fig10 > "$tmp/fig10.jobs2" 2>/dev/null
diff "$tmp/fig10.serial" "$tmp/fig10.jobs2"

echo "== skip-ahead smoke test (--no-skip-ahead must match serial output)"
# Event-driven skip-ahead changes wall-clock time only; figure output
# must be byte-identical.
./target/release/repro --scale quick --jobs 1 --no-skip-ahead fig10 > "$tmp/fig10.noskip" 2>/dev/null
diff "$tmp/fig10.serial" "$tmp/fig10.noskip"
# The recorded bench block must exist with its acceptance line
# (regenerate with `cargo bench --bench engine`).
grep -q '"skip_ahead"' BENCH_engine.json
grep -q '"acceptance": "speedup >= 3 on the DRAM-bound idle-heavy probe; stats byte-identical (asserted here and in crates/core/tests/skip_ahead.rs)"' BENCH_engine.json

echo "== ablation smoke test (three tables; serial == --jobs 2 == --no-skip-ahead)"
./target/release/repro --scale quick --jobs 1 ablate > "$tmp/ablate.serial" 2>/dev/null
for title in 'Ablation: Crit-CASRAS vs CASRAS-Crit' 'Ablation: starvation cap' \
  'Ablation: address interleaving'; do
  grep -q "^=== $title" "$tmp/ablate.serial"
done
./target/release/repro --scale quick --jobs 2 ablate > "$tmp/ablate.jobs2" 2>/dev/null
diff "$tmp/ablate.serial" "$tmp/ablate.jobs2"
./target/release/repro --scale quick --jobs 1 --no-skip-ahead ablate > "$tmp/ablate.noskip" 2>/dev/null
diff "$tmp/ablate.serial" "$tmp/ablate.noskip"

echo "== checkpoint warm-start smoke test"
# Round-trip a CMCK artifact through the CLI, then check that a
# warm-started sweep is deterministic across worker counts.
./target/release/repro --scale quick checkpoint save swim "$tmp/swim.cmck" --cycles 20000
./target/release/repro --scale quick checkpoint restore "$tmp/swim.cmck" swim \
  --sched casras-crit --pred maxstalltime
./target/release/repro --scale quick --jobs 1 --warm-cycles 20000 fig10 > "$tmp/fig10.warm1" 2>/dev/null
./target/release/repro --scale quick --jobs 2 --warm-cycles 20000 fig10 > "$tmp/fig10.warm2" 2>/dev/null
diff "$tmp/fig10.warm1" "$tmp/fig10.warm2"

echo "== torn artifact smoke test (typed errors, exit 1, never a panic)"
# Cut 3 bytes off the trace, checkpoint and profile written above:
# each decoder must name the damage and exit 1 (a panic exits 101).
# The trace is also cut inside its header, after its first 20 bytes.
for ext in cmtr cmck cmpf; do
  head -c -3 "$tmp/swim.$ext" > "$tmp/torn.$ext"
done
head -c 20 "$tmp/swim.cmtr" > "$tmp/torn-header.cmtr"
expect_torn() {
  local rc=0
  "$@" > /dev/null 2> "$tmp/torn.err" || rc=$?
  if [ "$rc" -ne 1 ] || ! grep -q 'truncated' "$tmp/torn.err"; then
    echo "torn artifact smoke: '$*' exited $rc, expected 1 with 'truncated':" >&2
    cat "$tmp/torn.err" >&2
    exit 1
  fi
}
# Both trace readers word a cut tail and a cut header alike, naming
# the file, whether the damage is met at open or mid-replay.
for cut in 'torn|stream truncated mid-chunk checksum \([0-9]+ of [0-9]+ bytes\)' \
  'torn-header|truncated header'; do
  name=${cut%%|*}
  for sub in replay stream; do
    expect_torn ./target/release/repro trace "$sub" "$tmp/$name.cmtr" --sched fr-fcfs
    cp "$tmp/torn.err" "$tmp/torn.$sub.err"
  done
  if ! grep -qxE "cannot read $tmp/$name.cmtr: corrupt trace: ${cut#*|}" "$tmp/torn.replay.err" ||
    ! cmp -s "$tmp/torn.replay.err" "$tmp/torn.stream.err"; then
    echo "torn artifact smoke: 'trace replay' and 'trace stream' worded $name.cmtr as:" >&2
    cat "$tmp/torn.replay.err" "$tmp/torn.stream.err" >&2
    exit 1
  fi
done
expect_torn ./target/release/repro --scale quick checkpoint restore "$tmp/torn.cmck" swim \
  --sched casras-crit --pred maxstalltime
expect_torn ./target/release/repro trace synth "$tmp/torn.cmpf" --requests 1000

echo "== stale journal smoke test (version-1 and -2 journals are refused, never re-run)"
# A CMJR header of version 1 (series as embedded JSONL) or version 2
# (records under hand-formatted keys, not cell ids) must fail --resume
# with a typed error and exit 1: no panic, no silent re-run.
for version in 1 2; do
  printf "CMJR\\00${version}\\000\\000\\000" > "$tmp/v$version.cmjr"
  rc=0
  ./target/release/repro --scale quick --journal "$tmp/v$version.cmjr" --resume fig4 \
    > "$tmp/v$version.out" 2> "$tmp/v$version.err" || rc=$?
  if [ "$rc" -ne 1 ] || ! grep -q "unsupported sweep journal version $version" "$tmp/v$version.err" ||
    [ -s "$tmp/v$version.out" ]; then
    echo "stale journal smoke: version $version --resume exited $rc, expected 1 with the version error:" >&2
    cat "$tmp/v$version.err" >&2
    exit 1
  fi
done

echo "== journal scope smoke test (a subcommand refuses --journal, exit 2)"
# Only figure sweeps journal their cells: a subcommand given --journal
# must name itself, exit 2 and leave no journal file behind.
rc=0
./target/release/repro --scale quick --journal "$tmp/j.cmjr" stats swim \
  > /dev/null 2> "$tmp/j.err" || rc=$?
if [ "$rc" -ne 2 ] || [ -e "$tmp/j.cmjr" ] || ! grep -q '^repro stats: ' "$tmp/j.err"; then
  echo "journal scope smoke: 'stats --journal' exited $rc, expected 2 and no j.cmjr:" >&2
  cat "$tmp/j.err" >&2
  exit 1
fi

echo "== warmup scope smoke test (a subcommand refuses --warm-cycles, exit 2)"
# Only figure sweeps share a warmup across their cells: a subcommand
# given --warm-cycles must name itself and exit 2, never run cold.
rc=0
./target/release/repro --scale quick --warm-cycles 20000 fairness AELV \
  > /dev/null 2> "$tmp/w.err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q '^repro fairness: ' "$tmp/w.err"; then
  echo "warmup scope smoke: 'fairness --warm-cycles' exited $rc, expected 2:" >&2
  cat "$tmp/w.err" >&2
  exit 1
fi

echo "== stats export smoke test (JSONL, serial == --jobs 2 == --no-skip-ahead)"
./target/release/repro --scale quick --jobs 1 stats swim --epoch 20000 > "$tmp/stats.serial" 2>/dev/null
./target/release/repro --scale quick --jobs 2 stats swim --epoch 20000 > "$tmp/stats.jobs2" 2>/dev/null
diff "$tmp/stats.serial" "$tmp/stats.jobs2"
# Every sample reads the counters of cores asleep below their own
# horizon, so the series must not depend on the kernel either.
./target/release/repro --scale quick --jobs 1 --no-skip-ahead stats swim --epoch 20000 \
  > "$tmp/stats.noskip" 2>/dev/null
diff "$tmp/stats.serial" "$tmp/stats.noskip"
# Radix on the 8-core baseline keeps cores asleep on MSHR bounces for
# most of the run, so its samples read every cache.l2, cbp.coreN and
# cpu.coreN counter while they sleep.
./target/release/repro --scale quick --jobs 1 stats radix --epoch 2000 > "$tmp/radix.serial" 2>/dev/null
./target/release/repro --scale quick --jobs 1 --no-skip-ahead stats radix --epoch 2000 \
  > "$tmp/radix.noskip" 2>/dev/null
diff "$tmp/radix.serial" "$tmp/radix.noskip"
head -c 120 "$tmp/stats.serial" | grep -q '"type":"export"'

echo "== fairness frontier smoke test (table + export, deterministic)"
# One bundle through the scheduler zoo: the table must list BLISS and
# MetaSwitch, the JSONL export block must follow, and stdout must be
# byte-identical across --jobs and --no-skip-ahead.
./target/release/repro --scale quick --jobs 1 fairness AELV > "$tmp/fair.serial" 2>/dev/null
grep -q 'Performance-fairness frontier' "$tmp/fair.serial"
grep -q '^BLISS ' "$tmp/fair.serial"
grep -q '^MetaSwitch ' "$tmp/fair.serial"
grep -q '"type":"export"' "$tmp/fair.serial"
./target/release/repro --scale quick --jobs 2 fairness AELV > "$tmp/fair.jobs2" 2>/dev/null
diff "$tmp/fair.serial" "$tmp/fair.jobs2"
./target/release/repro --scale quick --jobs 1 --no-skip-ahead fairness AELV > "$tmp/fair.noskip" 2>/dev/null
diff "$tmp/fair.serial" "$tmp/fair.noskip"
# --audit reaches the multiprogrammed cells (alone and bundle runs) too:
# the audited frontier must be silent and byte-identical.
./target/release/repro --scale quick --jobs 1 --audit fairness AELV > "$tmp/fair.audit" 2>/dev/null
diff "$tmp/fair.serial" "$tmp/fair.audit"

echo "== hetero mix smoke test (table + export, deterministic)"
# A small heterogeneous mix through the scheduler zoo: the table and
# JSONL export must emit, and stdout must be byte-identical across
# --jobs and --no-skip-ahead (cores sleep below their own horizon
# while the agents beside them generate every cycle).
./target/release/repro --scale quick --jobs 1 hetero 'ooo:mcf+stream+bulk' \
  > "$tmp/hetero.serial" 2>/dev/null
grep -q 'Heterogeneous-mix sweep' "$tmp/hetero.serial"
grep -q '^BLISS ' "$tmp/hetero.serial"
grep -q 'QoS violations' "$tmp/hetero.serial"
grep -q '"type":"export"' "$tmp/hetero.serial"
./target/release/repro --scale quick --jobs 2 hetero 'ooo:mcf+stream+bulk' \
  > "$tmp/hetero.jobs2" 2>/dev/null
diff "$tmp/hetero.serial" "$tmp/hetero.jobs2"
./target/release/repro --scale quick --jobs 1 --no-skip-ahead hetero 'ooo:mcf+stream+bulk' \
  > "$tmp/hetero.noskip" 2>/dev/null
diff "$tmp/hetero.serial" "$tmp/hetero.noskip"

echo "== mix sugar smoke test (bundle and alone mixes run, an empty platform is refused)"
# `bundle:` and `alone:` are sugar for lists of ooo terms, so the
# hetero study sizes their platforms like any other mix and exits 0.
./target/release/repro --scale quick hetero bundle:AELV alone:mcf > "$tmp/sugar.out" 2>/dev/null
grep -q 'Heterogeneous-mix sweep' "$tmp/sugar.out"
# A parallel app pins no core count, so the hetero platform has no
# cores: every cell fails with a typed configuration error (exit 2).
rc=0
./target/release/repro --scale quick hetero parallel:swim > "$tmp/empty.out" 2>/dev/null || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q 'invalid configuration: empty agent mix' "$tmp/empty.out"; then
  echo "mix sugar smoke: 'hetero parallel:swim' exited $rc, expected 2 with empty-mix failures:" >&2
  cat "$tmp/empty.out" >&2
  exit 1
fi

echo "== one multiprogrammed sweep (a bundle scores alike in fairness and hetero)"
# `bundle:AELV` is a plain hetero mix on the Figure 12 platform, so the
# hetero study must report the frontier's weighted speedup and max
# slowdown for every scheduler (run, cycle and the first two gauges).
./target/release/repro --scale quick fairness AELV --format csv --out "$tmp/f.csv" \
  > /dev/null 2>&1
./target/release/repro --scale quick hetero bundle:AELV --format csv --out "$tmp/h.csv" \
  > /dev/null 2>&1
diff <(tail -n +2 "$tmp/f.csv" | cut -d, -f1-4) <(tail -n +2 "$tmp/h.csv" | cut -d, -f1-4)

echo "== tracesweep reproducibility (stdout holds no host time)"
# The sweep's wall-clock line goes to stderr, so two runs print the
# same stdout.
./target/release/repro --scale quick --jobs 2 tracesweep > "$tmp/ts1.out" 2>/dev/null
./target/release/repro --scale quick --jobs 2 tracesweep > "$tmp/ts2.out" 2>/dev/null
cmp "$tmp/ts1.out" "$tmp/ts2.out"

echo "== audit smoke test (--audit byte-identical, campaign 100% detection)"
# An audited run must be silent and byte-identical to the unaudited
# baseline; the scheduler certification and the fault-injection
# campaign must report zero silent outcomes; a single injected fault
# must surface with its documented exit code (4 = audit violation).
./target/release/repro --scale quick --jobs 1 --audit fig10 > "$tmp/fig10.audit" 2>/dev/null
diff "$tmp/fig10.serial" "$tmp/fig10.audit"
# The hetero mix adds write drains and agents: the protocol auditor
# re-checks every command the controller's per-bank slot sets let through.
./target/release/repro --scale quick --jobs 1 --audit hetero 'ooo:mcf+stream+bulk' \
  > "$tmp/hetero.audit" 2>/dev/null
diff "$tmp/hetero.serial" "$tmp/hetero.audit"
./target/release/repro audit
./target/release/repro audit campaign | tee "$tmp/campaign.out"
grep -q 'faults detected (zero silent outcomes)' "$tmp/campaign.out"
if ./target/release/repro audit inject corrupt-sched@ch0,c5000 \
    > "$tmp/inject.out" 2>/dev/null; then
  echo "audit smoke: corrupt-sched injection was expected to exit non-zero" >&2
  exit 1
else
  rc=$?
fi
if [ "$rc" -ne 4 ]; then
  echo "audit smoke: corrupt-sched exit code was $rc, expected 4" >&2
  exit 1
fi
grep -q 'detected as audit violation' "$tmp/inject.out"

echo "== fault-injection smoke test (isolation + journal resume)"
# Build the harness with the injection hooks armed, wedge one cell of a
# two-figure sweep, and check at --jobs 4 and --jobs 1 that (a) the
# sweep completes with a non-zero exit and a failure report, identical
# at both widths, and (b) --resume reproduces the clean run's stdout
# byte for byte.
cargo build --release --features critmem/fault-inject -q
faulty=./target/release/repro
"$faulty" --scale quick --jobs 4 fig4 fig6 > "$tmp/sweep.clean" 2>/dev/null
for jobs in 4 1; do
  if CRITMEM_FAULT_PANIC_KEY='mg|CASRAS-Crit|Binary' \
      "$faulty" --scale quick --jobs "$jobs" --journal "$tmp/sweep$jobs.cmjr" fig4 fig6 \
      > "$tmp/sweep.faulted$jobs" 2>/dev/null; then
    echo "fault-injection smoke: expected a non-zero exit at --jobs $jobs" >&2
    exit 1
  fi
  grep -q '=== Failed cells ===' "$tmp/sweep.faulted$jobs"
  "$faulty" --scale quick --jobs "$jobs" --journal "$tmp/sweep$jobs.cmjr" --resume fig4 fig6 \
    > "$tmp/sweep.resumed$jobs" 2>/dev/null
  cmp "$tmp/sweep.clean" "$tmp/sweep.resumed$jobs"
done
cmp "$tmp/sweep.faulted4" "$tmp/sweep.faulted1"
# Every other subcommand that runs cells reports a failed one the same
# way: exit 1 (a cell panic's class code) and the failure report on
# stdout, never placeholder values under exit 0.
expect_failed_cell() {
  local key=$1 rc=0
  shift
  CRITMEM_FAULT_PANIC_KEY="$key" "$faulty" --scale quick "$@" \
    > "$tmp/cell.out" 2> "$tmp/cell.err" || rc=$?
  if [ "$rc" -ne 1 ] || ! grep -qx '=== Failed cells ===' "$tmp/cell.out"; then
    echo "fault-injection smoke: '$*' with cell '$key' failing exited $rc," \
      "expected 1 with a failure report:" >&2
    cat "$tmp/cell.out" "$tmp/cell.err" >&2
    exit 1
  fi
}
expect_failed_cell 'swim|MaxStallTime' trace capture swim "$tmp/faulted.cmtr"
if [ -e "$tmp/faulted.cmtr" ]; then
  echo "fault-injection smoke: a failed trace capture still wrote its file" >&2
  exit 1
fi
expect_failed_cell 'swim|CASRAS-Crit|replay' trace sweep swim
expect_failed_cell 'sampled:' stats swim --epoch 20000
expect_failed_cell 'AELV|BLISS' fairness AELV
# A failed cell leaves placeholders in the export, so --out writes none.
expect_failed_cell 'AELV|BLISS' fairness AELV --out "$tmp/f.jsonl"
if [ -e "$tmp/f.jsonl" ]; then
  echo "fault-injection smoke: a failed fairness run still wrote its --out file" >&2
  exit 1
fi
expect_failed_cell 'swim|Crit-CASRAS' checkpoint sweep swim
expect_failed_cell 'ooo:mcf+stream|BLISS' hetero 'ooo:mcf+stream'
# Rebuild without the feature so later runs use the production binary.
cargo build --release -q

echo "== perfbench digest pin (simulated behaviour is byte-identical)"
# The first input of each perfbench workload must simulate to the same
# digest. A change that moves simulated behaviour by design (ROADMAP
# item 1's address layout, say) updates the digests here.
for pin in par-radix:b6fa28ad hetero-stream:43cc4b67 replay-synth:bb8eaf22; do
  workload=${pin%%:*}
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 0 \
    > "$tmp/perf.out" 2> "$tmp/perf.err"
  if ! grep -q "^simulated digest=${pin#*:} " "$tmp/perf.out" ||
    ! tail -n 1 "$tmp/perf.out" | grep -q '"correct": true'; then
    echo "perfbench digest pin: $workload expected digest ${pin#*:}, correct:" >&2
    cat "$tmp/perf.out" "$tmp/perf.err" >&2
    exit 1
  fi
done

echo "== cargo fmt --check (fails on rustfmt drift)"
cargo fmt --check

echo "verify: OK"
