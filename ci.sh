#!/bin/sh
# CI gate: build, tests, formatting, lints, pipeline smoke runs, benches.
# Run from the repo root.
set -eu

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test -q"
cargo test -q --workspace

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings"
# Broken or private intra-doc links (say, to a method that no longer
# exists) fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== migopt smoke runs over benchmarks/ (exit code 2 = CEC failure)"
# Every pipeline ends in `cec`: a counterexample makes migopt exit 2 and
# fails CI here. Covers the in-place fhash variants, the
# scheduler-driven fhash! convergence pass, the sharded @2/@4 engines
# and the interleaved in-place algebraic passes on all checked-in
# circuits.
MIGOPT=./target/release/migopt
for f in benchmarks/full_adder.aag benchmarks/adder8.aag \
         benchmarks/mult4.aig benchmarks/adder4.blif; do
    for p in "strash; fhash:T; cec" \
             "strash; fhash:TFD; fhash:B; cec" \
             "strash; algebraic; fhash!:B; cec" \
             "strash; fhash!:TF; fhash!:B; cec; stats" \
             "strash; fhash:T@2; fhash:TD@2; cec" \
             "strash; fhash:TF@2; fhash:TFD@2; cec" \
             "strash; fhash:BF@2; fhash:B@2; cec" \
             "strash; fhash!:T@2; fhash!:B@2; cec; stats" \
             "strash; size!; fhash!:B@2; depth!; cec" \
             "strash; algebraic; fhash:TFD; cec" \
             "strash; depth!; size!; fhash:T; cec; stats" \
             "strash; fhash!:TFD@4; algebraic; cec" \
             "strash; fhash!:B@4; algebraic; cec" \
             "strash; size!; depth!; fhash!:TD@4; cec; stats"; do
        echo "-- migopt -i $f -p \"$p\""
        "$MIGOPT" -q -i "$f" -p "$p"
    done
    # The -j default applies to passes without an explicit @N suffix.
    echo "-- migopt -j 2 -i $f (default-threads pipeline)"
    "$MIGOPT" -q -j 2 -i "$f" -p "strash; fhash:TF; fhash:B; cec"
done

echo "== traced pipelines: JSONL schema validation (trace_lint)"
# One traced sharded pipeline per benchmark: the emitted JSONL must be
# non-empty, parse line by line and carry balanced per-thread spans;
# trace_lint exits non-zero on any violation.
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT
for f in benchmarks/full_adder.aag benchmarks/adder8.aag \
         benchmarks/mult4.aig benchmarks/adder4.blif; do
    t="$TRACE_DIR/$(basename "$f").trace.jsonl"
    echo "-- migopt -i $f --trace $t"
    "$MIGOPT" -q -i "$f" -p "strash; fhash!:B@4; size!; cec" --trace "$t"
    ./target/release/trace_lint "$t"
done

echo "== generated-corpus smoke: compact pass on synthesized instances"
# Two large-graph corpus instances synthesized on the fly (gen_bench):
# deep stacked arithmetic (hyp) and control-dominated logic (ctrl),
# through the convergence scheduler, a mid-pipeline compact and a
# budgeted SAT equivalence check (random simulation always runs in
# full; exit code 2 = counterexample fails CI here). The ctrl instance
# must come back proved, not UNKNOWN; hyp:24 stays UNKNOWN.
GEN=./target/release/gen_bench
for spec in hyp:24 ctrl:8:6:150:7; do
    g="$TRACE_DIR/$(echo "$spec" | tr ':' '_').blif"
    "$GEN" "$spec" "$g"
    echo "-- migopt -i $g -p \"fhash!:B@4; compact; algebraic; cec:16000\""
    "$MIGOPT" -i "$g" -p "fhash!:B@4; compact; algebraic; cec:16000" > "$g.log"
    tail -n 1 "$g.log"
done
grep -q "equivalent (SAT proof)" "$TRACE_DIR/ctrl_8_6_150_7.blif.log" || {
    echo "FAIL: cec:16000 did not prove the optimized ctrl:8:6:150:7"; exit 1;
}

echo "== SAT-sweeping proof gate: mult:8, hyp:8, mult:64 and mult:128 prove at 16,000 conflicts"
# SAT sweeping merges the optimized nodes into their input counterparts,
# most of them by cut truth tables with no SAT call, so all four must
# prove well inside the budget.
for spec in mult:8 hyp:8 mult:64 mult:128; do
    g="$TRACE_DIR/$(echo "$spec" | tr ':' '_').blif"
    "$GEN" "$spec" "$g"
    echo "-- migopt -j 2 -i $g -p \"fhash!:TFD; algebraic; fhash!:B; cec:16000\""
    "$MIGOPT" -j 2 -i "$g" -p "fhash!:TFD; algebraic; fhash!:B; cec:16000" > "$g.log"
    tail -n 1 "$g.log"
    grep -q "equivalent (SAT proof)" "$g.log" || {
        echo "FAIL: cec:16000 did not prove the optimized $spec"; exit 1;
    }
done

echo "== migd daemon smoke: serve, repeat job, stream lint, warm-runtime gate"
# Start the daemon on a temp socket with a fresh cache file and push
# three jobs through --connect: a cold run of the synthesized hyp
# instance, an unrelated job (so the repeat is not just socket reuse),
# and an exact repeat of the first. Every captured per-job JSONL stream
# must lint clean; the repeat must be served from the result cache and
# come in at <= 0.8x the cold job's server-side runtime.
SOCK="$TRACE_DIR/migd.sock"
CACHEF="$TRACE_DIR/migd.cache"
DJOB="$TRACE_DIR/hyp_24.blif"
"$MIGOPT" -q --serve "$SOCK" --cache "$CACHEF" --workers 2 &
MIGD_PID=$!
for _ in $(seq 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "FAIL: migd socket never appeared"; exit 1; }
echo "-- migopt --connect $SOCK -i $DJOB (cold)"
"$MIGOPT" -q --connect "$SOCK" -i "$DJOB" -p "fhash!:TFD@2; compact" \
    --trace "$TRACE_DIR/job_cold.jsonl"
echo "-- migopt --connect $SOCK -i benchmarks/adder8.aag (interleaved)"
"$MIGOPT" -q --connect "$SOCK" -i benchmarks/adder8.aag -p "strash; fhash!:TFD" \
    --trace "$TRACE_DIR/job_other.jsonl"
echo "-- migopt --connect $SOCK -i $DJOB (repeat)"
"$MIGOPT" -q --connect "$SOCK" -i "$DJOB" -p "fhash!:TFD@2; compact" \
    --trace "$TRACE_DIR/job_warm.jsonl"
./target/release/trace_lint "$TRACE_DIR/job_cold.jsonl"
./target/release/trace_lint "$TRACE_DIR/job_other.jsonl"
./target/release/trace_lint "$TRACE_DIR/job_warm.jsonl"
"$MIGOPT" --shutdown "$SOCK"
wait "$MIGD_PID"
grep -q '"cached":true' "$TRACE_DIR/job_warm.jsonl" || {
    echo "FAIL: repeated daemon job was not served from the result cache"; exit 1;
}
rt_of() { grep '"type":"result"' "$1" | sed 's/.*"runtime_ns":\([0-9]*\).*/\1/'; }
RC=$(rt_of "$TRACE_DIR/job_cold.jsonl")
RW=$(rt_of "$TRACE_DIR/job_warm.jsonl")
[ -n "$RC" ] && [ -n "$RW" ] || { echo "FAIL: missing result runtimes"; exit 1; }
awk -v c="$RC" -v w="$RW" 'BEGIN { exit !(w <= 0.8 * c) }' || {
    echo "FAIL: warm daemon job ($RW ns) not <= 0.8x cold ($RC ns)"
    exit 1
}
echo "ok: warm daemon job = $RW ns <= 0.8x cold = $RC ns"

echo "== production-corpus determinism + equivalence gate (>=100k gates)"
./target/release/corpus_check

echo "== tracing-off overhead gate (sched/chain512@1, bound 5%)"
cargo run --release -q -p bench_harness --bin trace_overhead

echo "== micro/io benches (refreshes BENCH_micro.json / BENCH_io.json)"
cargo bench -p bench_harness --bench micro
cargo bench -p bench_harness --bench io_throughput

echo "== parallel-propose speedup gate (sched/mult_big@4 vs @1)"
# Commits are serial at every thread count, and so is the cut enumeration:
# the committing thread brings the scheduler's one cut set up to date
# before each propose phase. The @4 gain therefore comes from the propose
# phase alone (NPN lookup and scoring fanned out over region workers).
# It must pay off where there are cores to show it:
# with >= 4 hardware threads, the @4 mean must come in under 0.7x the @1
# mean (>= 1.4x speedup). On smaller machines the workers timeshare too
# few cores for that, so the gate degrades to a no-pathological-overhead
# bound: @4 <= 1.25x @1.
mean_of() {
    grep "\"$1\"" BENCH_micro.json | sed 's/.*"mean_ns": \([0-9.]*\).*/\1/'
}
min_of() {
    grep "\"$1\"" BENCH_micro.json | sed 's/.*"min_ns": \([0-9.]*\).*/\1/'
}
cores_of() {
    grep "\"$1\"" BENCH_micro.json | sed -n 's/.*"cores": \([0-9]*\).*/\1/p'
}
M1=$(mean_of "sched/mult_big@1")
M4=$(mean_of "sched/mult_big@4")
# The @N rows record the core count of the host that *measured* them;
# gating on that instead of `nproc` at gate time keeps the branch honest
# when the JSON was produced on a different machine than the gate runs
# on (a 1-core container's @4 row must never be held to a speedup
# target, and an 8-core host's row must never sneak past on the waiver).
CORES=$(cores_of "sched/mult_big@4")
[ -n "$CORES" ] || CORES=$(nproc 2>/dev/null || echo 1)
[ -n "$M1" ] && [ -n "$M4" ] || { echo "missing sched/mult_big rows"; exit 1; }
if [ "$CORES" -ge 4 ]; then
    awk -v a="$M1" -v b="$M4" 'BEGIN { exit !(b < 0.7 * a) }' || {
        echo "FAIL: sched/mult_big@4 ($M4 ns) not < 0.7x @1 ($M1 ns) on $CORES cores"
        exit 1
    }
    echo "ok: @4 = $M4 ns < 0.7x @1 = $M1 ns ($CORES cores)"
else
    awk -v a="$M1" -v b="$M4" 'BEGIN { exit !(b <= 1.25 * a) }' || {
        echo "FAIL: sched/mult_big@4 ($M4 ns) regressed past 1.25x @1 ($M1 ns)"
        exit 1
    }
    echo "skip: only $CORES core(s) — speedup target waived, overhead bound ok (@4 = $M4 ns, @1 = $M1 ns)"
fi

echo "== FFR scheduler gate (sched/mult_big_tfd@1 <= 1.3x sched/mult_big@1)"
# The FFR-partitioned, depth-preserving variant (the engine of the
# fhash!:TFD pipelines) reads the same graph-wide cut set as the
# level-band variant, so its single-thread run must stay within a small
# factor of the level-band row; per-region cut stores that re-enumerate
# each region's whole fanin cone would blow past it. Both rows come from
# the same run, so the ratio needs no machine-speed constant. The gate
# reads min_ns: the means of these 3-iteration rows swing with the host
# and failed unchanged code at up to 1.46x.
T1=$(min_of "sched/mult_big_tfd@1")
MM=$(min_of "sched/mult_big@1")
[ -n "$T1" ] && [ -n "$MM" ] || { echo "missing sched/mult_big_tfd@1 or sched/mult_big@1 row"; exit 1; }
awk -v t="$T1" -v m="$MM" 'BEGIN { exit !(t <= 1.3 * m) }' || {
    echo "FAIL: sched/mult_big_tfd@1 ($T1 ns) past 1.3x sched/mult_big@1 ($MM ns)"
    exit 1
}
echo "ok: sched/mult_big_tfd@1 = $T1 ns <= 1.3x sched/mult_big@1 = $MM ns (min_ns)"

echo "== allocation-free cut-kernel gate (fhash/propose_kernel_mult_big@1)"
# The arena-backed cut kernels (ISSUE 10) must hold their win: one
# single-thread in-place top-down pass over mult_big at <= 0.8x the
# pre-arena seed. Seed measured on this container before the arena
# landed: mean_ns 691320021 (nested-Vec cut storage, per-node to_vec,
# per-cut canonize). Same-shape @1 work on both sides, so no core-count
# branch; re-baseline the constant only with a storage-layer change.
PK_SEED_NS=691320021
PK=$(mean_of "fhash/propose_kernel_mult_big@1")
[ -n "$PK" ] || { echo "missing fhash/propose_kernel_mult_big@1 row"; exit 1; }
awk -v p="$PK" -v s="$PK_SEED_NS" 'BEGIN { exit !(p <= 0.8 * s) }' || {
    echo "FAIL: propose kernel ($PK ns) not <= 0.8x pre-arena seed ($PK_SEED_NS ns)"
    exit 1
}
echo "ok: propose kernel = $PK ns <= 0.8x pre-arena seed = $PK_SEED_NS ns"

echo "== large-corpus scale gate (fhash!/epfl_big@1 vs sched/mult_big@1, ns/gate)"
# Per-gate convergence cost on the 4x-larger production instance must
# stay within a constant factor of the medium instance's — superlinear
# blowup here means the storage layer stopped scaling. Both terms are
# same-machine @1 runs, so the ratio needs no core-count branch. The
# gate reads min_ns (the mean swings ~8% per iteration on shared
# hosts), and the bound is 2.25x: the two instances differ in shape
# (array multiplier against control logic), so their per-gate costs
# differ by a constant factor even when both scale linearly, and a
# speedup of the medium instance alone shifts the ratio without any
# large-instance regression.
ctx_of() {
    grep -o "\"$1\": [0-9.]*" BENCH_micro.json | head -n 1 | sed 's/.*: //'
}
E1=$(min_of "fhash!/epfl_big@1")
EG=$(ctx_of "corpus.epfl_big_gates")
MG=$(ctx_of "corpus.mult_big_gates")
[ -n "$E1" ] && [ -n "$MM" ] && [ -n "$EG" ] && [ -n "$MG" ] || {
    echo "missing epfl_big rows/context in BENCH_micro.json"; exit 1;
}
ENG=$(awk -v e="$E1" -v g="$EG" 'BEGIN { printf "%.0f", e / g }')
MNG=$(awk -v m="$MM" -v g="$MG" 'BEGIN { printf "%.0f", m / g }')
awk -v e="$ENG" -v m="$MNG" 'BEGIN { exit !(e <= 2.25 * m) }' || {
    echo "FAIL: epfl_big@1 at $ENG ns/gate, past 2.25x mult_big@1 at $MNG ns/gate"
    exit 1
}
echo "ok: epfl_big@1 = $ENG ns/gate <= 2.25x mult_big@1 = $MNG ns/gate"

echo "== deep-graph commit gate (fhash!/ctrl_deep@1 vs sched/mult_big@1, ns/gate)"
# Per-gate convergence cost on deep control logic (119k gates, depth
# 2.6k) must stay within 1.2x that of the medium multiplier. There a
# substitution makes cones thousands of levels tall shallower; walking
# each such cone once per replace_node costs about 1.5x, settling the
# decreases once per commit phase about 0.8x. Same-run @1 rows, min_ns,
# so the ratio needs no machine-speed constant.
D1=$(min_of "fhash!/ctrl_deep@1")
DG=$(ctx_of "corpus.ctrl_deep_gates")
[ -n "$D1" ] && [ -n "$DG" ] || {
    echo "missing fhash!/ctrl_deep@1 row/context in BENCH_micro.json"; exit 1;
}
DNG=$(awk -v d="$D1" -v g="$DG" 'BEGIN { printf "%.0f", d / g }')
awk -v d="$DNG" -v m="$MNG" 'BEGIN { exit !(d <= 1.2 * m) }' || {
    echo "FAIL: ctrl_deep@1 at $DNG ns/gate, past 1.2x mult_big@1 at $MNG ns/gate"
    exit 1
}
echo "ok: ctrl_deep@1 = $DNG ns/gate <= 1.2x mult_big@1 = $MNG ns/gate"

echo "== compacted-layout locality gate (walk ns/gate within 1.1x fresh)"
# The renumbered post-churn graph must walk as fast as a freshly built
# one: compaction is what keeps long-churning runs from chasing sparse
# cache lines, so a regression here is a storage-layout bug even when
# every timing row above still passes. The three walk rows are timed
# round-robin and the gate reads min_ns: one run's compacted-walk mean
# read 1.49x its own min, and rows timed one after the other read 1.41x
# on unchanged code even by min_ns.
WF=$(min_of "mig/walk_epfl_big_fresh")
WC=$(min_of "mig/walk_epfl_big_compacted")
CG=$(ctx_of "corpus.epfl_big_churned_gates")
[ -n "$WF" ] && [ -n "$WC" ] && [ -n "$CG" ] || {
    echo "missing walk_epfl_big rows/context in BENCH_micro.json"; exit 1;
}
FNG=$(awk -v w="$WF" -v g="$EG" 'BEGIN { printf "%.2f", w / g }')
CNG=$(awk -v w="$WC" -v g="$CG" 'BEGIN { printf "%.2f", w / g }')
awk -v f="$FNG" -v c="$CNG" 'BEGIN { exit !(c <= 1.1 * f) }' || {
    echo "FAIL: compacted walk at $CNG ns/gate, past 1.1x fresh walk at $FNG ns/gate"
    exit 1
}
echo "ok: compacted walk = $CNG ns/gate <= 1.1x fresh walk = $FNG ns/gate"

echo "== persistent-cache warm-speedup gate (cache/warm vs cache/cold, >= 1.25x)"
# A fresh service over the flushed cache file must answer the whole
# mult_big job from the result tier fast enough to be worth shipping:
# warm mean <= 0.8x cold mean (>= 1.25x speedup). This is pure
# load + verify vs full optimization, so the bound holds on any core
# count and a miss here means the cache or its verification got slow.
CC=$(mean_of "cache/cold_mult_big@1")
CW=$(mean_of "cache/warm_mult_big@1")
HR=$(ctx_of "cache.result_hit_rate_warm")
[ -n "$CC" ] && [ -n "$CW" ] || { echo "missing cache rows in BENCH_micro.json"; exit 1; }
awk -v h="${HR:-0}" 'BEGIN { exit !(h >= 1.0) }' || {
    echo "FAIL: warm bench iterations were not all result-tier hits (rate ${HR:-0})"
    exit 1
}
awk -v c="$CC" -v w="$CW" 'BEGIN { exit !(w <= 0.8 * c) }' || {
    echo "FAIL: cache/warm_mult_big@1 ($CW ns) not <= 0.8x cold ($CC ns)"
    exit 1
}
echo "ok: warm = $CW ns <= 0.8x cold = $CC ns (hit rate $HR)"

echo "== request-parse scaling gate (migd/parse_request_1m vs _256k, <= 6x)"
# The daemon parses every job request line with obs::json. A 4x longer
# line may cost at most 6x as much: a linear parser gives about 4x, a
# quadratic one about 16x. Both rows come from the same run, so the
# ratio needs no machine-speed constant.
R256=$(mean_of "migd/parse_request_256k")
R1M=$(mean_of "migd/parse_request_1m")
[ -n "$R256" ] && [ -n "$R1M" ] || { echo "missing migd/parse_request rows in BENCH_micro.json"; exit 1; }
awk -v a="$R256" -v b="$R1M" 'BEGIN { exit !(b <= 6 * a) }' || {
    echo "FAIL: migd/parse_request_1m ($R1M ns) past 6x migd/parse_request_256k ($R256 ns)"
    exit 1
}
echo "ok: parse_request_1m = $R1M ns <= 6x parse_request_256k = $R256 ns"

echo "== cache flush-scaling gate (cache/flush_one_into_1024 vs _64, <= 2x)"
# A job's flush appends its own record to the cache file. Flushing one
# new result into a file of 1024 results may cost at most 2x flushing it
# into a file of 64: an append costs about the same, a whole-file
# rewrite about 12x. Both rows come from the same run, so the ratio
# needs no machine-speed constant.
F64=$(mean_of "cache/flush_one_into_64")
F1K=$(mean_of "cache/flush_one_into_1024")
[ -n "$F64" ] && [ -n "$F1K" ] || { echo "missing cache/flush_one_into rows in BENCH_micro.json"; exit 1; }
awk -v a="$F64" -v b="$F1K" 'BEGIN { exit !(b <= 2 * a) }' || {
    echo "FAIL: cache/flush_one_into_1024 ($F1K ns) past 2x cache/flush_one_into_64 ($F64 ns)"
    exit 1
}
echo "ok: flush_one_into_1024 = $F1K ns <= 2x flush_one_into_64 = $F64 ns"

echo "== BLIF conversion gate (io/read_blif_ctrl1k <= 6x, io/write_blif_ctrl1k <= 2x io/rebuild_ctrl1k)"
# Every migd job reads its circuit from BLIF text and a miss writes its
# result back. Reading (parse, then to_mig) and writing (from_mig, then
# to_text) a 1,092-gate control circuit must cost a small multiple of
# building the same graph without text (io::blif::round_trip): a
# per-gate string document reads at about 12x and writes at about 8-10x.
# The three rows are timed round-robin in one run and the gate reads
# min_ns, so the ratios need no machine-speed constant.
io_min_of() {
    grep "\"$1\"" BENCH_io.json | sed 's/.*"min_ns": \([0-9.]*\).*/\1/'
}
BR=$(io_min_of "io/read_blif_ctrl1k")
BW=$(io_min_of "io/write_blif_ctrl1k")
BB=$(io_min_of "io/rebuild_ctrl1k")
[ -n "$BR" ] && [ -n "$BW" ] && [ -n "$BB" ] || { echo "missing BLIF ctrl1k rows in BENCH_io.json"; exit 1; }
awk -v r="$BR" -v b="$BB" 'BEGIN { exit !(r <= 6 * b) }' || {
    echo "FAIL: io/read_blif_ctrl1k ($BR ns) past 6x io/rebuild_ctrl1k ($BB ns)"
    exit 1
}
awk -v w="$BW" -v b="$BB" 'BEGIN { exit !(w <= 2 * b) }' || {
    echo "FAIL: io/write_blif_ctrl1k ($BW ns) past 2x io/rebuild_ctrl1k ($BB ns)"
    exit 1
}
echo "ok: read = $BR ns <= 6x, write = $BW ns <= 2x rebuild = $BB ns"

echo "CI OK"
