#!/usr/bin/env bash
# Builds the test suite in a separate tree with AddressSanitizer and
# UBSan enabled (-DMSCCLANG_SANITIZE=ON) and runs the suites that
# exercise the pooled hot paths hardest: the interpreter's send-op
# arena and ring inboxes, the event queue's callback slots, the
# fault/watchdog abort paths that recycle both mid-kernel, and the
# compiler's shared paths — the plan cache's locked LRU + disk spill
# and the parallel race verifier's per-rank thread pool — the XML
# reader and the structural-index checks on loaded IR (Xml), plus the
# workload replay engine (Workload|Replay|Slo), which multiplexes
# live executions and recovery retries over one shared fabric, and
# the compiler passes' raw index arithmetic — the linear critical
# path, lowering's access histories, fusion's edge rewiring, the
# scheduler's compact graph and flat tables
# (ChunkDag|Lowering|Fusion|Schedule|InstrGraph|CompileStats), and the
# tuner's threaded sweep (Tuner). Also
# registered as the "sanitize" ctest configuration (ctest -C sanitize)
# next to the existing "perf" configuration.
#
# With --chaos-sweep, additionally builds the mscclang_chaos driver in
# the sanitized tree and runs a small deterministic fault-matrix sweep
# twice per machine, diffing the CSV output: any nondeterminism in the
# self-healing path (replan, backoff, quarantine) fails the run. This
# is the `ctest -C chaos` CI gate's heavy half.
#
# With --tsan, builds a third tree with ThreadSanitizer instead
# (-DMSCCLANG_TSAN=ON; TSan cannot link with ASan) and runs the
# suites that actually spin threads: the flow network's shard batch
# workers (Sim), the simThreads determinism sweeps (Determinism),
# the watchdog abort path at several thread counts (Watchdog), the
# fault path that mutates capacities between batches (Faults), the
# schedule search's budget-leased
# sweep worker pool (Search, SimThreadLease), and the race verifier's
# threaded per-rank driver across worker counts (Races,
# Hierarchical), and the tuner's sweep on the same pool (Tuner). TSan
# runs export
# MSCCLANG_SIM_THREADS_UNCAPPED=1 so the worker pools spin real
# threads — and real interleavings — even on a small CI host where
# the hardware-concurrency cap would otherwise collapse every pool
# to inline execution.
# Registered as the "tsan" ctest configuration (ctest -C tsan).
#
# Usage: tools/run_sanitized.sh [--chaos-sweep|--tsan] [ctest -R regex]
set -euo pipefail
cd "$(dirname "$0")/.."

CHAOS_SWEEP=0
TSAN=0
if [[ "${1:-}" == "--chaos-sweep" ]]; then
    CHAOS_SWEEP=1
    shift
elif [[ "${1:-}" == "--tsan" ]]; then
    TSAN=1
    shift
fi

if [[ "$TSAN" == "1" ]]; then
    BUILD_DIR="${BUILD_DIR:-build-tsan}"
    SANITIZE_FLAG="-DMSCCLANG_TSAN=ON"
    FILTER="${1:-Sim|Determinism|Faults|Watchdog|Search|SimThreadLease|Replay|Hierarchical|Races|Tuner}"
else
    BUILD_DIR="${BUILD_DIR:-build-asan}"
    SANITIZE_FLAG="-DMSCCLANG_SANITIZE=ON"
    FILTER="${1:-Faults|Watchdog|Communicator|Interpreter|EventQueue|Flow|Recovery|Health|PlanCache|Determinism|Races|Search|SimThreadLease|Workload|Replay|Slo|Hierarchical|Xml|ChunkDag|Lowering|Fusion|Schedule|InstrGraph|CompileStats|Tuner}"
fi

cmake -B "$BUILD_DIR" -S . "$SANITIZE_FLAG" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" --target test_faults test_interpreter \
    test_sim test_races test_recovery test_plan_cache \
    test_determinism test_search test_workload test_hierarchical \
    test_xml test_compiler test_schedule test_instr_graph test_tuner \
    -j"$(nproc)"

if [[ "$TSAN" == "1" ]]; then
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
    # Real threads even on tiny hosts: the point of the TSan run is
    # cross-thread interleavings, not wall-clock speed.
    export MSCCLANG_SIM_THREADS_UNCAPPED=1
else
    export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
fi
ctest --test-dir "$BUILD_DIR" -R "$FILTER" --output-on-failure \
    -j"$(nproc)"

if [[ "$CHAOS_SWEEP" == "1" ]]; then
    cmake --build "$BUILD_DIR" --target mscclang_chaos -j"$(nproc)"
    CHAOS="$BUILD_DIR/tools/mscclang_chaos"
    TMP="$(mktemp -d)"
    trap 'rm -rf "$TMP"' EXIT
    # One single-node sweep (fallback recovery: no ring survives a
    # per-GPU egress fault) and one two-node NIC sweep (replan
    # recovery: the ring re-forms around the dead NIC), each run
    # twice with the same seed and diffed for bit-identical output.
    sweep() {
        local name="$1"
        shift
        echo "chaos sweep: $name"
        "$CHAOS" "$@" --seed 7 --csv "$TMP/$name.1.csv" > /dev/null
        "$CHAOS" "$@" --seed 7 --csv "$TMP/$name.2.csv" > /dev/null
        diff "$TMP/$name.1.csv" "$TMP/$name.2.csv" \
            || { echo "chaos sweep '$name' is nondeterministic"; exit 1; }
    }
    sweep generic-node --machine generic:1:4 --bytes 1MB --data
    sweep generic-nic --machine generic:2:4 --bytes 1MB \
        --resource 'ib-send[0.3]' --data
    echo "chaos sweeps deterministic"
fi
