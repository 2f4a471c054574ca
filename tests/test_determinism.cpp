/**
 * @file
 * Bit-exact determinism of the simulator AND the compiler. Simulated
 * results — the ExecStats fingerprint, the trace file content, and
 * data-mode buffer contents — must be identical on every run of the
 * same program: hot-path work (incremental max-min rates, pooled
 * events, dense interpreter plans, parallel tuner sweeps) is only
 * allowed to move wall-clock time, never simulated time. The same
 * contract binds the compiler: data-structure and verifier overhauls
 * may only move wall-clock time, never the emitted IR (instruction
 * order, channel and thread-block assignment) or a verifier verdict,
 * pinned here by golden FNV-1a hashes of the IR XML measured at the
 * pre-overhaul compiler. EXPERIMENTS.md states both contracts.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collectives/classic.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "compiler/verifier.h"
#include "runtime/communicator.h"
#include "runtime/interpreter.h"
#include "runtime/tuner.h"
#include "topology/topology.h"
#include "workload/replay.h"
#include "workload/workload.h"

namespace mscclang {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Runs @p ir once in timing mode, tracing to @p trace_path. */
ExecStats
runTimed(const Topology &topo, const IrProgram &ir,
         std::uint64_t bytes, const std::string &trace_path)
{
    ExecOptions exec;
    exec.bytesPerRank = bytes;
    exec.maxTilesPerChunk = 16;
    exec.launchOverheadUs = topo.params().kernelLaunchUs;
    exec.traceFile = trace_path;
    return runIr(topo, ir, exec);
}

/**
 * Runs twice from identical fresh state and requires the stats and
 * the trace files to be bitwise identical (== on doubles, byte-equal
 * trace content).
 */
void
expectBitIdentical(const Topology &topo, const IrProgram &ir,
                   std::uint64_t bytes)
{
    // Per-test names: ctest -j runs the tests of this file as
    // concurrent processes sharing one temp directory.
    std::string stem = testing::TempDir() + "mscclang_determinism_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::string path_a = stem + "_a.json";
    std::string path_b = stem + "_b.json";
    ExecStats a = runTimed(topo, ir, bytes, path_a);
    ExecStats b = runTimed(topo, ir, bytes, path_b);
    EXPECT_EQ(a.endNs, b.endNs);
    EXPECT_EQ(a.startNs, b.startNs);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.wireBytes, b.wireBytes); // exact, not NEAR
    std::string trace_a = slurp(path_a);
    std::string trace_b = slurp(path_b);
    EXPECT_FALSE(trace_a.empty());
    EXPECT_EQ(trace_a, trace_b);
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(Determinism, RingAllReduceSingleNode)
{
    Topology topo = makeNdv4(1);
    AlgoConfig cfg;
    cfg.protocol = Protocol::LL128;
    cfg.instances = 2;
    IrProgram ir = compileProgram(*makeRingAllReduce(8, 2, cfg)).ir;
    expectBitIdentical(topo, ir, 1 << 20);
}

TEST(Determinism, RingAllReduceTwoNodesCrossesIb)
{
    Topology topo = makeNdv4(2);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 4;
    IrProgram ir = compileProgram(*makeRingAllReduce(16, 4, cfg)).ir;
    expectBitIdentical(topo, ir, 4 << 20);
}

TEST(Determinism, DoubleBinaryTreeDgx2)
{
    Topology topo = makeDgx2(1);
    AlgoConfig cfg;
    cfg.protocol = Protocol::LL;
    cfg.instances = 2;
    IrProgram ir =
        compileProgram(*makeDoubleBinaryTreeAllReduce(16, cfg)).ir;
    expectBitIdentical(topo, ir, 256 << 10);
}

TEST(Determinism, HierarchicalAllReduceDgx1)
{
    Topology topo = makeDgx1();
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 1;
    IrProgram ir =
        compileProgram(*makeRabenseifnerAllReduce(8, cfg)).ir;
    expectBitIdentical(topo, ir, 1 << 20);
}

TEST(Determinism, DataModeStatsAndBuffersAreBitIdentical)
{
    Topology topo = makeNdv4(1);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 2;
    IrProgram ir = compileProgram(*makeRingAllReduce(8, 2, cfg)).ir;
    const std::uint64_t bytes = 256 << 10;

    auto run_once = [&](DataStore &store, int threads) {
        store.configure(ir, bytes);
        for (int r = 0; r < 8; r++) {
            std::vector<float> &in = store.input(r);
            for (size_t i = 0; i < in.size(); i++)
                in[i] = static_cast<float>((r * 131 + i) % 97);
        }
        ExecOptions exec;
        exec.dataMode = true;
        exec.bytesPerRank = bytes;
        exec.maxTilesPerChunk = 16;
        exec.launchOverheadUs = topo.params().kernelLaunchUs;
        exec.simThreads = threads;
        return runIr(topo, ir, exec, &store);
    };

    DataStore store_a;
    ExecStats a = run_once(store_a, 1);
    // A repeat at one thread, then every simulation thread count.
    for (int threads : { 1, 2, 4, 8 }) {
        SCOPED_TRACE(threads);
        DataStore store_b;
        ExecStats b = run_once(store_b, threads);
        EXPECT_EQ(a.endNs, b.endNs);
        EXPECT_EQ(a.messages, b.messages);
        EXPECT_EQ(a.wireBytes, b.wireBytes);
        for (int r = 0; r < 8; r++) {
            // Element-exact: reductions must run in the same order too.
            EXPECT_EQ(store_a.output(r), store_b.output(r))
                << "rank " << r;
        }
    }
}

TEST(Determinism, TimingModeMatchesDataModeTimings)
{
    // The two modes share one event schedule; moving real floats must
    // not perturb simulated time.
    Topology topo = makeNdv4(1);
    AlgoConfig cfg;
    cfg.protocol = Protocol::LL;
    cfg.instances = 2;
    IrProgram ir = compileProgram(*makeRingAllReduce(8, 2, cfg)).ir;
    const std::uint64_t bytes = 64 << 10;

    ExecOptions timing;
    timing.bytesPerRank = bytes;
    timing.maxTilesPerChunk = 16;
    timing.launchOverheadUs = topo.params().kernelLaunchUs;
    ExecStats t = runIr(topo, ir, timing);

    DataStore store;
    store.configure(ir, bytes);
    ExecOptions data = timing;
    data.dataMode = true;
    ExecStats d = runIr(topo, ir, data, &store);

    EXPECT_EQ(t.endNs, d.endNs);
    EXPECT_EQ(t.messages, d.messages);
    EXPECT_EQ(t.wireBytes, d.wireBytes);
}

/** One timing-mode run with the given flow-network thread count. */
ExecStats
runWithSimThreads(const Topology &topo, const IrProgram &ir,
                  std::uint64_t bytes, int threads,
                  const std::string &trace_path = std::string())
{
    ExecOptions exec;
    exec.bytesPerRank = bytes;
    exec.maxTilesPerChunk = 16;
    exec.launchOverheadUs = topo.params().kernelLaunchUs;
    exec.simThreads = threads;
    exec.traceFile = trace_path;
    return runIr(topo, ir, exec);
}

/**
 * The parallel-simulation contract (DESIGN.md §11): the simulated
 * fingerprint is bit-identical at every thread count. Runs at one
 * thread as the reference, then at {2, 4, 8}; any divergence means a
 * shard batch leaked ordering into simulated time.
 */
void
expectSimThreadInvariant(const Topology &topo, const IrProgram &ir,
                         std::uint64_t bytes)
{
    ExecStats ref = runWithSimThreads(topo, ir, bytes, 1);
    for (int threads : { 2, 4, 8 }) {
        ExecStats got = runWithSimThreads(topo, ir, bytes, threads);
        EXPECT_EQ(ref.endNs, got.endNs) << "threads=" << threads;
        EXPECT_EQ(ref.startNs, got.startNs) << "threads=" << threads;
        EXPECT_EQ(ref.messages, got.messages)
            << "threads=" << threads;
        EXPECT_EQ(ref.wireBytes, got.wireBytes) // exact, not NEAR
            << "threads=" << threads;
    }
}

TEST(Determinism, SimThreadsInvariantAllReduce16)
{
    Topology topo = makeNdv4(2);
    AlgoConfig cfg;
    cfg.protocol = Protocol::LL128;
    cfg.instances = 4;
    IrProgram ir = compileProgram(*makeRingAllReduce(16, 4, cfg)).ir;
    expectSimThreadInvariant(topo, ir, 1 << 20);
}

TEST(Determinism, SimThreadsInvariantAllGather16)
{
    Topology topo = makeNdv4(2);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 2;
    IrProgram ir = compileProgram(*makeRingAllGather(16, 2, cfg)).ir;
    expectSimThreadInvariant(topo, ir, 256 << 10);
}

TEST(Determinism, SimThreadsInvariantAllToAll16)
{
    Topology topo = makeNdv4(2);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 1;
    IrProgram ir = compileProgram(*makeTwoStepAllToAll(2, 8, cfg)).ir;
    expectSimThreadInvariant(topo, ir, 256 << 10);
}

TEST(Determinism, SimThreadsInvariantAllReduce64)
{
    Topology topo = makeNdv4(8);
    AlgoConfig cfg;
    cfg.protocol = Protocol::LL128;
    cfg.instances = 2;
    IrProgram ir = compileProgram(*makeRingAllReduce(64, 2, cfg)).ir;
    expectSimThreadInvariant(topo, ir, 256 << 10);
}

TEST(Determinism, SimThreadsInvariantAllGather64)
{
    Topology topo = makeNdv4(8);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 1;
    IrProgram ir = compileProgram(*makeRingAllGather(64, 2, cfg)).ir;
    expectSimThreadInvariant(topo, ir, 128 << 10);
}

TEST(Determinism, SimThreadsInvariantAllToAll64)
{
    Topology topo = makeNdv4(8);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 1;
    IrProgram ir = compileProgram(*makeTwoStepAllToAll(8, 8, cfg)).ir;
    expectSimThreadInvariant(topo, ir, 64 << 10);
}

TEST(Determinism, SimThreadsInvariantTraceContent)
{
    // Stronger than the stats fingerprint: the full instruction
    // timeline — every slice's begin and end timestamp — must be
    // byte-identical across thread counts.
    Topology topo = makeNdv4(2);
    AlgoConfig cfg;
    cfg.protocol = Protocol::LL128;
    cfg.instances = 2;
    IrProgram ir = compileProgram(*makeRingAllReduce(16, 2, cfg)).ir;
    std::string path_1 =
        testing::TempDir() + "mscclang_simthreads_1.json";
    std::string path_8 =
        testing::TempDir() + "mscclang_simthreads_8.json";
    ExecStats a = runWithSimThreads(topo, ir, 1 << 20, 1, path_1);
    ExecStats b = runWithSimThreads(topo, ir, 1 << 20, 8, path_8);
    EXPECT_EQ(a.endNs, b.endNs);
    std::string trace_1 = slurp(path_1);
    std::string trace_8 = slurp(path_8);
    EXPECT_FALSE(trace_1.empty());
    EXPECT_EQ(trace_1, trace_8);
    std::remove(path_1.c_str());
    std::remove(path_8.c_str());
}

TEST(Determinism, SimThreadsInvariantWithActiveFaults)
{
    // Fault activation must fire at the same simulated timestamp no
    // matter how the flow network is sharded or how many workers
    // drain a batch: the schedule rides the serial event queue, and
    // capacity mutation settles only the owning shard.
    Topology topo = makeNdv4(2);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 2;
    IrProgram ir = compileProgram(*makeRingAllReduce(16, 2, cfg)).ir;
    const std::uint64_t bytes = 1 << 20;

    double healthy_us =
        runWithSimThreads(topo, ir, bytes, 1).durationUs();
    const Route &route = topo.route(0, 1);
    ASSERT_FALSE(route.resources.empty());
    FaultEvent degrade;
    degrade.resource = route.resources.front();
    degrade.kind = FaultKind::Degrade;
    degrade.atUs = healthy_us * 0.3;
    degrade.durationUs = healthy_us * 0.4;
    degrade.factor = 0.05;
    topo.setFaultSchedule(FaultSchedule{ { degrade } });

    ExecStats ref = runWithSimThreads(topo, ir, bytes, 1);
    EXPECT_FALSE(ref.aborted);
    EXPECT_EQ(ref.faultsSeen, 1);
    EXPECT_GT(ref.durationUs(), healthy_us); // the fault bit
    for (int threads : { 2, 4, 8 }) {
        ExecStats got = runWithSimThreads(topo, ir, bytes, threads);
        EXPECT_EQ(ref.endNs, got.endNs) << "threads=" << threads;
        EXPECT_EQ(ref.messages, got.messages)
            << "threads=" << threads;
        EXPECT_EQ(ref.wireBytes, got.wireBytes)
            << "threads=" << threads;
        EXPECT_EQ(ref.firedFaults, got.firedFaults)
            << "threads=" << threads;
        EXPECT_EQ(ref.faultsSeen, got.faultsSeen)
            << "threads=" << threads;
    }
}

TEST(Determinism, TunerWindowsIndependentOfThreadCount)
{
    Topology topo = makeNdv4(2);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 2;
    std::vector<IrProgram> candidates;
    candidates.push_back(
        compileProgram(*makeRingAllReduce(16, 2, cfg)).ir);
    candidates.push_back(
        compileProgram(*makeAllPairsAllReduce(16, cfg)).ir);
    candidates.push_back(
        compileProgram(*makeDoubleBinaryTreeAllReduce(16, cfg)).ir);

    TuneOptions tune;
    tune.fromBytes = 1 << 12;
    tune.toBytes = 1 << 20;

    tune.threads = 1;
    std::vector<TunedWindow> serial =
        tuneWindows(topo, candidates, tune);
    tune.threads = 4;
    std::vector<TunedWindow> parallel =
        tuneWindows(topo, candidates, tune);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(serial[i].minBytes, parallel[i].minBytes);
        EXPECT_EQ(serial[i].maxBytes, parallel[i].maxBytes);
        EXPECT_EQ(serial[i].candidate, parallel[i].candidate);
        EXPECT_EQ(serial[i].timeUs, parallel[i].timeUs); // exact
    }
}

TEST(Determinism, TunerMemoizesDuplicateCandidates)
{
    Topology topo = makeNdv4(1);
    AlgoConfig cfg;
    cfg.protocol = Protocol::Simple;
    cfg.instances = 2;
    std::vector<IrProgram> candidates;
    candidates.push_back(
        compileProgram(*makeRingAllReduce(8, 2, cfg)).ir);
    candidates.push_back(
        compileProgram(*makeAllPairsAllReduce(8, cfg)).ir);
    // The same ring again under a different name: structurally equal,
    // so it shares the first candidate's simulations and — by the
    // strict-< winner rule — can never displace it.
    candidates.push_back(candidates[0]);
    candidates.back().name = "ring-again";

    TuneOptions tune;
    tune.fromBytes = 1 << 12;
    tune.toBytes = 1 << 18;
    std::vector<TunedWindow> windows =
        tuneWindows(topo, candidates, tune);
    for (const TunedWindow &w : windows)
        EXPECT_NE(w.candidate, 2) << "duplicate displaced original";
}

// ------------------------------------------------------------------
// Compiler determinism: the IR emitted for a fixed program is part of
// the repo's contract. The hashes below were measured at the
// pre-overhaul compiler; any divergence means instruction order,
// channel assignment, or thread-block assignment changed.

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

struct GoldenProgram
{
    const char *name;
    std::uint64_t xmlHash;
    std::function<std::string()> compileXml;
};

std::vector<GoldenProgram>
goldenPrograms()
{
    AlgoConfig i2;
    i2.instances = 2;
    AlgoConfig i4;
    i4.instances = 4;
    i4.protocol = Protocol::LL128;
    AlgoConfig ll;
    ll.protocol = Protocol::LL;
    ll.instances = 2;
    AlgoConfig plain;
    auto xml = [](const Program &p, const CompileOptions &copts = {}) {
        return compileProgram(p, copts).ir.toXml();
    };
    return {
        { "ring_allreduce_8x2_i2", 0x75cca9cb1c069012ull,
          [=] { return xml(*makeRingAllReduce(8, 2, i2)); } },
        { "ring_allreduce_16x4_i4_ll128", 0x38abad495ed5569aull,
          [=] { return xml(*makeRingAllReduce(16, 4, i4)); } },
        { "ring_allreduce_oop_8x2", 0x1f2f8a7279bbe52cull,
          [=] { return xml(*makeRingAllReduceOutOfPlace(8, 2, i2)); } },
        { "allpairs_8_ll", 0x8f00059d8a9ebce5ull,
          [=] { return xml(*makeAllPairsAllReduce(8, ll)); } },
        { "hierarchical_2x4_i2", 0xf050070cec36d9b9ull,
          [=] {
              return xml(*makeHierarchicalAllReduce(2, 4, 2, plain));
          } },
        // Multi-node scaling goldens: the hierarchical factory at
        // 16/64/256 ranks (8-GPU nodes) plus an explicit hierarchy
        // split, pinning the generalized group loops to the exact IR
        // the whole-node implementation emitted.
        { "hierarchical_2x8", 0xb575bde688fd43aaull,
          [=] {
              return xml(*makeHierarchicalAllReduce(2, 8, 1, plain));
          } },
        { "hierarchical_8x8", 0x4f3d555957bfb307ull,
          [=] {
              return xml(*makeHierarchicalAllReduce(8, 8, 1, plain));
          } },
        { "hierarchical_32x8", 0x39147a7e3b401852ull,
          [=] {
              return xml(*makeHierarchicalAllReduce(32, 8, 1, plain));
          } },
        { "hierarchical_2x4_h2", 0x7d3a2ab38d94a56cull,
          [=] {
              AlgoConfig split;
              split.hierSplit = 2;
              return xml(*makeHierarchicalAllReduce(2, 4, 2, split));
          } },
        { "twostep_alltoall_2x4", 0x45fd89fa179dffa7ull,
          [=] { return xml(*makeTwoStepAllToAll(2, 4, plain)); } },
        // A chunk-parallelized ring (parallelize scope on top of the
        // program-wide instances) and a wider two-step alltoall: the
        // scheduler's FIFO gates and thread-block pairing on many
        // sibling channels and many peers per rank.
        { "ring_allreduce_8x2_i2_p2", 0x47f86528a2787941ull,
          [=] {
              AlgoConfig par = i2;
              par.parallelize = 2;
              return xml(*makeRingAllReduce(8, 2, par));
          } },
        { "twostep_alltoall_4x8", 0x8f18969ad8baa832ull,
          [=] { return xml(*makeTwoStepAllToAll(4, 8, plain)); } },
        { "naive_alltoall_8", 0xf3352f705b2aeb2eull,
          [=] { return xml(*makeNaiveAllToAll(8, plain)); } },
        { "alltonext_2x4", 0xc05b83444d2becf6ull,
          [=] { return xml(*makeAllToNext(2, 4, plain)); } },
        { "naive_alltonext_2x4", 0x705dbf06d0bb286aull,
          [=] { return xml(*makeNaiveAllToNext(2, 4, plain)); } },
        { "ring_allgather_8x2_i2", 0xa2b4b8c1d774e602ull,
          [=] { return xml(*makeRingAllGather(8, 2, i2)); } },
        { "dbt_allreduce_16_ll", 0x2ad83adb6e380f8full,
          [=] { return xml(*makeDoubleBinaryTreeAllReduce(16, ll)); } },
        { "rabenseifner_8", 0xffa1b3a08739c09eull,
          [=] { return xml(*makeRabenseifnerAllReduce(8, plain)); } },
        { "sccl122_allgather_dgx1", 0x3515935a2aea16adull,
          [=] {
              Topology dgx1 = makeDgx1();
              CompileOptions copts;
              copts.topology = &dgx1;
              return xml(*makeSccl122AllGather(dgx1, plain), copts);
          } },
    };
}

TEST(Determinism, CompiledIrMatchesGoldenHashes)
{
    for (const GoldenProgram &gold : goldenPrograms()) {
        SCOPED_TRACE(gold.name);
        EXPECT_EQ(fnv1a(gold.compileXml()), gold.xmlHash);
    }
}

TEST(Determinism, CompilingTwiceYieldsIdenticalIr)
{
    // Byte-equal XML means identical instruction order, channel, and
    // thread-block assignment — stronger than hash equality.
    for (const GoldenProgram &gold : goldenPrograms()) {
        SCOPED_TRACE(gold.name);
        EXPECT_EQ(gold.compileXml(), gold.compileXml());
    }
}

TEST(Determinism, ConcurrentCompilesYieldIdenticalIr)
{
    // The compiler owns no global mutable state; racing full compiles
    // of different programs must still reproduce every golden hash.
    std::vector<GoldenProgram> golds = goldenPrograms();
    std::vector<std::uint64_t> hashes(golds.size(), 0);
    std::vector<std::thread> pool;
    for (size_t i = 0; i < golds.size(); i++) {
        pool.emplace_back([&, i] {
            hashes[i] = fnv1a(golds[i].compileXml());
        });
    }
    for (std::thread &t : pool)
        t.join();
    for (size_t i = 0; i < golds.size(); i++) {
        SCOPED_TRACE(golds[i].name);
        EXPECT_EQ(hashes[i], golds[i].xmlHash);
    }
}

/** Two thread blocks writing output chunk 0 of rank 0, unordered. */
IrProgram
racyWriteWriteIr()
{
    IrProgram ir;
    ir.numRanks = 1;
    ir.gpus.resize(1);
    ir.gpus[0].rank = 0;
    ir.gpus[0].inputChunks = 2;
    ir.gpus[0].outputChunks = 1;
    for (int t = 0; t < 2; t++) {
        IrThreadBlock tb;
        tb.id = t;
        IrInstruction copy;
        copy.op = IrOp::Copy;
        copy.srcBuf = BufferKind::Input;
        copy.srcOff = t;
        copy.dstBuf = BufferKind::Output;
        copy.dstOff = 0;
        tb.steps.push_back(copy);
        ir.gpus[0].threadBlocks.push_back(tb);
    }
    return ir;
}

/** A scratch write racing a scratch read across thread blocks. */
IrProgram
racyReadWriteIr()
{
    IrProgram ir;
    ir.numRanks = 1;
    ir.gpus.resize(1);
    ir.gpus[0].rank = 0;
    ir.gpus[0].inputChunks = 1;
    ir.gpus[0].outputChunks = 1;
    ir.gpus[0].scratchChunks = 1;
    IrThreadBlock tb0;
    tb0.id = 0;
    IrInstruction w;
    w.op = IrOp::Copy;
    w.srcBuf = BufferKind::Input;
    w.dstBuf = BufferKind::Scratch;
    tb0.steps.push_back(w);
    ir.gpus[0].threadBlocks.push_back(tb0);
    IrThreadBlock tb1;
    tb1.id = 1;
    IrInstruction r;
    r.op = IrOp::Copy;
    r.srcBuf = BufferKind::Scratch;
    r.dstBuf = BufferKind::Output;
    tb1.steps.push_back(r);
    ir.gpus[0].threadBlocks.push_back(tb1);
    return ir;
}

std::string
raceVerdict(const IrProgram &ir, int threads)
{
    try {
        verifyRaceFree(ir, threads);
    } catch (const VerificationError &e) {
        return e.what();
    }
    return "";
}

TEST(Determinism, RaceVerdictsMatchGoldenMessages)
{
    // Exact messages measured at the pre-overhaul whole-graph
    // analysis; the partitioned parallel verifier must reproduce the
    // same first error.
    EXPECT_EQ(raceVerdict(racyWriteWriteIr(), 0),
              "data race: rank 0 tb 0 step 0 and tb 1 step 0 "
              "access o[0] unordered");
    EXPECT_EQ(raceVerdict(racyReadWriteIr(), 0),
              "data race: rank 0 tb 0 step 0 and tb 1 step 0 "
              "access s[0] unordered");
}

TEST(Determinism, RaceVerdictsIndependentOfThreadCount)
{
    std::vector<IrProgram> cases = { racyWriteWriteIr(),
                                     racyReadWriteIr() };
    // A clean program too: every golden collective passes the race
    // check at any worker count.
    AlgoConfig i2;
    i2.instances = 2;
    cases.push_back(compileProgram(*makeRingAllReduce(8, 2, i2)).ir);
    for (size_t i = 0; i < cases.size(); i++) {
        SCOPED_TRACE(i);
        std::string serial = raceVerdict(cases[i], 1);
        for (int threads : { 2, 4, 8 })
            EXPECT_EQ(raceVerdict(cases[i], threads), serial);
    }
}

TEST(Determinism, SeededWorkloadSpecsAreByteIdentical)
{
    // The same contract extends to the workload layer: a seeded
    // generator is a pure function of its arguments, pinned at the
    // JSON byte level so traces can be diffed and replayed exactly.
    for (std::uint64_t seed : { 1ULL, 7ULL, 0xabcdefULL }) {
        SCOPED_TRACE(seed);
        EXPECT_EQ(makeMixedInferenceWorkload(seed).toJson(),
                  makeMixedInferenceWorkload(seed).toJson());
        EXPECT_EQ(makeDecodeWorkload(16, 1 << 20, 250.0, seed)
                      .toJson(),
                  makeDecodeWorkload(16, 1 << 20, 250.0, seed)
                      .toJson());
        EXPECT_EQ(makeMoeWorkload(16, 1 << 20, 300.0, seed).toJson(),
                  makeMoeWorkload(16, 1 << 20, 300.0, seed).toJson());
        EXPECT_EQ(
            makeBurstyWorkload(3, 4, 1 << 19, 800.0, seed).toJson(),
            makeBurstyWorkload(3, 4, 1 << 19, 800.0, seed).toJson());
    }
}

TEST(Determinism, WorkloadReplayInvariantAcrossThreads)
{
    // A stormed multi-stream replay — retries, backoff jitter,
    // quarantine churn and all — must produce the identical op-level
    // fingerprint at every simThreads count. This pins the whole
    // recovery stack, not just one kernel's timing.
    Topology topo = parseTopology("generic:2:4");
    WorkloadSpec spec = mergeSpecs(
        "det", { makeDecodeWorkload(4, 512 * 1024, 300.0, 3),
                 makeMoeWorkload(3, 1 << 20, 500.0, 3) });
    FaultSchedule storm = makeLinkFlapStorm(
        resourcesMatching(topo, "ib-send[0.3]"), 3, 700.0, 500.0,
        150.0);

    std::uint64_t reference = 0;
    for (int threads : { 1, 2, 4, 8 }) {
        SCOPED_TRACE(threads);
        Communicator comm(topo);
        registerWorkloadPlans(comm, spec);
        ReplayOptions options;
        options.simThreads = threads;
        ReplayResult replay = replayWorkload(comm, spec, storm, options);
        if (threads == 1) {
            reference = replay.fingerprint();
            EXPECT_GT(replay.faultsFired, 0)
                << "the storm must actually hit the traffic";
        } else {
            EXPECT_EQ(replay.fingerprint(), reference);
        }
    }
}

} // namespace
} // namespace mscclang
