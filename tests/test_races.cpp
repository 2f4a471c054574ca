/**
 * @file
 * Tests for the structural data-race checker: compiler output must
 * always pass (races are prevented by construction, paper §5.2),
 * while hand-built IR with missing cross-thread-block dependencies
 * must be flagged with the offending pair. Pairs that only a
 * cross-rank path orders go through the checker's whole-graph
 * fallback; seeded IR mutations compare its verdicts with a plain
 * BFS-reachability oracle. The thread count argument is a no-op, so
 * every verdict must also be the same at every value of it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "collectives/classic.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "common/rng.h"
#include "compiler/compiler.h"
#include "compiler/frac.h"
#include "compiler/verifier.h"

namespace mscclang {
namespace {

TEST(RaceChecker, CompilerOutputIsRaceFreeByConstruction)
{
    AlgoConfig config;
    config.instances = 2;
    verifyRaceFree(compileProgram(*makeRingAllReduce(6, 3, config)).ir);
    verifyRaceFree(compileProgram(*makeAllPairsAllReduce(6, config)).ir);
    verifyRaceFree(
        compileProgram(*makeHierarchicalAllReduce(2, 3, 2, config)).ir);
    verifyRaceFree(compileProgram(*makeTwoStepAllToAll(2, 3, config)).ir);
    verifyRaceFree(compileProgram(*makeAllToNext(2, 4, config)).ir);
    verifyRaceFree(
        compileProgram(*makeRabenseifnerAllReduce(8, config)).ir);
}

/**
 * Two thread blocks on one rank write the same output chunk with no
 * ordering between them.
 */
IrProgram
twoWritersIr()
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

TEST(RaceChecker, DetectsMissingCrossTbDependency)
{
    IrProgram ir = twoWritersIr();
    try {
        verifyRaceFree(ir);
        FAIL() << "race not detected";
    } catch (const VerificationError &error) {
        EXPECT_NE(std::string(error.what()).find("data race"),
                  std::string::npos);
    }
}

TEST(RaceChecker, DependencyMakesItOrdered)
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
        if (t == 1)
            copy.deps.push_back(IrDep{ 0, 0 });
        tb.steps.push_back(copy);
        ir.gpus[0].threadBlocks.push_back(tb);
    }
    ir.gpus[0].threadBlocks[0].steps[0].hasDep = true;
    verifyRaceFree(ir);
}

TEST(RaceChecker, DisjointFractionsDoNotConflict)
{
    // Two unordered thread blocks write complementary halves.
    IrProgram ir;
    ir.numRanks = 1;
    ir.gpus.resize(1);
    ir.gpus[0].rank = 0;
    ir.gpus[0].inputChunks = 1;
    ir.gpus[0].outputChunks = 1;
    for (int t = 0; t < 2; t++) {
        IrThreadBlock tb;
        tb.id = t;
        IrInstruction copy;
        copy.op = IrOp::Copy;
        copy.srcBuf = BufferKind::Input;
        copy.dstBuf = BufferKind::Output;
        copy.splitIdx = t;
        copy.splitCount = 2;
        tb.steps.push_back(copy);
        ir.gpus[0].threadBlocks.push_back(tb);
    }
    verifyRaceFree(ir);
}

TEST(RaceChecker, CommunicationEdgesProvideOrder)
{
    // Rank 0 sends; rank 1 receives then reads the landing spot —
    // ordered through the communication edge, not a semaphore.
    IrProgram ir;
    ir.numRanks = 2;
    ir.gpus.resize(2);
    for (int r = 0; r < 2; r++) {
        ir.gpus[r].rank = r;
        ir.gpus[r].inputChunks = 1;
        ir.gpus[r].outputChunks = 1;
        ir.gpus[r].scratchChunks = 1;
    }
    IrThreadBlock sender;
    sender.id = 0;
    sender.sendPeer = 1;
    IrInstruction send;
    send.op = IrOp::Send;
    send.srcBuf = BufferKind::Input;
    sender.steps.push_back(send);
    ir.gpus[0].threadBlocks.push_back(sender);

    IrThreadBlock receiver;
    receiver.id = 0;
    receiver.recvPeer = 0;
    IrInstruction recv;
    recv.op = IrOp::Recv;
    recv.dstBuf = BufferKind::Scratch;
    receiver.steps.push_back(recv);
    IrInstruction use;
    use.op = IrOp::Copy;
    use.srcBuf = BufferKind::Scratch;
    use.dstBuf = BufferKind::Output;
    receiver.steps.push_back(use);
    ir.gpus[1].threadBlocks.push_back(receiver);

    verifyRaceFree(ir);
}

TEST(RaceChecker, CyclicDependenciesRejected)
{
    IrProgram ir;
    ir.numRanks = 1;
    ir.gpus.resize(1);
    ir.gpus[0].rank = 0;
    ir.gpus[0].inputChunks = 1;
    ir.gpus[0].outputChunks = 1;
    for (int t = 0; t < 2; t++) {
        IrThreadBlock tb;
        tb.id = t;
        IrInstruction nop;
        nop.op = IrOp::Nop;
        nop.deps.push_back(IrDep{ 1 - t, 0 });
        tb.steps.push_back(nop);
        ir.gpus[0].threadBlocks.push_back(tb);
    }
    EXPECT_THROW(verifyRaceFree(ir), VerificationError);
}

/**
 * Runs the race check on @p ir at several thread counts and returns
 * the common verdict ("" = race free), failing the test if any two
 * runs disagree.
 */
std::string
verdictOf(const IrProgram &ir)
{
    auto run = [&](int threads) -> std::string {
        try {
            verifyRaceFree(ir, threads);
            return std::string();
        } catch (const VerificationError &error) {
            return error.what();
        }
    };
    std::string expected = run(1);
    for (int threads : { 2, 8 })
        EXPECT_EQ(run(threads), expected) << "threads " << threads;
    return expected;
}

TEST(Races, VerdictsOnFactorySuite)
{
    AlgoConfig config;
    config.instances = 2;
    std::vector<IrProgram> irs;
    irs.push_back(compileProgram(*makeRingAllReduce(6, 3, config)).ir);
    irs.push_back(compileProgram(*makeAllPairsAllReduce(6, config)).ir);
    irs.push_back(
        compileProgram(*makeHierarchicalAllReduce(2, 4, 2, config)).ir);
    irs.push_back(
        compileProgram(*makeTwoStepAllToAll(2, 3, config)).ir);
    irs.push_back(compileProgram(*makeAllToNext(2, 4, config)).ir);
    irs.push_back(
        compileProgram(*makeRabenseifnerAllReduce(8, config)).ir);
    irs.push_back(
        compileProgram(*makeHierarchicalAllGather(2, 4, config)).ir);
    AlgoConfig split;
    split.hierSplit = 2;
    irs.push_back(
        compileProgram(*makeHierarchicalAllReduce(2, 4, 2, split)).ir);
    for (size_t i = 0; i < irs.size(); i++)
        EXPECT_EQ(verdictOf(irs[i]), "") << "program " << i;
}

TEST(Races, VerdictsAboveTheSerialThreshold)
{
    // Above the 4096 instructions where the checker once fanned its
    // per-rank checks out over a worker pool: a larger program must
    // still get the same verdict at every thread argument.
    AlgoConfig config;
    config.instances = 4;
    IrProgram ir =
        compileProgram(*makeRingAllReduce(32, 2, config)).ir;
    int instrs = 0;
    for (const IrGpu &gpu : ir.gpus) {
        for (const IrThreadBlock &tb : gpu.threadBlocks)
            instrs += static_cast<int>(tb.steps.size());
    }
    EXPECT_GT(instrs, 4096);
    EXPECT_EQ(verdictOf(ir), "");
}

TEST(Races, VerdictsOnRacyPrograms)
{
    // Strip every cross-thread-block dependency from a compiled
    // hierarchical program (whose phase handoffs on a rank are
    // ordered by deps, not FIFO edges): the verifier must flag a
    // race, naming the same pair at every thread count.
    AlgoConfig config;
    config.instances = 2;
    IrProgram ir =
        compileProgram(*makeHierarchicalAllReduce(2, 4, 2, config)).ir;
    for (IrGpu &gpu : ir.gpus) {
        for (IrThreadBlock &tb : gpu.threadBlocks) {
            for (IrInstruction &instr : tb.steps)
                instr.deps.clear();
        }
    }
    std::string verdict = verdictOf(ir);
    EXPECT_NE(verdict.find("data race"), std::string::npos) << verdict;

    EXPECT_EQ(verdictOf(twoWritersIr()),
              "data race: rank 0 tb 0 step 0 and tb 1 step 0 access "
              "o[0] unordered");
}

TEST(Races, FifoImbalanceReported)
{
    // An unmatched send must be rejected with the connection named.
    IrProgram ir;
    ir.numRanks = 2;
    ir.gpus.resize(2);
    for (int r = 0; r < 2; r++) {
        ir.gpus[r].rank = r;
        ir.gpus[r].inputChunks = 1;
        ir.gpus[r].outputChunks = 1;
    }
    IrThreadBlock sender;
    sender.id = 0;
    sender.sendPeer = 1;
    IrInstruction send;
    send.op = IrOp::Send;
    send.srcBuf = BufferKind::Input;
    sender.steps.push_back(send);
    ir.gpus[0].threadBlocks.push_back(sender);
    EXPECT_EQ(verdictOf(ir),
              "race check: connection 0 -> 1 channel 0 has 1 sends "
              "but 0 receives; FIFO pairing requires equal counts");
}

TEST(Races, DuplicateThreadBlockIdRejected)
{
    // The checker addresses steps by (rank, tb, step), so a rank may
    // not name one thread block twice.
    IrProgram ir = twoWritersIr();
    ir.gpus[0].threadBlocks[1].id = 0;
    EXPECT_EQ(verdictOf(ir),
              "race check: rank 0 names thread block 0 twice");
}

IrInstruction
instr(IrOp op, BufferKind src, int src_off, BufferKind dst, int dst_off)
{
    IrInstruction in;
    in.op = op;
    in.srcBuf = src;
    in.srcOff = src_off;
    in.dstBuf = dst;
    in.dstOff = dst_off;
    return in;
}

/**
 * Rank 0 tb 0 writes o[0] and then sends to rank 1; rank 1 receives
 * and sends back; rank 0 tb 1 receives, then reads o[0]. No
 * dependency on rank 0 orders the write and the read: only the peer
 * round trip does. With @p broken_return, rank 1 sends back from a
 * second thread block, which waits for its receive only if
 * @p return_dep.
 */
IrProgram
roundTripIr(bool broken_return, bool return_dep)
{
    IrProgram ir;
    ir.numRanks = 2;
    ir.gpus.resize(2);
    for (int r = 0; r < 2; r++) {
        ir.gpus[r].rank = r;
        ir.gpus[r].inputChunks = 1;
        ir.gpus[r].outputChunks = 1;
        ir.gpus[r].scratchChunks = 2;
    }
    const BufferKind in = BufferKind::Input;
    const BufferKind out = BufferKind::Output;
    const BufferKind scratch = BufferKind::Scratch;

    IrThreadBlock writer;
    writer.id = 0;
    writer.sendPeer = 1;
    writer.steps.push_back(instr(IrOp::Copy, in, 0, out, 0));
    writer.steps.push_back(instr(IrOp::Send, in, 0, out, 0));
    IrThreadBlock reader;
    reader.id = 1;
    reader.recvPeer = 1;
    reader.steps.push_back(instr(IrOp::Recv, in, 0, scratch, 0));
    reader.steps.push_back(instr(IrOp::Copy, out, 0, scratch, 1));
    ir.gpus[0].threadBlocks = { writer, reader };

    IrThreadBlock echo;
    echo.id = 0;
    echo.recvPeer = 0;
    echo.steps.push_back(instr(IrOp::Recv, in, 0, scratch, 0));
    if (!broken_return) {
        echo.sendPeer = 0;
        echo.steps.push_back(instr(IrOp::Send, scratch, 0, out, 0));
        ir.gpus[1].threadBlocks = { echo };
        return ir;
    }
    IrThreadBlock reply;
    reply.id = 1;
    reply.sendPeer = 0;
    reply.steps.push_back(instr(IrOp::Send, in, 0, out, 0));
    if (return_dep) {
        reply.steps[0].deps.push_back(IrDep{ 0, 0 });
        echo.steps[0].hasDep = true;
    }
    ir.gpus[1].threadBlocks = { echo, reply };
    return ir;
}

TEST(Races, PeerRoundTripOrdersACrossBlockPair)
{
    // Only the whole-graph fallback sees the round trip.
    EXPECT_EQ(verdictOf(roundTripIr(false, false)), "");
    EXPECT_EQ(verdictOf(roundTripIr(true, false)),
              "data race: rank 0 tb 0 step 0 and tb 1 step 1 access "
              "o[0] unordered");
    // A dependency on rank 1 mends the return leg.
    EXPECT_EQ(verdictOf(roundTripIr(true, true)), "");
}

/** One buffer access of one instruction. */
struct Access
{
    int buffer;
    int chunk;
    bool write;
    FracInterval range;
};

/**
 * Test oracle, independent of the checker: the happens-before graph
 * as adjacency lists, a Kahn cycle check, and plain BFS reachability
 * for every conflicting pair of accesses.
 */
struct OracleVerdict
{
    bool cycle = false;
    /** Lowest rank with an unordered conflict, or -1. */
    int lowestRank = -1;
    /** Unordered conflicts, as "rank tb.step tb.step buf[chunk]",
     *  in both orientations. */
    std::vector<std::string> unordered;
};

OracleVerdict
oracleVerdict(const IrProgram &ir)
{
    std::vector<std::tuple<int, int, int>> where; // rank, tb, step
    std::vector<const IrInstruction *> instrs;
    std::map<std::tuple<int, int, int>, int> id;
    for (const IrGpu &gpu : ir.gpus) {
        for (const IrThreadBlock &tb : gpu.threadBlocks) {
            for (size_t s = 0; s < tb.steps.size(); s++) {
                id[{ gpu.rank, tb.id, static_cast<int>(s) }] =
                    static_cast<int>(where.size());
                where.push_back({ gpu.rank, tb.id, static_cast<int>(s) });
                instrs.push_back(&tb.steps[s]);
            }
        }
    }
    int n = static_cast<int>(where.size());
    std::vector<std::vector<int>> succ(n);
    std::map<std::tuple<int, int, int>, std::vector<int>> sends, recvs;
    for (const IrGpu &gpu : ir.gpus) {
        for (const IrThreadBlock &tb : gpu.threadBlocks) {
            for (size_t s = 0; s < tb.steps.size(); s++) {
                int v = id.at({ gpu.rank, tb.id, static_cast<int>(s) });
                if (s > 0)
                    succ[v - 1].push_back(v);
                for (const IrDep &dep : tb.steps[s].deps)
                    succ[id.at({ gpu.rank, dep.tb, dep.step })]
                        .push_back(v);
                if (irOpSends(tb.steps[s].op))
                    sends[{ gpu.rank, tb.sendPeer, tb.channel }]
                        .push_back(v);
                if (irOpReceives(tb.steps[s].op))
                    recvs[{ tb.recvPeer, gpu.rank, tb.channel }]
                        .push_back(v);
            }
        }
    }
    EXPECT_EQ(sends.size(), recvs.size());
    for (const auto &[conn, from] : sends) {
        const std::vector<int> &to = recvs[conn];
        EXPECT_EQ(from.size(), to.size());
        for (size_t k = 0; k < from.size() && k < to.size(); k++)
            succ[from[k]].push_back(to[k]);
    }

    OracleVerdict verdict;
    std::vector<int> indeg(n, 0);
    for (int v = 0; v < n; v++) {
        for (int w : succ[v])
            indeg[w]++;
    }
    std::vector<int> ready;
    for (int v = 0; v < n; v++) {
        if (indeg[v] == 0)
            ready.push_back(v);
    }
    int visited = 0;
    while (!ready.empty()) {
        int v = ready.back();
        ready.pop_back();
        visited++;
        for (int w : succ[v]) {
            if (--indeg[w] == 0)
                ready.push_back(w);
        }
    }
    if (visited != n) {
        verdict.cycle = true;
        return verdict;
    }

    std::map<int, std::vector<bool>> reach_memo;
    auto reaches = [&](int from, int to) {
        auto [it, fresh] = reach_memo.try_emplace(from);
        std::vector<bool> &seen = it->second;
        if (fresh) {
            seen.assign(n, false);
            std::vector<int> queue = { from };
            seen[from] = true;
            for (size_t q = 0; q < queue.size(); q++) {
                for (int w : succ[queue[q]]) {
                    if (!seen[w]) {
                        seen[w] = true;
                        queue.push_back(w);
                    }
                }
            }
        }
        return seen[to];
    };
    // The dst read of a reducing op never adds a conflict: the same
    // op also writes that location.
    auto accesses = [&](int v) {
        const IrInstruction &in = *instrs[v];
        FracInterval range = splitFraction(in.splitIdx, in.splitCount);
        auto canonical = [&](BufferKind buf) {
            if (ir.inPlace && buf == BufferKind::Output)
                return static_cast<int>(BufferKind::Input);
            return static_cast<int>(buf);
        };
        std::vector<Access> out;
        for (int k = 0; k < in.count; k++) {
            if (irOpReadsSrc(in.op))
                out.push_back({ canonical(in.srcBuf), in.srcOff + k,
                                false, range });
            if (irOpWritesDst(in.op))
                out.push_back({ canonical(in.dstBuf), in.dstOff + k,
                                true, range });
        }
        return out;
    };
    const char *names = "ios";
    for (int a = 0; a < n; a++) {
        for (int b = 0; b < n; b++) {
            auto [ra, ta, sa] = where[a];
            auto [rb, tb, sb] = where[b];
            if (a == b || ra != rb || ta == tb)
                continue;
            for (const Access &x : accesses(a)) {
                for (const Access &y : accesses(b)) {
                    if (x.buffer != y.buffer || x.chunk != y.chunk ||
                        !(x.write || y.write) ||
                        !x.range.overlaps(y.range) || reaches(a, b) ||
                        reaches(b, a)) {
                        continue;
                    }
                    char key[96];
                    std::snprintf(key, sizeof key, "%d %d.%d %d.%d %c[%d]",
                                  ra, ta, sa, tb, sb, names[x.buffer],
                                  x.chunk);
                    verdict.unordered.push_back(key);
                    if (verdict.lowestRank < 0 || ra < verdict.lowestRank)
                        verdict.lowestRank = ra;
                }
            }
        }
    }
    return verdict;
}

/** Checks the checker's verdict on @p ir against the oracle's. */
std::string
expectOracleAgrees(const IrProgram &ir)
{
    std::string verdict = verdictOf(ir);
    OracleVerdict oracle = oracleVerdict(ir);
    if (oracle.cycle) {
        EXPECT_EQ(verdict,
                  "race check: happens-before relation has a cycle");
    } else if (oracle.unordered.empty()) {
        EXPECT_EQ(verdict, "");
    } else {
        int rank = -1, ta = -1, sa = -1, tb = -1, sb = -1, chunk = -1;
        char buf = '?';
        EXPECT_EQ(std::sscanf(verdict.c_str(),
                              "data race: rank %d tb %d step %d and tb "
                              "%d step %d access %c[%d] unordered",
                              &rank, &ta, &sa, &tb, &sb, &buf, &chunk),
                  7)
            << verdict;
        EXPECT_EQ(rank, oracle.lowestRank) << verdict;
        char key[96];
        std::snprintf(key, sizeof key, "%d %d.%d %d.%d %c[%d]", rank, ta,
                      sa, tb, sb, buf, chunk);
        EXPECT_NE(std::find(oracle.unordered.begin(),
                            oracle.unordered.end(), key),
                  oracle.unordered.end())
            << verdict;
    }
    return verdict;
}

TEST(Races, SeededIrMutationsMatchABfsOracle)
{
    // Each mutation drops one cross-thread-block dependency or swaps
    // two neighbouring steps of one thread block, on a compiled
    // program. Dropped deps whose pair another path still orders are
    // the checker's fallback cases.
    AlgoConfig plain;
    AlgoConfig two;
    two.instances = 2;
    std::vector<IrProgram> programs;
    programs.push_back(
        compileProgram(*makeHierarchicalAllReduce(2, 4, 2, two)).ir);
    programs.push_back(compileProgram(*makeTwoStepAllToAll(2, 4, plain)).ir);
    programs.push_back(compileProgram(*makeAllToNext(2, 4, plain)).ir);
    programs.push_back(compileProgram(*makeAllPairsAllReduce(8, plain)).ir);

    int clean = 0, races = 0, cycles = 0;
    for (size_t p = 0; p < programs.size(); p++) {
        EXPECT_EQ(expectOracleAgrees(programs[p]), "") << "program " << p;
        Rng rng(0x5eed0000ULL + p);
        for (int m = 0; m < 24; m++) {
            SCOPED_TRACE(testing::Message() << "program " << p
                                            << " mutation " << m);
            IrProgram ir = programs[p];
            std::vector<std::tuple<IrGpu *, IrThreadBlock *, int>> tbs;
            std::vector<std::pair<IrInstruction *, size_t>> deps;
            for (IrGpu &gpu : ir.gpus) {
                for (IrThreadBlock &tb : gpu.threadBlocks) {
                    for (size_t s = 0; s < tb.steps.size(); s++) {
                        if (s + 1 < tb.steps.size())
                            tbs.push_back({ &gpu, &tb,
                                            static_cast<int>(s) });
                        for (size_t d = 0; d < tb.steps[s].deps.size(); d++)
                            deps.push_back({ &tb.steps[s], d });
                    }
                }
            }
            if (m % 2 == 0 && !deps.empty()) {
                auto [in, d] = deps[rng.nextBelow(deps.size())];
                in->deps.erase(in->deps.begin() +
                               static_cast<std::ptrdiff_t>(d));
            } else {
                auto [gpu, tb, s] = tbs[rng.nextBelow(tbs.size())];
                std::swap(tb->steps[s], tb->steps[s + 1]);
            }
            std::string verdict = expectOracleAgrees(ir);
            if (verdict.empty())
                clean++;
            else if (verdict.find("cycle") != std::string::npos)
                cycles++;
            else
                races++;
        }
    }
    // The seeds exercise every outcome (at the time of writing: 50
    // clean, 45 races, 1 cycle).
    EXPECT_GT(clean, 0);
    EXPECT_GT(races, 0);
    EXPECT_GT(cycles, 0);
}

} // namespace
} // namespace mscclang
