/**
 * @file
 * Tests for the structural data-race checker: compiler output must
 * always pass (races are prevented by construction, paper §5.2),
 * while hand-built IR with missing cross-thread-block dependencies
 * must be flagged with the offending pair, and every verdict and
 * message must be the same at every worker count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "collectives/classic.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "compiler/compiler.h"
#include "compiler/verifier.h"
#include "sim/worker_pool.h"

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
    // Big enough (> 4096 instructions) that the per-rank checks
    // really fan out across the worker pool.
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

TEST(Races, WorkerCountIsCappedByThePool)
{
    // The per-rank checks fan out on SimWorkerPool, so a request
    // above hardware concurrency gets the pool's cap. Checked on the
    // pool itself, without asking the OS for that many threads.
    unsigned hw = std::thread::hardware_concurrency();
    int cap = hw > 0 ? static_cast<int>(hw) : 1;
    bool uncapped =
        std::getenv("MSCCLANG_SIM_THREADS_UNCAPPED") != nullptr;
    EXPECT_EQ(SimWorkerPool(cap + 1).threads(),
              uncapped ? cap + 1 : cap);

    // A racy program above the serial threshold gets the same
    // message from one lane as from a request far past the cap.
    AlgoConfig config;
    config.instances = 4;
    IrProgram ir =
        compileProgram(*makeHierarchicalAllReduce(4, 8, 2, config)).ir;
    int instrs = 0;
    for (IrGpu &gpu : ir.gpus) {
        for (IrThreadBlock &tb : gpu.threadBlocks) {
            instrs += static_cast<int>(tb.steps.size());
            for (IrInstruction &instr : tb.steps)
                instr.deps.clear();
        }
    }
    EXPECT_GT(instrs, 4096);
    auto run = [&](int threads) -> std::string {
        try {
            verifyRaceFree(ir, threads);
            return std::string();
        } catch (const VerificationError &error) {
            return error.what();
        }
    };
    std::string serial = run(1);
    EXPECT_NE(serial.find("data race"), std::string::npos) << serial;
    EXPECT_EQ(run(1 << 12), serial);
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

} // namespace
} // namespace mscclang
