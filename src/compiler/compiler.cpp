#include "compiler/compiler.h"

#include <chrono>

#include "common/error.h"
#include "common/strings.h"
#include "compiler/chunk_dag.h"
#include "compiler/verifier.h"

namespace mscclang {

namespace {

/** Nanoseconds elapsed since @p since; restarts @p since at now. */
std::int64_t
lapNs(std::chrono::steady_clock::time_point &since)
{
    auto now = std::chrono::steady_clock::now();
    std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - since)
            .count();
    since = now;
    return ns;
}

/** Every communication edge must connect directly-linked ranks. */
void
checkLinks(const InstrGraph &graph, const Program &program,
           const Topology &topo)
{
    if (topo.numRanks() != program.numRanks()) {
        throw CompileError(strprintf(
            "topology has %d ranks but the program uses %d",
            topo.numRanks(), program.numRanks()));
    }
    for (const InstrNode &node : graph.nodes()) {
        if (!node.live || node.sendPeer < 0)
            continue;
        if (!topo.connected(node.rank, node.sendPeer)) {
            throw CompileError(strprintf(
                "program sends %d -> %d but topology %s has no "
                "direct link; relay through a connected rank",
                node.rank, node.sendPeer, topo.name().c_str()));
        }
    }
}

} // namespace

Compiled
compileProgram(const Program &program, const CompileOptions &options)
{
    Compiled out;
    out.stats.traceOps = static_cast<int>(program.ops().size());

    auto clock = std::chrono::steady_clock::now();
    out.stats.chunkCriticalPath = chunkCriticalPath(program);
    out.stats.criticalPathNs = lapNs(clock);

    {
        // The instruction graph is dead once scheduled; freeing it
        // before verification lowers the compile's peak memory.
        InstrGraph graph = lowerProgram(program);
        out.stats.lowerNs = lapNs(clock);
        out.stats.instrsBeforeFusion = graph.numLive();

        if (options.topology != nullptr)
            checkLinks(graph, program, *options.topology);

        lapNs(clock); // the link check is not a pass of its own
        if (options.fuse)
            out.stats.fusion = fuseInstructions(graph);
        out.stats.fuseNs = lapNs(clock);
        out.stats.instrsAfterFusion = graph.numLive();

        ScheduleOptions sched;
        sched.maxThreadBlocks = options.maxThreadBlocks;
        sched.topology = options.topology;
        out.ir = scheduleProgram(program, graph, sched);
        out.stats.scheduleNs = lapNs(clock);
    }

    out.stats.channels = out.ir.numChannels();
    out.stats.maxThreadBlocks = out.ir.maxThreadBlocks();
    out.stats.totalInstructions = out.ir.totalInstructions();

    if (options.verify) {
        VerifyOptions verify;
        verify.slots = options.verifySlots;
        lapNs(clock);
        verifyIr(out.ir, program.collective(), verify);
        out.stats.verifyNs = lapNs(clock);
    }
    return out;
}

} // namespace mscclang
