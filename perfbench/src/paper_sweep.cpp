/**
 * @file
 * paper-sweep: a timing-mode simulation of every series of the
 * paper's Figures 8a-h and 11, and of each figure's baselines, across
 * the figure's size sweep (fig8e at 8 NDv4 nodes instead of 32, which
 * keeps one sweep near 5 s on one core). Plans and baseline kernels
 * are built during set-up, so the timed sweep is almost all event
 * queue, flow network and interpreter time on isolated collectives.
 *
 * The seed raises every (figure, size) cell by up to 1/8 of its
 * power-of-two size, so runs with different seeds sample
 * different points of the same curves. After the timed loop, every
 * program runs once in data mode at a small size against
 * computeReference.
 */

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>

#include "baselines/baselines.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "compiler/plan_cache.h"
#include "harness.h"
#include "runtime/communicator.h"
#include "runtime/reference.h"

namespace perfbench {

using namespace mscclang;

namespace {

/** One plotted line: fixed kernels, or kernels rebuilt per protocol
 *  (the NCCL-model baselines pick their protocol by size). */
struct Series
{
    std::string label;
    bool mscclang = true;
    int tiles = 4;
    std::vector<IrProgram> kernels;
    std::function<Protocol(std::uint64_t)> protocolFor;
    std::function<std::vector<IrProgram>(std::uint64_t)> build;
    std::map<Protocol, std::vector<IrProgram>> byProtocol;
    /** Postcondition the data-mode check compares against. */
    std::shared_ptr<const Collective> collective;

    const std::vector<IrProgram> &
    kernelsFor(std::uint64_t bytes) const
    {
        return build ? byProtocol.at(protocolFor(bytes)) : kernels;
    }
};

struct Figure
{
    std::string name;
    Topology topo;
    std::vector<std::uint64_t> sizes;
    /** series[0] is the baseline the figure's speedups are over. */
    std::vector<Series> series;
};

std::vector<std::uint64_t>
jitteredSweep(std::uint64_t from, std::uint64_t to, Rng &rng)
{
    std::vector<std::uint64_t> sizes = sizeSweep(from, to);
    for (std::uint64_t &bytes : sizes)
        bytes += bytes / 8 * rng.nextBelow(1024) / 1024;
    return sizes;
}

Series
compiled(const std::string &label, const Program &program,
         const CompileOptions &copts, int tiles, Tracer &tracer)
{
    Series s;
    s.label = label;
    s.tiles = tiles;
    s.kernels.push_back(compilePlan(program, copts, tracer, false));
    s.collective = program.collectivePtr();
    return s;
}

Series
perProtocol(const std::string &label, int tiles,
            std::function<Protocol(std::uint64_t)> protocol_for,
            std::function<std::vector<IrProgram>(std::uint64_t)> build,
            std::shared_ptr<const Collective> collective)
{
    Series s;
    s.label = label;
    s.mscclang = false;
    s.tiles = tiles;
    s.protocolFor = std::move(protocol_for);
    s.build = std::move(build);
    s.collective = std::move(collective);
    return s;
}

AlgoConfig
config(int instances, Protocol protocol)
{
    AlgoConfig c;
    c.instances = instances;
    c.protocol = protocol;
    return c;
}

template <typename F>
std::unique_ptr<Program>
traced(Tracer &tracer, F &&factory)
{
    Scope span(tracer, "dsl.trace");
    return factory();
}

/** The NCCL ring allreduce model, rebuilt per protocol. */
Series
ncclAllReduce(const Topology &topo)
{
    int ranks = topo.numRanks();
    return perProtocol(
        "NCCL", 1,
        [ranks](std::uint64_t b) { return ncclProtocolFor(b, ranks); },
        [&topo](std::uint64_t b) {
            return std::vector<IrProgram>{ ncclAllReduceIr(topo, b) };
        },
        std::make_shared<AllReduceCollective>(ranks, 1));
}

/** Per-rank-share protocol choice of the composed baselines. */
std::function<Protocol(std::uint64_t)>
shareProtocol(const Topology &topo)
{
    int ranks = topo.numRanks();
    return [ranks](std::uint64_t b) {
        return ncclProtocolFor(b / ranks, ranks);
    };
}

Series
cudaTwoStep(const Topology &topo)
{
    return perProtocol(
        "CUDA Two-Step", 4, shareProtocol(topo),
        [&topo](std::uint64_t b) { return cudaTwoStepAllToAll(topo, b); },
        std::make_shared<AllToAllCollective>(topo.numRanks(), 1));
}

void
allReduceSingleNode(Figure &fig, Tracer &tracer, int ring_ll128_channels,
                    int ring_ll128_instances)
{
    int ranks = fig.topo.numRanks();
    fig.series.push_back(ncclAllReduce(fig.topo));
    for (int r : { 2, 4 }) {
        auto p = traced(tracer, [&] {
            return makeAllPairsAllReduce(ranks, config(r, Protocol::LL));
        });
        fig.series.push_back(compiled(strprintf("AllPairs r=%d LL", r), *p,
                                      {}, 1, tracer));
    }
    auto ring_ll = traced(tracer, [&] {
        return makeRingAllReduce(ranks, 4, config(8, Protocol::LL));
    });
    fig.series.push_back(compiled("Ring ch=4 r=8 LL", *ring_ll, {}, 1, tracer));
    auto ring_ll128 = traced(tracer, [&] {
        return makeRingAllReduce(ranks, ring_ll128_channels,
                                 config(ring_ll128_instances,
                                        Protocol::LL128));
    });
    fig.series.push_back(compiled(strprintf("Ring ch=%d r=%d LL128",
                                            ring_ll128_channels,
                                            ring_ll128_instances),
                                  *ring_ll128, {}, 1, tracer));
}

void
allReduceTwoNode(Figure &fig, Tracer &tracer, int intra_parallel,
                 const std::vector<std::pair<int, Protocol>> &variants)
{
    const Topology &topo = fig.topo;
    fig.series.push_back(ncclAllReduce(topo));
    for (auto [instances, proto] : variants) {
        auto p = traced(tracer, [&] {
            return makeHierarchicalAllReduce(topo.numNodes(),
                                             topo.gpusPerNode(),
                                             intra_parallel,
                                             config(instances, proto));
        });
        fig.series.push_back(compiled(
            strprintf("MSCCLang %s r=%d", protocolName(proto), instances),
            *p, {}, 4, tracer));
    }
    fig.series.push_back(perProtocol(
        "NCCL Hierarchical", 1, shareProtocol(topo),
        [&topo](std::uint64_t b) {
            return composedHierarchicalAllReduce(topo, b);
        },
        std::make_shared<AllReduceCollective>(topo.numRanks(), 1)));
}

void
allToAll(Figure &fig, Tracer &tracer, int max_tbs, int instances,
         bool nccl_kernels)
{
    const Topology &topo = fig.topo;
    CompileOptions copts;
    copts.topology = &fig.topo;
    copts.maxThreadBlocks = max_tbs;
    fig.series.push_back(cudaTwoStep(topo));
    for (Protocol proto : { Protocol::LL128, Protocol::Simple }) {
        auto p = traced(tracer, [&] {
            return makeTwoStepAllToAll(topo.numNodes(), topo.gpusPerNode(),
                                       config(instances, proto));
        });
        fig.series.push_back(compiled(
            strprintf("MSCCLang Two-step %s r=%d", protocolName(proto),
                      instances),
            *p, copts, 4, tracer));
    }
    if (nccl_kernels) {
        fig.series.push_back(perProtocol(
            "NCCL", 1, shareProtocol(topo),
            [&topo, max_tbs](std::uint64_t b) {
                return ncclAllToAllKernels(topo, b, max_tbs);
            },
            std::make_shared<AllToAllCollective>(topo.numRanks(), 1)));
    } else {
        auto naive = traced(tracer, [&] {
            return makeNaiveAllToAll(topo.numRanks(),
                                     config(1, Protocol::Simple));
        });
        Series s = compiled("NCCL", *naive, copts, 1, tracer);
        s.mscclang = false;
        fig.series.push_back(std::move(s));
    }
}

void
allToNext(Figure &fig, Tracer &tracer, std::vector<int> instances)
{
    const Topology &topo = fig.topo;
    Series naive;
    naive.label = "CUDA";
    naive.mscclang = false;
    naive.tiles = 1;
    naive.kernels.push_back(naiveAllToNextIr(topo, 1 << 20));
    naive.collective = std::make_shared<AllToNextCollective>(
        topo.numRanks(), topo.gpusPerNode());
    fig.series.push_back(std::move(naive));
    for (int r : instances) {
        auto p = traced(tracer, [&] {
            return makeAllToNext(topo.numNodes(), topo.gpusPerNode(),
                                 config(r, Protocol::Simple));
        });
        fig.series.push_back(
            compiled(strprintf("MSCCLang r=%d", r), *p, {}, 4, tracer));
    }
}

void
scclAllGather(Figure &fig, Tracer &tracer)
{
    CompileOptions copts;
    copts.topology = &fig.topo;
    for (Protocol proto :
         { Protocol::Direct, Protocol::Simple, Protocol::LL }) {
        auto p = traced(tracer, [&] {
            return makeSccl122AllGather(fig.topo, config(1, proto));
        });
        Series s = compiled(strprintf("%s %s",
                                      proto == Protocol::Direct
                                          ? "SCCL" : "MSCCLang",
                                      protocolName(proto)),
                            *p, copts, 4, tracer);
        s.mscclang = proto != Protocol::Direct;
        fig.series.push_back(std::move(s));
    }
}

struct FigureDef
{
    const char *name;
    std::function<Topology()> topo;
    std::uint64_t from;
    std::uint64_t to;
    std::function<void(Figure &, Tracer &)> plans;
};

const std::uint64_t KB = 1 << 10;
const std::uint64_t MB = 1 << 20;
const std::uint64_t GB = 1ull << 30;

std::vector<FigureDef>
figureDefs()
{
    using P = Protocol;
    return {
        { "fig8a", [] { return makeNdv4(1); }, 1 * KB, 32 * MB,
          [](Figure &f, Tracer &t) { allReduceSingleNode(f, t, 4, 8); } },
        { "fig8b", [] { return makeDgx2(1); }, 2 * KB, 32 * MB,
          [](Figure &f, Tracer &t) { allReduceSingleNode(f, t, 8, 4); } },
        { "fig8c", [] { return makeNdv4(2); }, 1 * KB, 4 * GB,
          [](Figure &f, Tracer &t) {
              allReduceTwoNode(f, t, f.topo.numNodes(),
                               { { 1, P::LL }, { 2, P::LL128 },
                                 { 4, P::Simple } });
          } },
        { "fig8d", [] { return makeDgx2(2); }, 1 * KB, 4 * GB,
          [](Figure &f, Tracer &t) {
              allReduceTwoNode(f, t, 4,
                               { { 1, P::LL }, { 1, P::LL128 },
                                 { 4, P::Simple } });
          } },
        { "fig8e", [] { return makeNdv4(8); }, 256 * KB, 4 * GB,
          [](Figure &f, Tracer &t) { allToAll(f, t, 108, 1, true); } },
        { "fig8f", [] { return makeDgx2(4); }, 1 * MB, 4 * GB,
          [](Figure &f, Tracer &t) { allToAll(f, t, 80, 2, false); } },
        { "fig8g", [] { return makeNdv4(3); }, 4 * KB, 256 * MB,
          [](Figure &f, Tracer &t) { allToNext(f, t, { 4, 8, 16 }); } },
        { "fig8h", [] { return makeDgx2(4); }, 4 * KB, 256 * MB,
          [](Figure &f, Tracer &t) { allToNext(f, t, { 2, 4, 8 }); } },
        { "fig11", [] { return makeDgx1(); }, 32 * KB, 1 * GB,
          [](Figure &f, Tracer &t) { scclAllGather(f, t); } },
    };
}

std::vector<std::unique_ptr<Figure>>
buildFigures(std::uint64_t seed, Tracer &tracer)
{
    Rng rng(seed);
    std::vector<std::unique_ptr<Figure>> figures;
    for (const FigureDef &def : figureDefs()) {
        auto fig = std::make_unique<Figure>(
            Figure{ def.name, def.topo(), {}, {} });
        fig->sizes = jitteredSweep(def.from, def.to, rng);
        def.plans(*fig, tracer);
        Scope span(tracer, "baselines.build");
        for (Series &s : fig->series) {
            if (!s.build)
                continue;
            for (std::uint64_t bytes : fig->sizes) {
                Protocol proto = s.protocolFor(bytes);
                if (!s.byProtocol.count(proto))
                    s.byProtocol.emplace(proto, s.build(bytes));
            }
        }
        figures.push_back(std::move(fig));
    }
    return figures;
}

/** Simulated time of every cell, in (figure, size, series) order. */
std::vector<double>
sweep(const std::vector<std::unique_ptr<Figure>> &figures, Tracer &tracer)
{
    std::vector<double> times;
    for (const auto &fig : figures) {
        for (std::uint64_t bytes : fig->sizes) {
            for (const Series &s : fig->series) {
                std::vector<const IrProgram *> kernels;
                for (const IrProgram &k : s.kernelsFor(bytes))
                    kernels.push_back(&k);
                times.push_back(
                    simulateUs(fig->topo, kernels, bytes, s.tiles, tracer));
            }
        }
    }
    return times;
}

/** Data-mode run of @p kernels against the series' postcondition. */
std::string
checkData(const Topology &topo, const std::vector<IrProgram> &kernels,
          const Collective &collective, std::uint64_t seed)
{
    std::uint64_t chunks = static_cast<std::uint64_t>(
        collective.inputChunkCount(0));
    for (const IrProgram &k : kernels) {
        for (const IrGpu &gpu : k.gpus)
            chunks = std::lcm(chunks,
                              static_cast<std::uint64_t>(gpu.inputChunks));
    }
    // 48 floats per chunk: divisible by every instance and
    // parallelization factor the plans use.
    std::uint64_t bytes = chunks * 48 * sizeof(float);
    Communicator comm(topo);
    for (const IrProgram &k : kernels)
        comm.store().configure(k, bytes);
    Rng rng(seed);
    const IrProgram &first = kernels.front();
    std::vector<std::vector<float>> inputs(first.numRanks);
    for (int r = 0; r < first.numRanks; r++) {
        for (float &v : comm.store().input(r))
            v = rng.nextSignedFloat();
        inputs[r] = comm.store().input(r);
        inputs[r].resize(bytes / sizeof(float));
    }
    std::vector<const IrProgram *> refs;
    for (const IrProgram &k : kernels)
        refs.push_back(&k);
    RunOptions run;
    run.bytes = bytes;
    run.dataMode = true;
    RunResult result = refs.size() == 1 ? comm.runProgram(*refs[0], run)
                                        : comm.runComposed(refs, run);
    if (result.stats.aborted)
        return "aborted: " + result.stats.abortReason;
    const IrProgram &last = kernels.back();
    std::vector<std::vector<float>> outputs(last.numRanks);
    for (int r = 0; r < last.numRanks; r++)
        outputs[r] = comm.store().buffer(r, BufferKind::Output, last.inPlace);
    return compareToReference(collective, inputs, outputs, last.reduceOp);
}

struct SweepStats
{
    std::vector<double> mscclangUs;
    double payloadBytes = 0.0;
    double speedupGeomean = 0.0;
};

SweepStats
summarize(const std::vector<std::unique_ptr<Figure>> &figures,
          const std::vector<double> &times)
{
    SweepStats stats;
    std::vector<double> speedups;
    size_t cell = 0;
    for (const auto &fig : figures) {
        for (std::uint64_t bytes : fig->sizes) {
            double baseline_us = times[cell];
            for (const Series &s : fig->series) {
                double us = times[cell++];
                if (!s.mscclang)
                    continue;
                stats.mscclangUs.push_back(us);
                stats.payloadBytes += static_cast<double>(bytes);
                speedups.push_back(baseline_us / us);
            }
        }
    }
    stats.speedupGeomean = geomean(speedups);
    return stats;
}

} // namespace

Outcome
runPaperSweep(const Options &options)
{
    Outcome out;
    Tracer tracer(false);
    std::vector<std::unique_ptr<Figure>> figures;
    auto setup = [&] {
        // The baseline builders compile through the plan cache: start
        // each set-up from an empty one, so every set-up compiles.
        PlanCache::global().clear();
        figures.clear();
        figures = buildFigures(options.seed, tracer);
    };

    double phase_s = options.trace ? options.seconds / 2 : options.seconds;
    std::vector<double> times;
    RunTimes run = measureRun(phase_s, 2, setup, [&] {
        double start = nowS();
        times = sweep(figures, tracer);
        return nowS() - start;
    });
    out.endToEnd["setup_s"] = run.setupS;
    report("setup_s", run.setupS, "s");
    const std::vector<double> &iters = run.iters;
    out.attempted += iters.size() * times.size();
    double host_s = median(iters);
    out.endToEnd["host_s"] = host_s;
    report("sweep_s", host_s, "s");
    std::printf("# %zu timed sweeps of %zu cells\n", iters.size(),
                times.size());

    SweepStats stats = summarize(figures, times);
    setSimulatedMetrics(out, stats.mscclangUs, stats.payloadBytes,
                        "collective_us_geomean");
    std::printf("# %zu MSCCLang cells; speedup over each figure's baseline, "
                "geomean %.4f\n",
                stats.mscclangUs.size(), stats.speedupGeomean);

    // Every program once in data mode against the oracle.
    int checked = 0;
    for (const auto &fig : figures) {
        for (const Series &s : fig->series) {
            std::vector<const std::vector<IrProgram> *> variants;
            if (s.build) {
                for (const auto &entry : s.byProtocol)
                    variants.push_back(&entry.second);
            } else {
                variants.push_back(&s.kernels);
            }
            for (const std::vector<IrProgram> *kernels : variants) {
                out.attempted++;
                checked++;
                std::string why;
                try {
                    why = checkData(fig->topo, *kernels, *s.collective,
                                    options.seed);
                } catch (const Error &e) {
                    why = e.what();
                }
                if (!why.empty())
                    out.fail(strprintf("%s %s data mode: %s",
                                       fig->name.c_str(), s.label.c_str(),
                                       why.c_str()));
            }
        }
    }
    std::printf("# data-mode oracle checks: %d programs\n", checked);

    if (!options.trace)
        return out;

    tracer.setOn(true);
    double traced_setup = timeSetup(setup);
    tracer.closeSetupRep();
    std::vector<double> traced_times;
    std::vector<double> traced_iters = timedLoop(phase_s, 1, [&] {
        double start = nowS();
        traced_times = sweep(figures, tracer);
        double elapsed = nowS() - start;
        tracer.closeRep();
        return elapsed;
    });
    if (traced_times != times)
        out.fail("simulated times differ between traced and untraced runs");
    else
        std::printf("# simulated metrics equal in traced and untraced runs\n");
    reportOverhead(out.endToEnd["setup_s"], traced_setup, host_s,
                   median(traced_iters));
    out.perLayer["baselines.speedup_geomean"] = stats.speedupGeomean;
    collectLayers(tracer, out);
    printSelfTimes(tracer);
    return out;
}

} // namespace perfbench
