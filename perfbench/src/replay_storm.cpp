/**
 * @file
 * replay-storm: a seeded three-stream inference trace (decode
 * allreduces, MoE alltoalls, bursty allreduces) replayed on one shared
 * generic:2:8 fabric under a link-flap storm that spans the whole
 * trace, with self-healing on. Many concurrent flows contend on one
 * network while faults churn, so this exercises what paper-sweep never
 * touches: the communicator's recovery cascade, the health monitor,
 * and replan compiles through the plan cache.
 *
 * The trace is an open loop: every op has a due (issue) time and its
 * latency counts from that time. Issue periods are chosen so the
 * fault-free fabric keeps up (the set-up prints the fault-free latency
 * of the first and last quarter of ops to show there is no growing
 * backlog); otherwise the tail latency would measure the trace length.
 * Each timed replay starts from an empty plan cache, so its replan
 * compiles are cold.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/strings.h"
#include "compiler/plan_cache.h"
#include "harness.h"
#include "workload/replay.h"
#include "workload/workload.h"

namespace perfbench {

using namespace mscclang;

namespace {

const char *const kMachine = "generic:2:8";

// Trace shape: 1000 ops over ~0.2 s of simulated time.
constexpr int kDecodeOps = 500;
constexpr double kDecodePeriodUs = 400.0;
constexpr int kMoeOps = 300;
constexpr double kMoePeriodUs = 600.0;
constexpr int kBursts = 50;
constexpr int kOpsPerBurst = 4;
constexpr double kBurstGapUs = 4000.0;

// Storm: the IB NIC of node 0's last GPU (the node-boundary hop of the
// rank-order rings) stalls for kStallUs every kFlapPeriodUs.
constexpr double kFlapPeriodUs = 8000.0;
constexpr double kStallUs = 2000.0;

WorkloadSpec
makeTrace(std::uint64_t seed)
{
    WorkloadSpec spec = mergeSpecs(
        "replay-storm",
        {
            makeDecodeWorkload(kDecodeOps, 256 << 10, kDecodePeriodUs, seed),
            makeMoeWorkload(kMoeOps, 1 << 20, kMoePeriodUs, seed + 1),
            makeBurstyWorkload(kBursts, kOpsPerBurst, 128 << 10, kBurstGapUs,
                               seed + 2),
        });
    spec.validate();
    return spec;
}

FaultSchedule
makeStorm(const Topology &topo, const WorkloadSpec &spec)
{
    double last_issue = 0.0;
    for (const WorkloadStream &stream : spec.streams) {
        for (const WorkloadOp &op : stream.ops)
            last_issue = std::max(last_issue, op.issueUs);
    }
    int flaps = static_cast<int>(last_issue / kFlapPeriodUs) + 1;
    std::vector<ResourceId> targets = resourcesMatching(
        topo, strprintf("ib-send[0.%d]", topo.gpusPerNode() - 1));
    return makeLinkFlapStorm(targets, flaps, kFlapPeriodUs, kStallUs, 200.0);
}

/** Median fault-free latency of the first and last quarter of ops by
 *  issue time: equal within noise when there is no growing backlog. */
void
printBacklogCheck(const ReplayResult &baseline)
{
    std::vector<const OpRecord *> ops;
    for (const OpRecord &op : baseline.ops)
        ops.push_back(&op);
    std::sort(ops.begin(), ops.end(), [](auto *a, auto *b) {
        return a->issueUs < b->issueUs;
    });
    size_t quarter = ops.size() / 4;
    std::vector<double> first, last;
    for (size_t i = 0; i < quarter; i++) {
        first.push_back(ops[i]->latencyUs);
        last.push_back(ops[ops.size() - 1 - i]->latencyUs);
    }
    std::printf("backlog fault-free median latency: first quarter %.3f us, "
                "last quarter %.3f us\n",
                median(first), median(last));
}

struct Stormed
{
    ReplayResult result;
    SloReport report;
    double replayS = 0.0;
};

Stormed
stormedReplay(const Topology &topo, const WorkloadSpec &spec,
              const FaultSchedule &storm, const ReplayResult &baseline,
              Tracer &tracer)
{
    PlanCache &cache = PlanCache::global();
    cache.clear();
    std::size_t hits = cache.hits(), misses = cache.misses();
    Communicator comm(topo);
    {
        Scope span(tracer, "workload.register_plans");
        registerWorkloadPlans(comm, spec);
    }
    SimProfile profile;
    ReplayOptions options;
    options.profile = tracer.on() ? &profile : nullptr;
    Stormed out;
    double start = nowS();
    {
        Scope span(tracer, "workload.replay");
        out.result = replayWorkload(comm, spec, storm, options);
    }
    out.replayS = nowS() - start;
    {
        Scope span(tracer, "workload.slo_report");
        out.report = buildSloReport(spec, out.result, &baseline, options);
    }
    recordProfile(tracer, profile);
    const SloStats &fleet = out.report.fleet;
    tracer.count("runtime.retries", fleet.retries);
    tracer.count("runtime.backoffs", fleet.backoffs);
    tracer.count("runtime.replans", fleet.replans);
    tracer.count("runtime.fallbacks", fleet.fallbacks);
    tracer.count("runtime.replan_compiles", out.result.replanCompiles);
    tracer.count("runtime.health.quarantine_changes",
                 out.result.quarantineChanges);
    tracer.count("workload.faults_fired", out.result.faultsFired);
    tracer.count("plan_cache.hits", static_cast<double>(cache.hits() - hits));
    tracer.count("compiler.plan_cache.misses",
                 static_cast<double>(cache.misses() - misses));
    return out;
}

} // namespace

Outcome
runReplayStorm(const Options &options)
{
    Outcome out;
    Tracer tracer(false);
    std::unique_ptr<Topology> topo;
    WorkloadSpec spec;
    FaultSchedule storm;
    ReplayResult baseline;
    auto setup = [&] {
        // Plan registration compiles through the plan cache: start each
        // set-up from an empty one, so every set-up compiles.
        PlanCache::global().clear();
        topo = std::make_unique<Topology>(parseTopology(kMachine));
        spec = makeTrace(options.seed);
        storm = makeStorm(*topo, spec);
        Communicator comm(*topo);
        {
            Scope span(tracer, "workload.register_plans");
            registerWorkloadPlans(comm, spec);
        }
        Scope span(tracer, "workload.fault_free_replay");
        baseline = replayWorkload(comm, spec, FaultSchedule{},
                                  ReplayOptions{});
    };

    double phase_s = options.trace ? options.seconds / 2 : options.seconds;
    Stormed stormed;
    std::vector<std::uint64_t> fingerprints;
    RunTimes run = measureRun(phase_s, 3, setup, [&] {
        stormed = stormedReplay(*topo, spec, storm, baseline, tracer);
        fingerprints.push_back(stormed.result.fingerprint());
        return stormed.replayS;
    });
    out.endToEnd["setup_s"] = run.setupS;
    report("setup_s", run.setupS, "s");
    std::printf("# trace: %d ops in %zu streams, storm: %zu stall events\n",
                spec.totalOps(), spec.streams.size(), storm.events.size());
    printBacklogCheck(baseline);
    const std::vector<double> &iters = run.iters;
    double host_s = median(iters);
    out.endToEnd["host_s"] = host_s;
    report("replay_s", host_s, "s");
    std::printf("# %zu timed replays\n", iters.size());

    const SloStats &fleet = stormed.report.fleet;
    // Ops that exhausted their retries are failures by design of the
    // storm: counted, not a failed check.
    out.attempted += static_cast<std::uint64_t>(fleet.ops);
    out.failed += static_cast<std::uint64_t>(fleet.failed);
    std::vector<double> latencies;
    for (const OpRecord &op : stormed.result.ops) {
        if (op.completed)
            latencies.push_back(op.latencyUs);
    }
    out.endToEnd["collective_us_geomean"] = geomean(latencies);
    out.endToEnd["fleet_p50_us"] = fleet.p50Us;
    out.endToEnd["fleet_p99_us"] = fleet.p99Us;
    out.endToEnd["availability"] = fleet.availability;
    out.endToEnd["goodput_gbps"] = fleet.goodputGBps;
    for (const char *name : { "collective_us_geomean", "fleet_p50_us",
                              "fleet_p99_us" })
        report(name, out.endToEnd[name], "us");
    report("availability", fleet.availability, "fraction");
    report("goodput_gbps", fleet.goodputGBps, "GB/s");
    std::printf("# ops %d completed %d failed %d retries %d replans %d "
                "fallbacks %d faults fired %d replan compiles %d\n",
                fleet.ops, fleet.completed, fleet.failed, fleet.retries,
                fleet.replans, fleet.fallbacks, stormed.result.faultsFired,
                stormed.result.replanCompiles);
    std::printf("replay fingerprint %016llx\n",
                static_cast<unsigned long long>(
                    stormed.result.fingerprint()));
    out.attempted++;
    if (storm.events.empty() || stormed.result.faultsFired == 0)
        out.fail("the storm fired no fault");
    out.attempted++;
    if (std::count(fingerprints.begin(), fingerprints.end(),
                   fingerprints.front()) !=
        static_cast<std::ptrdiff_t>(fingerprints.size()))
        out.fail("timed replays differ from one another");
    else
        std::printf("# %zu timed replays have equal fingerprints\n",
                    fingerprints.size());

    if (!options.trace)
        return out;

    tracer.setOn(true);
    double traced_setup = timeSetup(setup);
    tracer.closeSetupRep();
    Stormed traced;
    std::vector<double> traced_iters = timedLoop(phase_s, 1, [&] {
        traced = stormedReplay(*topo, spec, storm, baseline, tracer);
        tracer.closeRep();
        return traced.replayS;
    });
    if (traced.result.fingerprint() != stormed.result.fingerprint() ||
        traced.report.toJson() != stormed.report.toJson())
        out.fail("replay differs between traced and untraced runs");
    else
        std::printf("# replay fingerprint and SLO report equal in traced "
                    "and untraced runs\n");
    reportOverhead(out.endToEnd["setup_s"], traced_setup, host_s,
                   median(traced_iters));
    collectLayers(tracer, out);
    printSelfTimes(tracer);
    return out;
}

} // namespace perfbench
