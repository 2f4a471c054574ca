/**
 * @file
 * Chaos driver: sweeps fault scenarios across registered algorithms
 * and prints a survival/latency matrix — does a candidate ride out a
 * degraded link, a transient stall, a hard link-down? Each cell runs
 * the algorithm under a scripted fault with the watchdog armed, a
 * ring fallback registered, and the self-healing replanner wired up,
 * and reports the completed latency, the attempts it took, and HOW
 * the run recovered: on the primary, via a backoff retry, via a
 * recompiled degraded-topology ring, or on the blind fallback.
 *
 * The sweep is deterministic: --seed fixes the health monitor's
 * backoff jitter and the data-mode input fill, so two invocations
 * with the same flags produce byte-identical output (the chaos CI
 * gate diffs exactly this).
 *
 * Examples:
 *   mscclang_chaos
 *   mscclang_chaos --machine ndv4:2 --bytes 16MB
 *   mscclang_chaos --machine generic:2:4 --resource "ib-send[0.3]"
 *   mscclang_chaos --machine dgx1 --at-frac 0.6 --data
 *   mscclang_chaos --seed 42 --csv matrix.csv
 */

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "collectives/collectives.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "compiler/plan_cache.h"
#include "runtime/communicator.h"
#include "sim/profile.h"

using namespace mscclang;

namespace {

void
usage()
{
    std::fprintf(stderr,
        "usage: mscclang_chaos [options]\n"
        "  --machine <spec>   ndv4:<n> | dgx2:<n> | dgx1 | "
        "generic:<n>:<g>   (default ndv4:1)\n"
        "  --bytes <size>     input bytes per rank (default 4MB)\n"
        "  --at-frac <f>      fault activation as a fraction of the\n"
        "                     algorithm's healthy latency (default 0.3)\n"
        "  --resource <id>    faulted resource, by id or by name\n"
        "                     (default: first resource of the 0 -> 1\n"
        "                     route)\n"
        "  --seed <n>         seed for backoff jitter and data fill\n"
        "                     (default 1; same seed, same output)\n"
        "  --csv <path>       also write the matrix as CSV rows\n"
        "                     ('-' for stdout)\n"
        "  --data             move real floats (slower, validates "
        "buffers)\n"
        "  --sim-threads <n>  simulation worker threads (default 1)\n"
        "  --profile          print a wall-clock phase breakdown of\n"
        "                     the whole sweep after the matrix\n");
}

struct Candidate
{
    std::string label;
    IrProgram ir;
};

struct Scenario
{
    std::string label;
    FaultKind kind;
    double factor;       // Degrade only
    double durationFrac; // Stall only, fraction of healthy latency
};

/** How a cell's run finished, for the matrix and the CSV. */
const char *
recoveryMode(const RunResult &result)
{
    if (result.recoveredViaReplan)
        return "replan";
    if (result.algorithm.find("(fallback)") != std::string::npos)
        return "fallback";
    if (result.degraded)
        return "retry";
    return "ok";
}

/** Short matrix tag of a recovery mode. */
const char *
modeTag(const std::string &mode)
{
    if (mode == "replan")
        return "RP ";
    if (mode == "fallback")
        return "FB ";
    if (mode == "retry")
        return "rt ";
    return "ok ";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string machine = "ndv4:1";
    std::uint64_t bytes = 4 << 20;
    double at_frac = 0.3;
    int resource = -1;
    std::string resource_name;
    std::uint64_t seed = 1;
    std::string csv_path;
    bool data_mode = false;
    int sim_threads = 1;
    bool profile_on = false;
    for (int i = 1; i < argc; i++) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw Error("missing value for " + flag);
            return argv[++i];
        };
        try {
            if (flag == "--machine") machine = value();
            else if (flag == "--bytes") bytes = parseBytes(value());
            else if (flag == "--at-frac") at_frac = std::stod(value());
            else if (flag == "--resource") {
                std::string spec = value();
                try {
                    size_t used = 0;
                    resource = std::stoi(spec, &used);
                    if (used != spec.size())
                        throw std::invalid_argument(spec);
                } catch (const std::logic_error &) {
                    resource_name = spec; // resolve by name later
                }
            }
            else if (flag == "--seed")
                seed = std::stoull(value());
            else if (flag == "--csv") csv_path = value();
            else if (flag == "--data") data_mode = true;
            else if (flag == "--sim-threads")
                sim_threads = std::stoi(value());
            else if (flag == "--profile") profile_on = true;
            else if (flag == "--help" || flag == "-h") {
                usage();
                return 0;
            } else {
                std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
                usage();
                return 2;
            }
        } catch (const std::exception &error) {
            std::fprintf(stderr, "error: %s\n", error.what());
            return 2;
        }
    }

    try {
        Topology probe = parseTopology(machine);
        int ranks = probe.numRanks();
        if (!resource_name.empty()) {
            for (ResourceId id = 0; id < probe.numResources(); id++) {
                if (probe.resourceName(id) == resource_name) {
                    resource = id;
                    break;
                }
            }
            if (resource < 0)
                throw Error("no resource named '" + resource_name +
                            "' on " + probe.name());
        }
        if (resource < 0) {
            const Route &first = probe.route(0, 1 % ranks);
            if (first.resources.empty())
                throw Error("route 0 -> 1 has no shared resources; "
                            "pass --resource");
            resource = first.resources.front();
        }

        AlgoConfig ll;
        ll.protocol = Protocol::LL;
        ll.instances = 4;
        AlgoConfig simple;
        simple.protocol = Protocol::Simple;
        simple.instances = 4;
        std::vector<Candidate> candidates;
        candidates.push_back(Candidate{
            "ring/LL",
            compileProgramCached(*makeRingAllReduce(ranks, 1, ll)).ir });
        candidates.push_back(Candidate{
            "ring/Simple",
            compileProgramCached(*makeRingAllReduce(ranks, 2, simple)).ir });
        candidates.push_back(Candidate{
            "allpairs/LL",
            compileProgramCached(*makeAllPairsAllReduce(ranks, ll)).ir });

        AlgoConfig fb;
        fb.protocol = Protocol::Simple;
        fb.instances = 2;
        IrProgram fallback_ir =
            compileProgramCached(*makeRingAllReduce(ranks, 1, fb)).ir;
        fallback_ir.name = "ring-fallback";

        const std::vector<Scenario> scenarios = {
            { "healthy", FaultKind::Degrade, 1.0, 0.0 },
            { "degrade50", FaultKind::Degrade, 0.5, 0.0 },
            { "degrade90", FaultKind::Degrade, 0.1, 0.0 },
            { "stall", FaultKind::Stall, 0.0, 0.5 },
            { "linkdown", FaultKind::LinkDown, 0.0, 0.0 },
        };

        std::printf("machine %s, %s per rank, fault on resource %d "
                    "(%s) at %.0f%% of healthy latency, seed %llu\n",
                    probe.name().c_str(), formatBytes(bytes).c_str(),
                    resource, probe.resourceName(resource).c_str(),
                    at_frac * 100.0,
                    static_cast<unsigned long long>(seed));
        std::printf("%-14s", "algorithm");
        for (const Scenario &s : scenarios)
            std::printf(" %16s", s.label.c_str());
        std::printf("\n");

        std::string csv = "machine,algorithm,scenario,seed,mode,"
                          "attempts,faults,time_us,total_time_us,"
                          "backoff_us,quarantined\n";
        SimProfile profile; // accumulates across the whole sweep

        for (const Candidate &candidate : candidates) {
            std::printf("%-14s", candidate.label.c_str());
            // Healthy latency anchors the fault timings per algorithm.
            double healthy_us = 0.0;
            for (const Scenario &scenario : scenarios) {
                Topology topo = parseTopology(machine);
                if (scenario.label != "healthy") {
                    FaultEvent event;
                    event.resource = resource;
                    event.kind = scenario.kind;
                    event.atUs = healthy_us * at_frac;
                    event.factor = scenario.factor;
                    event.durationUs =
                        healthy_us * scenario.durationFrac;
                    topo.setFaultSchedule(
                        FaultSchedule{ { event } });
                }
                HealthOptions health;
                health.seed = seed;
                Communicator comm(topo, health);
                comm.registerAlgorithm(candidate.ir, 0,
                    std::numeric_limits<std::uint64_t>::max());
                comm.registerFallback("allreduce",
                    [&](std::uint64_t) { return fallback_ir; });
                comm.registerReplanner("allreduce",
                    [&fb](const Topology &degraded, std::uint64_t)
                        -> std::unique_ptr<Program> {
                        std::vector<Rank> order =
                            findRingOrder(degraded);
                        if (order.empty())
                            return nullptr;
                        return makeRingAllReduceOver(order, 1, fb);
                    });
                RunOptions run;
                run.bytes = bytes;
                run.dataMode = data_mode;
                run.simThreads = sim_threads;
                run.profile = profile_on ? &profile : nullptr;
                run.watchdogNoProgressUs =
                    std::max(200.0, healthy_us);
                if (data_mode) {
                    comm.store().configure(candidate.ir, bytes);
                    Rng fill(seed);
                    for (int r = 0; r < ranks; r++) {
                        for (float &v : comm.store().input(r))
                            v = fill.nextSignedFloat();
                    }
                }
                std::string mode;
                RunResult result;
                try {
                    result = comm.run("allreduce", run);
                    if (scenario.label == "healthy")
                        healthy_us = result.timeUs;
                    mode = recoveryMode(result);
                    std::printf(" %11.1fus %s", result.timeUs,
                                modeTag(mode));
                } catch (const RuntimeError &) {
                    mode = "failed";
                    std::printf(" %14s", "FAILED ");
                }
                csv += strprintf(
                    "%s,%s,%s,%llu,%s,%d,%d,%.3f,%.3f,%.3f,%s\n",
                    machine.c_str(), candidate.label.c_str(),
                    scenario.label.c_str(),
                    static_cast<unsigned long long>(seed),
                    mode.c_str(), result.attempts, result.faultsSeen,
                    result.timeUs, result.totalTimeUs,
                    result.backoffUs,
                    result.quarantinedLinks.empty()
                        ? "-"
                        : linkName(result.quarantinedLinks.front())
                              .c_str());
            }
            std::printf("\n");
        }
        std::printf("\nok: completed on the selected algorithm; "
                    "rt: backoff retry on the same plan;\n"
                    "RP: recovered via degraded-topology replan; "
                    "FB: the blind fallback finished;\n"
                    "FAILED: no attempt survived the fault.\n");

        if (profile_on) {
            auto us = [](std::int64_t ns) {
                return static_cast<double>(ns) / 1000.0;
            };
            std::printf(
                "\nphase breakdown (wall clock, whole sweep):\n"
                "  event queue     %10.1f us  (%llu serial events)\n"
                "  flow network    %10.1f us  (%llu batches)\n"
                "  flow callbacks  %10.1f us\n",
                us(profile.eventQueueNs),
                static_cast<unsigned long long>(profile.serialEvents),
                us(profile.flowNetworkNs),
                static_cast<unsigned long long>(profile.flowBatches),
                us(profile.flowCallbacksNs));
        }

        if (!csv_path.empty()) {
            if (csv_path == "-") {
                std::fputs(csv.c_str(), stdout);
            } else {
                std::FILE *out = std::fopen(csv_path.c_str(), "w");
                if (out == nullptr)
                    throw Error("cannot write " + csv_path);
                std::fputs(csv.c_str(), out);
                std::fclose(out);
            }
        }
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
