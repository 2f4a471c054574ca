/**
 * @file
 * Schedule-space search CLI: enumerate schedule candidates over the
 * DSL factories, compile each through the content-addressed plan
 * cache, cost them on the flow simulator across a size sweep, and
 * print the pareto frontier and the tuned size windows it wins —
 * the automated version of the paper's "benchmark every variant and
 * pick per-size winners" workflow.
 *
 * Deterministic: the same --seed, machine and knob lists produce
 * byte-identical --json/--csv output at any --threads/--sim-threads
 * setting.
 *
 * Examples:
 *   mscclang_search
 *   mscclang_search --machine ndv4:2 --collective allgather
 *   mscclang_search --from 64KB --to 256MB --json frontier.json
 *   mscclang_search --smoke --json BENCH_search.json
 *
 * --smoke runs a compact space that contains every hand-tuned
 * explore_allreduce_algos pick and fails (exit 1) if any searched
 * window is slower than the best hand-tuned candidate at any swept
 * size — the CI gate that the searcher never regresses the
 * hand-written baseline.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "compiler/plan_cache.h"
#include "search/search.h"

using namespace mscclang;

namespace {

void
usage()
{
    std::fprintf(stderr,
        "usage: mscclang_search [options]\n"
        "  --machine <spec>      <name>:<nodes>[:<gpus>][:<variant>] "
        "with name ndv4 | dgx2 | dgx1 | generic and variant flat | "
        "rail | fattree (default ndv4:1; e.g. ndv4:4:8:rail, "
        "generic:8:8:fattree)\n"
        "  --collective <name>   allreduce | allgather (default "
        "allreduce)\n"
        "  --from <size>         sweep start, bytes per rank "
        "(default 1KB)\n"
        "  --to <size>           sweep end (default 64MB)\n"
        "  --threads <n>         sweep worker threads (default: "
        "hardware)\n"
        "  --sim-threads <n>     flow-network threads per simulation "
        "(default 1)\n"
        "  --seed <n>            subsample seed (default 0x5eed)\n"
        "  --max-candidates <n>  cap on evaluated candidates "
        "(0 = all)\n"
        "  --hier-splits <list>  comma-separated hierarchy splits "
        "swept by the hierarchical families (default 0 = whole "
        "node)\n"
        "  --json <path>         write the frontier report as JSON "
        "('-' for stdout)\n"
        "  --csv <path>          write the cost matrix as CSV "
        "('-' for stdout)\n"
        "  --smoke               compact space + hand-tuned baseline "
        "gate\n");
}

void
writeReport(const std::string &path, const std::string &text,
            const char *what)
{
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return;
    }
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw Error(strprintf("cannot open %s file '%s'", what,
                              path.c_str()));
    out << text;
}

/** The frontier candidate winning @p bytes under @p result. */
const CandidateResult &
windowWinner(const SearchResult &result, std::uint64_t bytes)
{
    for (const TunedWindow &window : result.windows) {
        if (bytes >= window.minBytes && bytes <= window.maxBytes) {
            return result
                .evaluated[result.frontier[static_cast<size_t>(
                    window.candidate)]];
        }
    }
    throw RuntimeError("searched windows do not cover the sweep");
}

/**
 * The --smoke gate: the searched windows must be at least as fast as
 * the best hand-tuned pick at every swept size. Returns the number
 * of violations (0 = pass).
 */
int
checkAgainstHandTuned(const Topology &topology,
                      const SearchResult &result,
                      const SearchOptions &options)
{
    std::vector<ScheduleCandidate> hand = handTunedAllReduceCandidates();
    CompileOptions copts;
    copts.topology = &topology;
    std::vector<IrProgram> irs;
    std::vector<std::string> labels;
    for (const ScheduleCandidate &spec : hand) {
        irs.push_back(
            compileProgramCached(*buildCandidate(spec, topology), copts)
                .ir);
        labels.push_back(candidateLabel(spec));
    }
    std::vector<const IrProgram *> pointers;
    for (const IrProgram &ir : irs)
        pointers.push_back(&ir);
    TuneOptions topts;
    topts.maxTilesPerChunk = options.maxTilesPerChunk;
    topts.threads = options.threads;
    topts.simThreads = options.simThreads;
    std::vector<std::vector<double>> hand_times =
        sweepCandidateTimesUs(topology, pointers, result.sizes, topts);

    int violations = 0;
    std::printf("%-8s %-28s %10s %10s\n", "size", "searched winner",
                "search us", "hand us");
    for (size_t i = 0; i < result.sizes.size(); i++) {
        double best_hand = std::numeric_limits<double>::infinity();
        for (const std::vector<double> &row : hand_times)
            best_hand = std::min(best_hand, row[i]);
        const CandidateResult &winner =
            windowWinner(result, result.sizes[i]);
        double searched = winner.timesUs[i];
        bool ok = searched <= best_hand + 1e-6;
        std::printf("%-8s %-28s %10.1f %10.1f%s\n",
                    formatBytes(result.sizes[i]).c_str(),
                    winner.label.c_str(), searched, best_hand,
                    ok ? "" : "  <-- SLOWER THAN HAND-TUNED");
        if (!ok)
            violations++;
    }
    return violations;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string machine = "ndv4:1";
    std::string collective = "allreduce";
    std::string json_path;
    std::string csv_path;
    bool smoke = false;
    SearchOptions options;

    try {
        for (int i = 1; i < argc; i++) {
            std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw Error(strprintf("%s needs a value",
                                          arg.c_str()));
                return argv[++i];
            };
            if (arg == "--machine") {
                machine = value();
            } else if (arg == "--collective") {
                collective = value();
            } else if (arg == "--from") {
                options.fromBytes = parseBytes(value());
            } else if (arg == "--to") {
                options.toBytes = parseBytes(value());
            } else if (arg == "--threads") {
                options.threads = std::atoi(value().c_str());
            } else if (arg == "--sim-threads") {
                options.simThreads = std::atoi(value().c_str());
            } else if (arg == "--seed") {
                options.seed = std::strtoull(value().c_str(),
                                             nullptr, 0);
            } else if (arg == "--max-candidates") {
                options.maxCandidates = static_cast<std::size_t>(
                    std::strtoull(value().c_str(), nullptr, 0));
            } else if (arg == "--hier-splits") {
                options.hierSplits.clear();
                for (const std::string &tok :
                     splitString(value(), ',')) {
                    options.hierSplits.push_back(
                        std::atoi(tok.c_str()));
                }
                if (options.hierSplits.empty())
                    throw Error("--hier-splits needs at least one "
                                "value");
            } else if (arg == "--json") {
                json_path = value();
            } else if (arg == "--csv") {
                csv_path = value();
            } else if (arg == "--smoke") {
                smoke = true;
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else {
                usage();
                throw Error(strprintf("unknown argument '%s'",
                                      arg.c_str()));
            }
        }

        if (smoke) {
            // Compact space, chosen to contain every hand-tuned
            // explore_allreduce_algos pick so the baseline gate
            // holds by construction when the searcher is correct.
            options.channels = { 1, 4 };
            options.parallelize = { 1 };
            options.instances = { 4, 8 };
            options.protocols = { Protocol::LL, Protocol::LL128 };
            options.aggregates = { 1 };
            options.fromBytes = 64 << 10;
            options.toBytes = 4 << 20;
        }

        Topology topology = parseTopology(machine);
        SearchResult result =
            searchSchedules(topology, collective, options);

        std::printf("# %s on %s: %zu enumerated, %zu evaluated, %zu "
                    "deduped, %zu skipped, frontier %zu, "
                    "%zu windows\n",
                    result.collective.c_str(),
                    result.topologyName.c_str(), result.enumerated,
                    result.evaluated.size(), result.deduped,
                    result.skipped, result.frontier.size(),
                    result.windows.size());
        for (const TunedWindow &window : result.windows) {
            std::printf(
                "  [%-8s .. %-8s] %-28s %10.1f us\n",
                formatBytes(window.minBytes).c_str(),
                window.maxBytes ==
                        std::numeric_limits<std::uint64_t>::max()
                    ? "inf"
                    : formatBytes(window.maxBytes).c_str(),
                result
                    .frontierIr[static_cast<size_t>(window.candidate)]
                    .name.c_str(),
                window.timeUs);
        }

        if (!json_path.empty())
            writeReport(json_path, frontierToJson(result), "json");
        if (!csv_path.empty())
            writeReport(csv_path, frontierToCsv(result), "csv");

        if (smoke && collective == "allreduce") {
            int violations =
                checkAgainstHandTuned(topology, result, options);
            if (violations > 0) {
                std::fprintf(stderr,
                             "FAIL: searched windows slower than the "
                             "hand-tuned baseline at %d size(s)\n",
                             violations);
                return 1;
            }
            std::printf("smoke OK: searched windows are never slower "
                        "than the hand-tuned picks\n");

            // Multi-node leg: a compact 2-node search sweeping the
            // hierarchy split must evaluate hierarchical candidates
            // and cover the sweep with windows.
            SearchOptions multi;
            multi.channels = { 1 };
            multi.parallelize = { 1 };
            multi.instances = { 1, 2 };
            multi.protocols = { Protocol::Simple };
            multi.aggregates = { 1 };
            multi.hierSplits = { 0, 2, 4 };
            multi.fromBytes = 64 << 10;
            multi.toBytes = 4 << 20;
            multi.threads = options.threads;
            multi.simThreads = options.simThreads;
            Topology two_node = parseTopology("generic:2:4");
            SearchResult mresult =
                searchSchedules(two_node, "allreduce", multi);
            std::size_t hier = 0;
            for (const CandidateResult &cand : mresult.evaluated) {
                if (cand.spec.family == AlgoFamily::Hierarchical)
                    hier++;
            }
            if (hier == 0 || mresult.windows.empty()) {
                std::fprintf(stderr,
                             "FAIL: 2-node smoke evaluated %zu "
                             "hierarchical candidates and produced "
                             "%zu windows\n",
                             hier, mresult.windows.size());
                return 1;
            }
            std::printf("2-node smoke OK: %zu hierarchical "
                        "candidates evaluated on %s, %zu windows\n",
                        hier, mresult.topologyName.c_str(),
                        mresult.windows.size());
        }
        return 0;
    } catch (const Error &error) {
        std::fprintf(stderr, "mscclang_search: %s\n", error.what());
        return 1;
    }
}
