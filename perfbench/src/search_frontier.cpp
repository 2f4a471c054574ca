/**
 * @file
 * search-frontier: searchSchedules over the full allreduce schedule
 * space on ndv4:1, with a fixed sweep-thread count. This is the only
 * workload with many small compiles, plan-cache deduplication and the
 * tuner's worker pool; it exposes the per-compile fixed overhead that
 * compile-scale's huge programs hide. Every timed search starts from
 * an empty plan cache.
 *
 * The seed is the search's seed, and it also raises the whole size
 * sweep (1 KiB to 64 MiB, 17 points) by up to 1/16, so runs with
 * different seeds cost the frontier at different points of the same
 * curves.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "compiler/plan_cache.h"
#include "harness.h"
#include "search/search.h"

namespace perfbench {

using namespace mscclang;

namespace {

const char *const kCollective = "allreduce";

SearchOptions
searchOptions(std::uint64_t seed, int threads)
{
    SearchOptions options;
    Rng rng(seed);
    options.fromBytes = 1024 + 64 * rng.nextBelow(1024) / 1024;
    options.toBytes = options.fromBytes << 16;
    options.threads = threads;
    options.seed = seed;
    return options;
}

TuneOptions
tuneOptions(const SearchOptions &options)
{
    TuneOptions topts;
    topts.fromBytes = options.fromBytes;
    topts.toBytes = options.toBytes;
    topts.maxTilesPerChunk = options.maxTilesPerChunk;
    topts.threads = options.threads;
    topts.simThreads = options.simThreads;
    topts.parallelInterp = options.parallelInterp;
    return topts;
}

/** Best time at each swept size among @p times' rows. */
std::vector<double>
bestPerSize(const std::vector<std::vector<double>> &times)
{
    std::vector<double> best(times.front().size(), 1e300);
    for (const std::vector<double> &row : times) {
        for (size_t i = 0; i < row.size(); i++)
            best[i] = std::min(best[i], row[i]);
    }
    return best;
}

std::vector<double>
frontierBest(const SearchResult &result)
{
    std::vector<std::vector<double>> rows;
    for (size_t index : result.frontier)
        rows.push_back(result.evaluated[index].timesUs);
    return bestPerSize(rows);
}

/**
 * searchSchedules() decomposed into its public steps, in its order:
 * enumerate, build + plan-cache key, compile through the plan cache,
 * sweep, pareto prune + merge. The pareto rule is searchSchedules'
 * own (it has no public entry point); the caller checks the report is
 * byte-identical to the composite's. Fills @p programs with the
 * evaluated candidates' traced programs.
 */
SearchResult
searchBySteps(const Topology &topo, const SearchOptions &options,
              Tracer &tracer, std::vector<std::unique_ptr<Program>> &programs)
{
    SearchResult result;
    result.collective = kCollective;
    result.topologyName = topo.name();
    result.seed = options.seed;
    std::vector<ScheduleCandidate> specs = [&] {
        Scope span(tracer, "search.enumerate");
        return enumerateCandidates(kCollective, topo, options);
    }();
    result.enumerated = specs.size();

    CompileOptions copts;
    copts.topology = &topo;
    std::vector<IrProgram> irs;
    std::vector<std::uint64_t> seen_keys;
    programs.clear();
    for (const ScheduleCandidate &spec : specs) {
        std::unique_ptr<Program> program;
        std::uint64_t key = 0;
        try {
            Scope span(tracer, "dsl.trace");
            program = buildCandidate(spec, topo);
            key = planCacheKey(*program, copts);
        } catch (const Error &) {
            result.skipped++;
            continue;
        }
        if (std::find(seen_keys.begin(), seen_keys.end(), key) !=
            seen_keys.end()) {
            result.deduped++;
            continue;
        }
        Compiled compiled;
        try {
            Scope span(tracer, "search.compile");
            compiled = PlanCache::global().compile(*program, copts);
        } catch (const Error &) {
            result.skipped++;
            continue;
        }
        seen_keys.push_back(key);
        CandidateResult cand;
        cand.spec = spec;
        cand.label = candidateLabel(spec);
        cand.planKey = key;
        result.evaluated.push_back(std::move(cand));
        irs.push_back(std::move(compiled.ir));
        programs.push_back(std::move(program));
    }
    if (result.evaluated.empty())
        throw RuntimeError("search-frontier: no candidate compiled");

    result.sizes = tuneSweepSizes(options.fromBytes, options.toBytes);
    std::vector<const IrProgram *> pointers;
    for (const IrProgram &ir : irs)
        pointers.push_back(&ir);
    std::vector<std::vector<double>> times = [&] {
        Scope span(tracer, "runtime.tuner.sweep");
        return sweepCandidateTimesUs(topo, pointers, result.sizes,
                                     tuneOptions(options));
    }();

    Scope span(tracer, "search.merge");
    size_t n = times.size();
    for (size_t b = 0; b < n; b++) {
        result.evaluated[b].timesUs = times[b];
        bool dominated = false;
        for (size_t a = 0; a < n && !dominated; a++) {
            if (a == b)
                continue;
            bool all_leq = true;
            bool any_less = false;
            for (size_t i = 0; i < result.sizes.size(); i++) {
                if (times[a][i] > times[b][i]) {
                    all_leq = false;
                    break;
                }
                if (times[a][i] < times[b][i])
                    any_less = true;
            }
            dominated = all_leq && (any_less || a < b);
        }
        if (!dominated) {
            result.evaluated[b].onFrontier = true;
            result.frontier.push_back(b);
        }
    }
    std::vector<std::vector<double>> frontier_times;
    for (size_t index : result.frontier) {
        IrProgram ir = irs[index];
        ir.name = result.evaluated[index].label;
        result.frontierIr.push_back(std::move(ir));
        frontier_times.push_back(times[index]);
    }
    result.windows = mergeTunedWindows(result.sizes, frontier_times);
    return result;
}

} // namespace

Outcome
runSearchFrontier(const Options &options)
{
    Outcome out;
    Tracer tracer(false);
    int threads = benchThreads();
    SearchOptions sopts = searchOptions(options.seed, threads);
    std::unique_ptr<Topology> topo;
    std::vector<double> hand_best;

    // Set-up: the machine and the hand-tuned picks' costs at the
    // search's sizes (the bar the frontier must meet).
    auto setup = [&] {
        topo = std::make_unique<Topology>(makeNdv4(1));
        CompileOptions copts;
        copts.topology = topo.get();
        std::vector<IrProgram> hand;
        for (const ScheduleCandidate &spec : handTunedAllReduceCandidates()) {
            std::unique_ptr<Program> program = [&] {
                Scope span(tracer, "dsl.trace");
                return buildCandidate(spec, *topo);
            }();
            hand.push_back(compilePlan(*program, copts, tracer, false));
        }
        std::vector<const IrProgram *> pointers;
        for (const IrProgram &ir : hand)
            pointers.push_back(&ir);
        TuneOptions serial = tuneOptions(sopts);
        serial.threads = 1;
        Scope span(tracer, "runtime.tuner.sweep");
        hand_best = bestPerSize(sweepCandidateTimesUs(
            *topo, pointers, tuneSweepSizes(sopts.fromBytes, sopts.toBytes),
            serial));
    };

    double phase_s = options.trace ? options.seconds / 2 : options.seconds;
    SearchResult result;
    RunTimes run = measureRun(phase_s, 3, setup, [&] {
        PlanCache::global().clear();
        double start = nowS();
        result = searchSchedules(*topo, kCollective, sopts);
        return nowS() - start;
    });
    out.endToEnd["setup_s"] = run.setupS;
    report("setup_s", run.setupS, "s");
    const std::vector<double> &iters = run.iters;
    double host_s = median(iters);
    out.endToEnd["host_s"] = host_s;
    report("search_s", host_s, "s");
    std::printf("# %zu timed searches, %d sweep threads; enumerated %zu "
                "evaluated %zu deduped %zu skipped %zu frontier %zu\n",
                iters.size(), threads, result.enumerated,
                result.evaluated.size(), result.deduped, result.skipped,
                result.frontier.size());
    // Candidates that cannot compile are the search's compile
    // failures: counted, not a failed check.
    out.attempted += result.evaluated.size() + result.skipped;
    out.failed += result.skipped;

    std::vector<double> best = frontierBest(result);
    for (size_t i = 0; i < best.size(); i++) {
        out.attempted++;
        if (best[i] > hand_best[i])
            out.fail(strprintf("frontier %.3f us slower than hand-tuned "
                               "%.3f us at %llu bytes",
                               best[i], hand_best[i],
                               static_cast<unsigned long long>(
                                   result.sizes[i])));
    }
    std::string json = frontierToJson(result);
    SearchOptions serial = sopts;
    serial.threads = 1;
    out.attempted++;
    if (frontierToJson(searchSchedules(*topo, kCollective, serial)) != json)
        out.fail("frontier differs between 1 and N sweep threads");
    else
        std::printf("# frontier byte-identical at 1 and %d sweep threads "
                    "(hash %016llx)\n",
                    threads, static_cast<unsigned long long>(fnv1a(json)));

    setSimulatedMetrics(out, best,
                        std::accumulate(result.sizes.begin(),
                                        result.sizes.end(), 0.0),
                        "frontier_us_geomean");

    if (!options.trace)
        return out;

    // Traced repetitions: the decomposed search from a cold cache; then
    // a warm re-search (plan-cache hit ratio), a probe of plans still
    // cached (cost of a hit), and a pass-by-pass compile of every
    // candidate (compiler pass split on small programs).
    tracer.setOn(true);
    double traced_setup = timeSetup(setup);
    tracer.closeSetupRep();
    std::vector<double> hit_ms;
    bool identical = true;
    std::vector<double> traced_iters = timedLoop(phase_s, 1, [&] {
        PlanCache &cache = PlanCache::global();
        cache.clear();
        std::vector<std::unique_ptr<Program>> programs;
        double start = nowS();
        SearchResult traced = searchBySteps(*topo, sopts, tracer, programs);
        double elapsed = nowS() - start;
        if (frontierToJson(traced) != json) {
            identical = false;
            out.fail("decomposed search differs from searchSchedules");
        }
        tracer.count("search.candidates_evaluated",
                     static_cast<double>(traced.evaluated.size()));
        tracer.count("search.deduped", static_cast<double>(traced.deduped));
        // A warm re-search: how many of its compiles the plan cache
        // answers.
        std::size_t hits = cache.hits(), misses = cache.misses();
        searchSchedules(*topo, kCollective, sopts);
        tracer.count("plan_cache.hits",
                     static_cast<double>(cache.hits() - hits));
        tracer.count("compiler.plan_cache.misses",
                     static_cast<double>(cache.misses() - misses));
        // Cost of a hit: re-request plans newest first and stop at the
        // first one the cache no longer holds.
        CompileOptions copts;
        copts.topology = topo.get();
        for (auto it = programs.rbegin(); it != programs.rend(); ++it) {
            std::size_t before = cache.hits();
            double t0 = nowS();
            compileProgramCached(**it, copts);
            if (cache.hits() == before)
                break;
            hit_ms.push_back((nowS() - t0) * 1e3);
        }
        for (const auto &program : programs)
            compileByPasses(*program, copts, tracer);
        tracer.closeRep();
        return elapsed;
    });
    if (identical)
        std::printf("# decomposed search byte-identical to "
                    "searchSchedules\n");
    reportOverhead(out.endToEnd["setup_s"], traced_setup, host_s,
                   median(traced_iters));
    out.perLayer["compiler.plan_cache.hit_ms"] = median(hit_ms);
    collectLayers(tracer, out);
    printSelfTimes(tracer);
    return out;
}

} // namespace perfbench
