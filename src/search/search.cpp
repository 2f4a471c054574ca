#include "search/search.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "collectives/classic.h"
#include "collectives/collectives.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "compiler/plan_cache.h"
#include "runtime/communicator.h"

namespace mscclang {

namespace {

/** True when the family honors the channels/aggregate knobs. */
bool
isRingFamily(AlgoFamily family)
{
    return family == AlgoFamily::Ring ||
        family == AlgoFamily::RingAllGather;
}

/** True when the family honors the hierSplit knob. */
bool
isHierFamily(AlgoFamily family)
{
    return family == AlgoFamily::Hierarchical ||
        family == AlgoFamily::HierarchicalAllGather;
}

bool
isPowerOfTwo(int n)
{
    return n >= 1 && (n & (n - 1)) == 0;
}

/** Families implementing @p collective, in enumeration order. */
std::vector<AlgoFamily>
familiesFor(const std::string &collective)
{
    if (collective == "allreduce") {
        return { AlgoFamily::Ring, AlgoFamily::AllPairs,
                 AlgoFamily::Tree, AlgoFamily::Rabenseifner,
                 AlgoFamily::Hierarchical };
    }
    if (collective == "allgather") {
        return { AlgoFamily::RingAllGather,
                 AlgoFamily::RecDoubleAllGather,
                 AlgoFamily::HierarchicalAllGather };
    }
    throw Error(strprintf("searchSchedules: unknown collective '%s' "
                          "(expected allreduce or allgather)",
                          collective.c_str()));
}

/** Structural filter: can @p family run on this machine shape at
 *  all? (Whether a specific knob combination compiles is decided
 *  later, by actually compiling it.) */
bool
familyFitsTopology(AlgoFamily family, const Topology &topology)
{
    int ranks = topology.numRanks();
    switch (family) {
    case AlgoFamily::Ring:
    case AlgoFamily::RingAllGather:
    case AlgoFamily::AllPairs:
        return ranks >= 2;
    case AlgoFamily::Tree:
        return ranks >= 2;
    case AlgoFamily::Rabenseifner:
    case AlgoFamily::RecDoubleAllGather:
        return ranks >= 2 && isPowerOfTwo(ranks);
    case AlgoFamily::Hierarchical:
    case AlgoFamily::HierarchicalAllGather:
        return topology.numNodes() >= 2;
    }
    return false;
}

/** Minimal JSON string escape (labels are plain ASCII, but a report
 *  writer must never emit syntactically broken output). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
            out += strprintf("\\u%04x", c);
            continue;
        }
        out.push_back(c);
    }
    return out;
}

std::string
joinTimes(const std::vector<double> &times_us)
{
    std::string out;
    for (size_t i = 0; i < times_us.size(); i++) {
        if (i)
            out += ", ";
        out += strprintf("%.3f", times_us[i]);
    }
    return out;
}

} // namespace

const char *
algoFamilyName(AlgoFamily family)
{
    switch (family) {
    case AlgoFamily::Ring:
        return "Ring";
    case AlgoFamily::AllPairs:
        return "AllPairs";
    case AlgoFamily::Tree:
        return "Tree";
    case AlgoFamily::Rabenseifner:
        return "Rabenseifner";
    case AlgoFamily::Hierarchical:
        return "Hierarchical";
    case AlgoFamily::RingAllGather:
        return "RingAllGather";
    case AlgoFamily::RecDoubleAllGather:
        return "RecDoublingAllGather";
    case AlgoFamily::HierarchicalAllGather:
        return "HierAllGather";
    }
    return "?";
}

const char *
algoFamilyCollective(AlgoFamily family)
{
    switch (family) {
    case AlgoFamily::Ring:
    case AlgoFamily::AllPairs:
    case AlgoFamily::Tree:
    case AlgoFamily::Rabenseifner:
    case AlgoFamily::Hierarchical:
        return "allreduce";
    case AlgoFamily::RingAllGather:
    case AlgoFamily::RecDoubleAllGather:
    case AlgoFamily::HierarchicalAllGather:
        return "allgather";
    }
    return "?";
}

std::string
candidateLabel(const ScheduleCandidate &spec)
{
    std::string label = algoFamilyName(spec.family);
    if (isRingFamily(spec.family))
        label += strprintf(" ch%d", spec.channels);
    label += strprintf(" r%d", spec.instances);
    if (spec.parallelize > 1)
        label += strprintf(" p%d", spec.parallelize);
    if (spec.aggregate > 1)
        label += strprintf(" a%d", spec.aggregate);
    if (spec.hierSplit > 0)
        label += strprintf(" h%d", spec.hierSplit);
    label += strprintf(" %s", protocolName(spec.protocol));
    return label;
}

std::unique_ptr<Program>
buildCandidate(const ScheduleCandidate &spec, const Topology &topology)
{
    AlgoConfig config;
    config.instances = spec.instances;
    config.protocol = spec.protocol;
    config.parallelize = spec.parallelize;
    config.aggregate = spec.aggregate;
    config.hierSplit = spec.hierSplit;
    int ranks = topology.numRanks();
    switch (spec.family) {
    case AlgoFamily::Ring:
        return makeRingAllReduce(ranks, spec.channels, config);
    case AlgoFamily::AllPairs:
        return makeAllPairsAllReduce(ranks, config);
    case AlgoFamily::Tree:
        return makeDoubleBinaryTreeAllReduce(ranks, config);
    case AlgoFamily::Rabenseifner:
        return makeRabenseifnerAllReduce(ranks, config);
    case AlgoFamily::Hierarchical:
        // Intra-node phases chunk-parallelized by the local GPU
        // count, the paper's §5.1 choice; the config's parallelize
        // knob still wraps the whole trace on top of it.
        return makeHierarchicalAllReduce(topology.numNodes(),
                                         topology.gpusPerNode(),
                                         topology.gpusPerNode(),
                                         config);
    case AlgoFamily::RingAllGather:
        return makeRingAllGather(ranks, spec.channels, config);
    case AlgoFamily::RecDoubleAllGather:
        return makeRecursiveDoublingAllGather(ranks, config);
    case AlgoFamily::HierarchicalAllGather:
        return makeHierarchicalAllGather(topology.numNodes(),
                                         topology.gpusPerNode(),
                                         config);
    }
    throw Error("buildCandidate: unknown algorithm family");
}

std::vector<ScheduleCandidate>
enumerateCandidates(const std::string &collective,
                    const Topology &topology,
                    const SearchOptions &options)
{
    std::vector<ScheduleCandidate> candidates;
    // Fixed nesting order (family, channels, parallelize, instances,
    // protocol, aggregate, hierSplit) defines the enumeration index
    // every downstream tie-break refers to.
    for (AlgoFamily family : familiesFor(collective)) {
        if (!familyFitsTopology(family, topology))
            continue;
        bool ring = isRingFamily(family);
        // Families that cannot honor a knob get it pinned to its
        // neutral value instead of crossed, so a knob the trace does
        // not carry can never mint spurious "variants" of the same
        // schedule.
        std::vector<int> channels =
            ring ? options.channels : std::vector<int>{ 1 };
        std::vector<int> aggregates =
            ring ? options.aggregates : std::vector<int>{ 1 };
        std::vector<int> hier_splits = isHierFamily(family)
            ? options.hierSplits
            : std::vector<int>{ 0 };
        for (int ch : channels) {
            for (int par : options.parallelize) {
                for (int inst : options.instances) {
                    for (Protocol proto : options.protocols) {
                        for (int agg : aggregates) {
                            for (int split : hier_splits) {
                                ScheduleCandidate spec;
                                spec.family = family;
                                spec.channels = ch;
                                spec.parallelize = par;
                                spec.instances = inst;
                                spec.protocol = proto;
                                spec.aggregate = agg;
                                spec.hierSplit = split;
                                candidates.push_back(spec);
                            }
                        }
                    }
                }
            }
        }
    }

    if (options.maxCandidates > 0 &&
        candidates.size() > options.maxCandidates) {
        // Seeded Fisher-Yates prefix picks which points survive the
        // cap; re-sorting the chosen indices restores enumeration
        // order so pareto/window tie-breaks stay independent of the
        // sampling shuffle.
        std::vector<size_t> order(candidates.size());
        std::iota(order.begin(), order.end(), size_t{ 0 });
        Rng rng(options.seed);
        for (size_t i = 0; i < options.maxCandidates; i++) {
            size_t j = i +
                static_cast<size_t>(
                    rng.nextBelow(order.size() - i));
            std::swap(order[i], order[j]);
        }
        order.resize(options.maxCandidates);
        std::sort(order.begin(), order.end());
        std::vector<ScheduleCandidate> sampled;
        sampled.reserve(order.size());
        for (size_t index : order)
            sampled.push_back(candidates[index]);
        candidates = std::move(sampled);
    }
    return candidates;
}

SearchResult
searchSchedules(const Topology &topology, const std::string &collective,
                const SearchOptions &options)
{
    SearchResult result;
    result.collective = collective;
    result.topologyName = topology.name();
    result.seed = options.seed;

    std::vector<ScheduleCandidate> specs =
        enumerateCandidates(collective, topology, options);
    result.enumerated = specs.size();
    if (specs.empty()) {
        throw RuntimeError(strprintf(
            "searchSchedules: no %s candidates fit topology %s",
            collective.c_str(), topology.name().c_str()));
    }

    // Compile every candidate through the content-addressed plan
    // cache. Identical schedules reached through different knob
    // spellings collapse onto one plan key and are simulated once;
    // candidates this machine cannot trace or compile are skipped
    // and counted, never silently dropped.
    CompileOptions copts;
    copts.topology = &topology;
    std::vector<IrProgram> irs;
    std::vector<std::uint64_t> seen_keys;
    for (const ScheduleCandidate &spec : specs) {
        std::unique_ptr<Program> program;
        std::uint64_t key = 0;
        try {
            program = buildCandidate(spec, topology);
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
    }
    if (result.evaluated.empty()) {
        throw RuntimeError(strprintf(
            "searchSchedules: every %s candidate failed to compile "
            "on topology %s",
            collective.c_str(), topology.name().c_str()));
    }

    result.sizes = tuneSweepSizes(options.fromBytes, options.toBytes);
    TuneOptions topts;
    topts.fromBytes = options.fromBytes;
    topts.toBytes = options.toBytes;
    topts.maxTilesPerChunk = options.maxTilesPerChunk;
    topts.threads = options.threads;
    topts.simThreads = options.simThreads;
    std::vector<const IrProgram *> pointers;
    pointers.reserve(irs.size());
    for (const IrProgram &ir : irs)
        pointers.push_back(&ir);
    std::vector<std::vector<double>> times =
        sweepCandidateTimesUs(topology, pointers, result.sizes, topts);
    for (size_t c = 0; c < result.evaluated.size(); c++)
        result.evaluated[c].timesUs = times[c];

    // Pareto prune. B is dominated when some A is no slower at every
    // sweep size and either strictly faster somewhere, or equal
    // everywhere with a lower enumeration index (exact-tie
    // duplicates keep exactly one representative — the earliest).
    size_t n = result.evaluated.size();
    for (size_t b = 0; b < n; b++) {
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

void
installTuned(Communicator &comm, const SearchResult &result)
{
    if (result.frontier.empty() || result.frontierIr.empty() ||
        result.windows.empty()) {
        throw RuntimeError(strprintf(
            "installTuned: search for %s on %s produced an empty "
            "frontier; refusing to leave the communicator "
            "unconfigured",
            result.collective.c_str(), result.topologyName.c_str()));
    }
    registerTuned(comm, result.frontierIr, result.windows);
}

std::string
frontierToJson(const SearchResult &result)
{
    std::string out = "{\n";
    out += strprintf("  \"collective\": \"%s\",\n",
                     jsonEscape(result.collective).c_str());
    out += strprintf("  \"topology\": \"%s\",\n",
                     jsonEscape(result.topologyName).c_str());
    out += strprintf("  \"seed\": %llu,\n",
                     static_cast<unsigned long long>(result.seed));
    out += strprintf("  \"enumerated\": %zu,\n", result.enumerated);
    out += strprintf("  \"evaluated\": %zu,\n",
                     result.evaluated.size());
    out += strprintf("  \"deduped\": %zu,\n", result.deduped);
    out += strprintf("  \"skipped\": %zu,\n", result.skipped);
    out += "  \"sizes\": [";
    for (size_t i = 0; i < result.sizes.size(); i++) {
        out += strprintf(
            "%s%llu", i ? ", " : "",
            static_cast<unsigned long long>(result.sizes[i]));
    }
    out += "],\n  \"candidates\": [\n";
    for (size_t c = 0; c < result.evaluated.size(); c++) {
        const CandidateResult &cand = result.evaluated[c];
        out += strprintf(
            "    {\"label\": \"%s\", \"family\": \"%s\", "
            "\"channels\": %d, \"parallelize\": %d, "
            "\"instances\": %d, \"protocol\": \"%s\", "
            "\"aggregate\": %d, \"hierSplit\": %d, "
            "\"planKey\": \"%016llx\", "
            "\"frontier\": %s, \"timesUs\": [%s]}%s\n",
            jsonEscape(cand.label).c_str(),
            algoFamilyName(cand.spec.family), cand.spec.channels,
            cand.spec.parallelize, cand.spec.instances,
            protocolName(cand.spec.protocol), cand.spec.aggregate,
            cand.spec.hierSplit,
            static_cast<unsigned long long>(cand.planKey),
            cand.onFrontier ? "true" : "false",
            joinTimes(cand.timesUs).c_str(),
            c + 1 < result.evaluated.size() ? "," : "");
    }
    out += "  ],\n  \"windows\": [\n";
    for (size_t w = 0; w < result.windows.size(); w++) {
        const TunedWindow &window = result.windows[w];
        const std::string &label =
            result.frontierIr[static_cast<size_t>(window.candidate)]
                .name;
        out += strprintf(
            "    {\"minBytes\": %llu, \"maxBytes\": %llu, "
            "\"label\": \"%s\", \"timeUs\": %.3f}%s\n",
            static_cast<unsigned long long>(window.minBytes),
            static_cast<unsigned long long>(window.maxBytes),
            jsonEscape(label).c_str(), window.timeUs,
            w + 1 < result.windows.size() ? "," : "");
    }
    out += "  ]\n}\n";
    return out;
}

std::string
frontierToCsv(const SearchResult &result)
{
    std::string out = "label,family,channels,parallelize,instances,"
                      "protocol,aggregate,hierSplit,planKey,frontier";
    for (std::uint64_t size : result.sizes) {
        out += strprintf(",us@%llu",
                         static_cast<unsigned long long>(size));
    }
    out += "\n";
    for (const CandidateResult &cand : result.evaluated) {
        out += strprintf(
            "%s,%s,%d,%d,%d,%s,%d,%d,%016llx,%d", cand.label.c_str(),
            algoFamilyName(cand.spec.family), cand.spec.channels,
            cand.spec.parallelize, cand.spec.instances,
            protocolName(cand.spec.protocol), cand.spec.aggregate,
            cand.spec.hierSplit,
            static_cast<unsigned long long>(cand.planKey),
            cand.onFrontier ? 1 : 0);
        for (double us : cand.timesUs)
            out += strprintf(",%.3f", us);
        out += "\n";
    }
    return out;
}

std::vector<ScheduleCandidate>
handTunedAllReduceCandidates()
{
    // The picks bench/explore_allreduce_algos shipped with before the
    // search existed: "Ring ch4 r8 LL128", "AllPairs r4 LL",
    // "Tree r4 LL", "Rabenseifner r4 LL".
    ScheduleCandidate ring;
    ring.family = AlgoFamily::Ring;
    ring.channels = 4;
    ring.instances = 8;
    ring.protocol = Protocol::LL128;
    ScheduleCandidate allpairs;
    allpairs.family = AlgoFamily::AllPairs;
    allpairs.instances = 4;
    allpairs.protocol = Protocol::LL;
    ScheduleCandidate tree;
    tree.family = AlgoFamily::Tree;
    tree.instances = 4;
    tree.protocol = Protocol::LL;
    ScheduleCandidate rab;
    rab.family = AlgoFamily::Rabenseifner;
    rab.instances = 4;
    rab.protocol = Protocol::LL;
    return { ring, allpairs, tree, rab };
}

} // namespace mscclang
