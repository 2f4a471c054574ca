/**
 * @file
 * The content-addressed plan cache: a warm hit must be byte-identical
 * (same toXml()) to the cold compile for every collective the repo
 * ships, keys must separate anything that can change the compiled
 * plan (algorithm config via the trace, compile options, topology),
 * and the on-disk spill must round-trip, reject corrupt or stale
 * entries by recompiling, and never change observable results.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collectives/classic.h"
#include "collectives/collectives.h"
#include "common/strings.h"
#include "compiler/chunk_dag.h"
#include "compiler/plan_cache.h"
#include "search/search.h"
#include "topology/topology.h"

namespace mscclang {
namespace {

struct Case
{
    const char *name;
    std::function<std::unique_ptr<Program>()> make;
    /** Null topology unless the algorithm is machine-specific. */
    bool dgx1Topology = false;
};

const Topology &
dgx1()
{
    static Topology topo = makeDgx1();
    return topo;
}

/** Every collective family in src/collectives/. */
std::vector<Case>
allCollectives()
{
    AlgoConfig plain;
    AlgoConfig i2;
    i2.instances = 2;
    AlgoConfig ll;
    ll.protocol = Protocol::LL;
    ll.instances = 2;
    return {
        { "ring_allreduce",
          [=] { return makeRingAllReduce(8, 2, i2); } },
        { "ring_allreduce_oop",
          [=] { return makeRingAllReduceOutOfPlace(8, 2, i2); } },
        { "allpairs_allreduce",
          [=] { return makeAllPairsAllReduce(8, ll); } },
        { "hierarchical_allreduce",
          [=] { return makeHierarchicalAllReduce(2, 4, 2, plain); } },
        { "twostep_alltoall",
          [=] { return makeTwoStepAllToAll(2, 4, plain); } },
        { "naive_alltoall",
          [=] { return makeNaiveAllToAll(8, plain); } },
        { "alltonext",
          [=] { return makeAllToNext(2, 4, plain); } },
        { "naive_alltonext",
          [=] { return makeNaiveAllToNext(2, 4, plain); } },
        { "ring_allgather",
          [=] { return makeRingAllGather(8, 2, i2); } },
        { "ring_allreduce_over",
          [=] {
              return makeRingAllReduceOver({ 0, 2, 1, 3 }, 1, plain);
          } },
        { "ring_allgather_over",
          [=] {
              return makeRingAllGatherOver({ 3, 1, 2, 0 }, 1, plain);
          } },
        { "sccl122_allgather",
          [=] { return makeSccl122AllGather(dgx1(), plain); }, true },
        { "dbt_allreduce",
          [=] { return makeDoubleBinaryTreeAllReduce(16, ll); } },
        { "rh_reducescatter",
          [=] { return makeRecursiveHalvingReduceScatter(8, plain); } },
        { "rd_allgather",
          [=] { return makeRecursiveDoublingAllGather(8, plain); } },
        { "rabenseifner_allreduce",
          [=] { return makeRabenseifnerAllReduce(8, plain); } },
        { "ring_broadcast",
          [=] { return makeRingBroadcast(8, 0, 4, plain); } },
        { "binomial_broadcast",
          [=] { return makeBinomialBroadcast(8, 0, plain); } },
        { "hierarchical_allgather",
          [=] { return makeHierarchicalAllGather(2, 4, plain); } },
    };
}

CompileOptions
optionsFor(const Case &c)
{
    CompileOptions copts;
    if (c.dgx1Topology)
        copts.topology = &dgx1();
    return copts;
}

/** RAII MSCCLANG_PLAN_CACHE_DIR pointing at a fresh temp dir. */
class SpillDir
{
  public:
    SpillDir()
    {
        path_ = testing::TempDir() + "mscclang_plan_cache_" +
            std::to_string(::getpid());
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
        ::setenv("MSCCLANG_PLAN_CACHE_DIR", path_.c_str(), 1);
    }
    ~SpillDir()
    {
        ::unsetenv("MSCCLANG_PLAN_CACHE_DIR");
        std::filesystem::remove_all(path_);
    }
    const std::string &path() const { return path_; }

    std::string
    planFile(std::uint64_t key) const
    {
        char name[64];
        std::snprintf(name, sizeof name, "plan-%016llx.xml",
                      static_cast<unsigned long long>(key));
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::string out((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    return out;
}

// The compiler's linear critical path must equal the Chunk DAG's,
// which it replaces on the compile path.
TEST(ChunkDag, LinearCriticalPathMatchesDag)
{
    for (const Case &c : allCollectives()) {
        SCOPED_TRACE(c.name);
        std::unique_ptr<Program> prog = c.make();
        EXPECT_EQ(chunkCriticalPath(*prog),
                  ChunkDag(*prog).criticalPathLength());
    }

    // Hand-built corner cases of the access analysis.
    std::vector<std::pair<const char *, std::function<void(Program &)>>>
        bodies = {
        { "empty", [](Program &) {} },
        { "in_place_output_aliases_input",
          [](Program &p) {
              // Rank 1's Output 0 is its Input 0: the read of Input 0
              // must follow the write through the Output name.
              p.chunk(0, BufferKind::Input, 0)
                  .copy(1, BufferKind::Output, 0);
              p.chunk(1, BufferKind::Input, 0)
                  .copy(2, BufferKind::Scratch, 0);
              p.chunk(2, BufferKind::Scratch, 0)
                  .copy(2, BufferKind::Output, 0);
          } },
        { "local_reduce_reads_its_destination",
          [](Program &p) {
              p.chunk(1, BufferKind::Input, 0)
                  .copy(0, BufferKind::Scratch, 0);
              // Depends on the copy through its destination operand.
              p.chunk(0, BufferKind::Scratch, 0)
                  .reduce(p.chunk(0, BufferKind::Input, 0));
              p.chunk(0, BufferKind::Scratch, 0)
                  .copy(2, BufferKind::Scratch, 0);
          } },
        { "copy_onto_its_own_slice",
          [](Program &p) {
              p.chunk(1, BufferKind::Input, 1)
                  .copy(0, BufferKind::Input, 1);
              p.chunk(0, BufferKind::Input, 1)
                  .copy(0, BufferKind::Input, 1);
              p.chunk(0, BufferKind::Input, 1)
                  .copy(0, BufferKind::Output, 1);
              p.chunk(0, BufferKind::Input, 1)
                  .copy(2, BufferKind::Scratch, 0);
          } },
        { "multi_count_slices",
          [](Program &p) {
              p.chunk(0, BufferKind::Input, 0, 2)
                  .copy(1, BufferKind::Scratch, 0);
              p.chunk(2, BufferKind::Input, 1, 2)
                  .copy(1, BufferKind::Scratch, 1);
              // Reads the first write's chunk 0 and the second's
              // chunks 1 and 2.
              p.chunk(1, BufferKind::Scratch, 0, 3)
                  .copy(2, BufferKind::Scratch, 0);
              p.chunk(1, BufferKind::Scratch, 2)
                  .reduce(p.chunk(0, BufferKind::Input, 2));
              p.chunk(1, BufferKind::Input, 0, 3)
                  .copy(1, BufferKind::Scratch, 3);
          } },
    };
    for (const auto &[name, body] : bodies) {
        SCOPED_TRACE(name);
        Program prog(std::make_shared<AllReduceCollective>(3, 3));
        body(prog);
        ChunkDag dag(prog);
        EXPECT_EQ(chunkCriticalPath(prog), dag.criticalPathLength());
        if (std::string(name) != "empty") {
            EXPECT_GT(dag.criticalPathLength(), 1);
        }
    }
}

TEST(PlanCache, WarmHitIsByteIdenticalForEveryCollective)
{
    for (const Case &c : allCollectives()) {
        SCOPED_TRACE(c.name);
        CompileOptions copts = optionsFor(c);
        std::string cold =
            compileProgram(*c.make(), copts).ir.toXml();

        PlanCache cache(64);
        Compiled first = cache.compile(*c.make(), copts);
        Compiled warm = cache.compile(*c.make(), copts);
        EXPECT_EQ(cache.misses(), 1u);
        EXPECT_EQ(cache.hits(), 1u);
        EXPECT_EQ(warm.ir.toXml(), cold);
        // Memory hits carry the full original stats.
        EXPECT_EQ(warm.stats.totalInstructions,
                  first.stats.totalInstructions);
        EXPECT_EQ(warm.stats.instrsAfterFusion,
                  first.stats.instrsAfterFusion);
        EXPECT_EQ(warm.stats.channels, first.stats.channels);
    }
}

TEST(PlanCache, HitReturnsAnIsolatedCopy)
{
    // baselines.cpp renames out.ir after compiling; a later hit must
    // not observe the caller's mutation.
    PlanCache cache(8);
    AlgoConfig plain;
    Compiled a = cache.compile(*makeNaiveAllToAll(4, plain));
    std::string original_name = a.ir.name;
    a.ir.name = "mutated_by_caller";
    Compiled b = cache.compile(*makeNaiveAllToAll(4, plain));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(b.ir.name, original_name);
}

TEST(PlanCache, KeySeparatesAlgoConfig)
{
    // AlgoConfig is baked into the trace, so differing configs must
    // produce differing program fingerprints.
    AlgoConfig plain;
    AlgoConfig i2;
    i2.instances = 2;
    AlgoConfig ll;
    ll.protocol = Protocol::LL;
    CompileOptions copts;
    std::uint64_t base =
        planCacheKey(*makeRingAllReduce(8, 2, plain), copts);
    EXPECT_NE(base, planCacheKey(*makeRingAllReduce(8, 2, i2), copts));
    EXPECT_NE(base, planCacheKey(*makeRingAllReduce(8, 2, ll), copts));
    EXPECT_NE(base, planCacheKey(*makeRingAllReduce(8, 4, plain), copts));
    EXPECT_NE(base, planCacheKey(*makeRingAllReduce(16, 2, plain), copts));
    EXPECT_NE(base,
              planCacheKey(*makeRingAllGather(8, 2, plain), copts));
}

TEST(PlanCache, KeySeparatesEverySearchKnob)
{
    // Satellite of the schedule search: every knob the candidate
    // generator varies (channels, parallelize, instances, protocol,
    // aggregation) must feed the content key, so two candidates
    // differing in exactly one knob can never collide in the cache
    // and silently reuse each other's plan.
    Topology topo = makeNdv4(1);
    CompileOptions copts;
    copts.topology = &topo;
    ScheduleCandidate base;
    base.family = AlgoFamily::Ring;
    base.channels = 2;
    base.parallelize = 1;
    base.instances = 2;
    base.protocol = Protocol::LL;
    base.aggregate = 1;

    std::vector<ScheduleCandidate> variants(6, base);
    variants[1].channels = 4;
    variants[2].parallelize = 2;
    variants[3].instances = 4;
    variants[4].protocol = Protocol::LL128;
    variants[5].aggregate = 2;

    std::vector<std::uint64_t> keys;
    for (const ScheduleCandidate &spec : variants)
        keys.push_back(
            planCacheKey(*buildCandidate(spec, topo), copts));
    for (size_t a = 0; a < keys.size(); a++)
        for (size_t b = a + 1; b < keys.size(); b++)
            EXPECT_NE(keys[a], keys[b])
                << candidateLabel(variants[a]) << " vs "
                << candidateLabel(variants[b]);

    // And the same knob spelled twice keys identically (the dedup
    // the search relies on).
    EXPECT_EQ(keys[0],
              planCacheKey(*buildCandidate(base, topo), copts));
}

TEST(PlanCache, KeySeparatesCompileOptions)
{
    AlgoConfig plain;
    auto prog = makeRingAllReduce(8, 2, plain);
    CompileOptions base;
    std::uint64_t key = planCacheKey(*prog, base);

    CompileOptions no_fuse = base;
    no_fuse.fuse = false;
    EXPECT_NE(key, planCacheKey(*prog, no_fuse));

    CompileOptions no_verify = base;
    no_verify.verify = false;
    EXPECT_NE(key, planCacheKey(*prog, no_verify));

    CompileOptions tbs = base;
    tbs.maxThreadBlocks = 7;
    EXPECT_NE(key, planCacheKey(*prog, tbs));

    CompileOptions slots = base;
    slots.verifySlots = 1;
    EXPECT_NE(key, planCacheKey(*prog, slots));
}

TEST(PlanCache, KeySeparatesTopology)
{
    AlgoConfig plain;
    auto prog = makeRingAllReduce(8, 1, plain);
    Topology ndv4 = makeNdv4(1);
    Topology dgx2 = makeDgx2(1);

    CompileOptions none;
    CompileOptions with_ndv4;
    with_ndv4.topology = &ndv4;
    CompileOptions with_dgx2;
    with_dgx2.topology = &dgx2;

    std::uint64_t k_none = planCacheKey(*prog, none);
    std::uint64_t k_ndv4 = planCacheKey(*prog, with_ndv4);
    std::uint64_t k_dgx2 = planCacheKey(*prog, with_dgx2);
    EXPECT_NE(k_none, k_ndv4);
    EXPECT_NE(k_none, k_dgx2);
    EXPECT_NE(k_ndv4, k_dgx2);

    // A degraded machine (the replan path) must not collide with the
    // healthy one.
    EXPECT_NE(fingerprintTopology(ndv4),
              fingerprintTopology(ndv4.degraded({ Link{ 0, 1 } })));
}

TEST(PlanCache, KeySeparatesNodeAndRailStructure)
{
    // Two machines with byte-identical resource sets and link
    // matrices but different node boundaries: 2x4 vs 4x2 over the
    // same 8 ranks, every pair connected through the same per-rank
    // egress/ingress resources. Schedulers key decisions on nodeOf,
    // so the fingerprints must not collide.
    auto build = [](int nodes, int gpus) {
        Topology topo("uniform", nodes, gpus, MachineParams{});
        int ranks = topo.numRanks();
        std::vector<ResourceId> out(ranks), in(ranks);
        for (int r = 0; r < ranks; r++) {
            out[r] = topo.addResource(strprintf("out[%d]", r), 100.0);
            in[r] = topo.addResource(strprintf("in[%d]", r), 100.0);
        }
        for (int src = 0; src < ranks; src++) {
            for (int dst = 0; dst < ranks; dst++) {
                if (src == dst)
                    continue;
                Route route;
                route.type = LinkType::NvLink;
                route.resources = { out[src], in[dst] };
                route.extraLatencyUs = 1.0;
                topo.setRoute(src, dst, route);
            }
        }
        return topo;
    };
    Topology two_by_four = build(2, 4);
    Topology four_by_two = build(4, 2);
    EXPECT_NE(fingerprintTopology(two_by_four),
              fingerprintTopology(four_by_two));

    // Same shape, different rail maps: a rank's NIC assignment
    // changes which inter-node rings are rail-aligned.
    Topology paired = build(2, 4);
    paired.setRailLayout(TopologyVariant::Flat, 2, { 0, 0, 1, 1 });
    Topology striped = build(2, 4);
    striped.setRailLayout(TopologyVariant::Flat, 2, { 0, 1, 0, 1 });
    EXPECT_NE(fingerprintTopology(paired),
              fingerprintTopology(striped));

    // Variant alone separates too (flat vs rail NDv4 differ in
    // resources as well, but the tag itself is hashed).
    EXPECT_NE(fingerprintTopology(makeNdv4(2)),
              fingerprintTopology(makeNdv4(2, TopologyVariant::Rail)));
}

TEST(PlanCache, LruEvictsLeastRecentlyUsed)
{
    AlgoConfig plain;
    PlanCache cache(1);
    cache.compile(*makeNaiveAllToAll(2, plain));
    cache.compile(*makeNaiveAllToAll(4, plain)); // evicts the 2-rank
    cache.compile(*makeNaiveAllToAll(2, plain));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 3u);
}

TEST(PlanCache, DiskSpillRoundTripsAcrossCacheInstances)
{
    SpillDir dir;
    AlgoConfig i2;
    i2.instances = 2;
    auto make = [&] { return makeRingAllReduce(8, 2, i2); };
    CompileOptions copts;
    std::uint64_t key = planCacheKey(*make(), copts);

    PlanCache writer(8);
    std::string cold = writer.compile(*make(), copts).ir.toXml();
    ASSERT_TRUE(std::filesystem::exists(dir.planFile(key)));

    // A fresh cache (new process, conceptually) loads from disk
    // instead of compiling, byte-identically.
    PlanCache reader(8);
    Compiled warm = reader.compile(*make(), copts);
    EXPECT_EQ(reader.diskHits(), 1u);
    EXPECT_EQ(warm.ir.toXml(), cold);
    // Disk hits reconstruct the IR-derivable stats.
    EXPECT_GT(warm.stats.totalInstructions, 0);
    EXPECT_GT(warm.stats.channels, 0);
}

TEST(PlanCache, CorruptDiskEntryFallsBackToFreshCompile)
{
    SpillDir dir;
    AlgoConfig plain;
    auto make = [&] { return makeNaiveAllToAll(4, plain); };
    CompileOptions copts;
    std::uint64_t key = planCacheKey(*make(), copts);
    std::string cold = compileProgram(*make(), copts).ir.toXml();

    {
        std::ofstream out(dir.planFile(key));
        out << "<mscclang-this-is-not-xml";
    }
    PlanCache cache(8);
    Compiled got = cache.compile(*make(), copts);
    EXPECT_EQ(cache.diskHits(), 0u);
    EXPECT_EQ(got.ir.toXml(), cold);
    // The corrupt entry was overwritten with a valid plan.
    EXPECT_EQ(slurp(dir.planFile(key)), cold);
}

TEST(PlanCache, MismatchedDiskEntryFallsBackToFreshCompile)
{
    // A parseable file whose shape does not match the request (stale
    // key collision, foreign file) must be ignored, not trusted.
    SpillDir dir;
    AlgoConfig plain;
    auto make = [&] { return makeNaiveAllToAll(4, plain); };
    CompileOptions copts;
    std::uint64_t key = planCacheKey(*make(), copts);
    std::string cold = compileProgram(*make(), copts).ir.toXml();

    std::string other =
        compileProgram(*makeRingAllGather(8, 2, plain)).ir.toXml();
    {
        std::ofstream out(dir.planFile(key));
        out << other;
    }
    PlanCache cache(8);
    Compiled got = cache.compile(*make(), copts);
    EXPECT_EQ(cache.diskHits(), 0u);
    EXPECT_EQ(got.ir.toXml(), cold);
    EXPECT_EQ(slurp(dir.planFile(key)), cold);
}

TEST(PlanCache, GlobalEntryPointIsCoherent)
{
    AlgoConfig plain;
    CompileOptions copts;
    std::string a =
        compileProgramCached(*makeNaiveAllToAll(2, plain), copts)
            .ir.toXml();
    std::string b =
        compileProgramCached(*makeNaiveAllToAll(2, plain), copts)
            .ir.toXml();
    std::string cold =
        compileProgram(*makeNaiveAllToAll(2, plain), copts).ir.toXml();
    EXPECT_EQ(a, cold);
    EXPECT_EQ(b, cold);
}

} // namespace
} // namespace mscclang
