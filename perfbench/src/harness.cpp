#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "compiler/chunk_dag.h"
#include "compiler/instr_graph.h"
#include "compiler/schedule.h"
#include "compiler/verifier.h"
#include "common/error.h"
#include "common/strings.h"
#include "runtime/communicator.h"

namespace perfbench {

using namespace mscclang;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Order and units match BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    { "setup_s", "s" },
    { "peak_rss_mb", "MB" },
    { "host_s", "s" },
    { "collective_us_geomean", "us" },
    { "fleet_p50_us", "us" },
    { "fleet_p99_us", "us" },
    { "availability", "fraction" },
    { "goodput_gbps", "GB/s" },
};

const MetricDef kPerLayer[] = {
    { "dsl.trace_s", "s" },
    { "compiler.chunk_dag_s", "s" },
    { "compiler.lower_s", "s" },
    { "compiler.fuse_s", "s" },
    { "compiler.schedule_s", "s" },
    { "compiler.verify_ir_s", "s" },
    { "compiler.race_check_s", "s" },
    { "compiler.instrs_lowered", "count" },
    { "compiler.instrs_fused", "count" },
    { "compiler.ir_instructions", "count" },
    { "compiler.thread_blocks", "count" },
    { "compiler.plan_cache.hit_ms", "ms" },
    { "compiler.plan_cache.hit_ratio", "ratio" },
    { "compiler.plan_cache.misses", "count" },
    { "runtime.interpreter.run_s", "s" },
    { "runtime.interpreter.runs", "count" },
    { "sim.event_queue_s", "s" },
    { "sim.flow_network_s", "s" },
    { "sim.flow_callbacks_s", "s" },
    { "sim.interp_parallel_s", "s" },
    { "sim.interp_merge_s", "s" },
    { "sim.serial_events", "count" },
    { "sim.flow_batches", "count" },
    { "runtime.messages", "count" },
    { "runtime.wire_bytes", "bytes" },
    { "baselines.build_s", "s" },
    { "baselines.speedup_geomean", "x" },
    { "workload.register_plans_s", "s" },
    { "workload.slo_report_s", "s" },
    { "runtime.retries", "count" },
    { "runtime.backoffs", "count" },
    { "runtime.replans", "count" },
    { "runtime.fallbacks", "count" },
    { "runtime.replan_compiles", "count" },
    { "runtime.health.quarantine_changes", "count" },
    { "workload.faults_fired", "count" },
    { "search.enumerate_s", "s" },
    { "search.compile_s", "s" },
    { "runtime.tuner.sweep_s", "s" },
    { "search.merge_s", "s" },
    { "search.candidates_evaluated", "count" },
    { "search.deduped", "count" },
};

/** Span name of a "<layer>_s" time metric: the name without "_s". */
std::string
spanOf(const std::string &metric)
{
    return metric.substr(0, metric.size() - 2);
}

bool
isTimeMetric(const MetricDef &def)
{
    return std::string(def.unit) == "s";
}

} // namespace

double
nowS()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

int
benchThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
nearestRank(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    rank = std::clamp<size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

int
Tracer::begin(const char *name)
{
    if (!on_)
        return -1;
    spans_.push_back(Span{ name, current_, nowS(), 0.0 });
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
Tracer::end(int span)
{
    if (span < 0)
        return;
    spans_[span].end = nowS();
    current_ = spans_[span].parent;
}

void
Tracer::count(const std::string &name, double value)
{
    if (on_)
        repCounters_[name] += value;
}

void
Tracer::closeRep()
{
    close(iters_);
}

void
Tracer::closeSetupRep()
{
    close(setups_);
}

void
Tracer::close(Reps &into)
{
    std::map<std::string, double> total, self;
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            child_time[span.parent] += span.end - span.start;
    }
    for (size_t i = 0; i < spans_.size(); i++) {
        double duration = spans_[i].end - spans_[i].start;
        total[spans_[i].name] += duration;
        self[spans_[i].name] += duration - child_time[i];
    }
    for (const auto &[name, value] : total)
        into.totals[name].push_back(value);
    for (const auto &[name, value] : self)
        into.selfs[name].push_back(value);
    for (const auto &[name, value] : repCounters_)
        into.counters[name].push_back(value);
    spans_.clear();
    repCounters_.clear();
    current_ = -1;
}

double
Tracer::medianOf(std::map<std::string, std::vector<double>> Reps::*field,
                 const std::string &name) const
{
    for (const Reps *reps : { &iters_, &setups_ }) {
        auto it = (reps->*field).find(name);
        if (it != (reps->*field).end())
            return median(it->second);
    }
    return 0.0;
}

double
Tracer::spanTotal(const std::string &name) const
{
    return medianOf(&Reps::totals, name);
}

double
Tracer::spanSelf(const std::string &name) const
{
    return medianOf(&Reps::selfs, name);
}

double
Tracer::counter(const std::string &name) const
{
    return medianOf(&Reps::counters, name);
}

std::vector<std::string>
Tracer::spanNames() const
{
    std::set<std::string> names;
    for (const Reps *reps : { &iters_, &setups_ }) {
        for (const auto &entry : reps->totals)
            names.insert(entry.first);
    }
    return { names.begin(), names.end() };
}

IrProgram
compileByPasses(const Program &program, const CompileOptions &options,
                Tracer &tracer)
{
    // The steps of compileProgram(), in its order.
    {
        Scope span(tracer, "compiler.chunk_dag");
        ChunkDag dag(program);
        (void)dag.criticalPathLength();
    }
    InstrGraph graph = [&] {
        Scope span(tracer, "compiler.lower");
        return lowerProgram(program);
    }();
    tracer.count("compiler.instrs_lowered", graph.numLive());

    if (options.topology != nullptr) {
        Scope span(tracer, "compiler.link_check");
        const Topology &topo = *options.topology;
        if (topo.numRanks() != program.numRanks()) {
            throw CompileError(strprintf(
                "topology has %d ranks but the program uses %d",
                topo.numRanks(), program.numRanks()));
        }
        for (const InstrNode &node : graph.nodes()) {
            if (node.live && node.sendPeer >= 0 &&
                !topo.connected(node.rank, node.sendPeer)) {
                throw CompileError(strprintf(
                    "program sends %d -> %d without a direct link",
                    node.rank, node.sendPeer));
            }
        }
    }

    if (options.fuse) {
        Scope span(tracer, "compiler.fuse");
        fuseInstructions(graph);
    }
    tracer.count("compiler.instrs_fused", graph.numLive());

    ScheduleOptions sched;
    sched.maxThreadBlocks = options.maxThreadBlocks;
    sched.topology = options.topology;
    IrProgram ir = [&] {
        Scope span(tracer, "compiler.schedule");
        return scheduleProgram(program, graph, sched);
    }();
    int thread_blocks = 0;
    for (const IrGpu &gpu : ir.gpus)
        thread_blocks += static_cast<int>(gpu.threadBlocks.size());
    tracer.count("compiler.ir_instructions", ir.totalInstructions());
    tracer.count("compiler.thread_blocks", thread_blocks);

    if (options.verify) {
        Scope span(tracer, "compiler.verify_ir");
        VerifyOptions verify;
        verify.slots = options.verifySlots;
        verifyIr(ir, program.collective(), verify);
    }
    return ir;
}

IrProgram
compilePlan(const Program &program, const CompileOptions &options,
            Tracer &tracer, bool race_check)
{
    IrProgram ir = tracer.on() ? compileByPasses(program, options, tracer)
                               : compileProgram(program, options).ir;
    if (race_check) {
        Scope span(tracer, "compiler.race_check");
        verifyRaceFree(ir, benchThreads());
    }
    return ir;
}

void
recordProfile(Tracer &tracer, const SimProfile &profile)
{
    tracer.count("sim.event_queue_s", profile.eventQueueNs * 1e-9);
    tracer.count("sim.flow_network_s", profile.flowNetworkNs * 1e-9);
    tracer.count("sim.flow_callbacks_s", profile.flowCallbacksNs * 1e-9);
    tracer.count("sim.interp_parallel_s", profile.interpParallelNs * 1e-9);
    tracer.count("sim.interp_merge_s", profile.interpMergeNs * 1e-9);
    tracer.count("sim.serial_events",
                 static_cast<double>(profile.serialEvents));
    tracer.count("sim.flow_batches", static_cast<double>(profile.flowBatches));
}

double
simulateUs(const Topology &topology,
           const std::vector<const IrProgram *> &kernels,
           std::uint64_t bytes, int max_tiles, Tracer &tracer)
{
    Communicator comm(topology);
    SimProfile profile;
    RunOptions run;
    run.bytes = bytes;
    run.maxTilesPerChunk = max_tiles;
    run.profile = tracer.on() ? &profile : nullptr;
    RunResult result;
    {
        Scope span(tracer, "runtime.interpreter.run");
        result = kernels.size() == 1 ? comm.runProgram(*kernels[0], run)
                                     : comm.runComposed(kernels, run);
    }
    if (result.stats.aborted)
        throw RuntimeError("simulation aborted: " + result.stats.abortReason);
    tracer.count("runtime.interpreter.runs", 1);
    tracer.count("runtime.messages",
                 static_cast<double>(result.stats.messages));
    tracer.count("runtime.wire_bytes", result.stats.wireBytes);
    recordProfile(tracer, profile);
    return result.timeUs;
}

void
Outcome::fail(const std::string &why)
{
    correct = false;
    failed++;
    std::printf("check FAILED: %s\n", why.c_str());
    std::fflush(stdout);
}

void
report(const std::string &name, double value, const char *unit)
{
    std::printf("metric %-34s %.6g %s\n", name.c_str(), value, unit);
    std::fflush(stdout);
}

void
setSimulatedMetrics(Outcome &out, const std::vector<double> &us,
                    double payload_bytes, const char *geomean_name)
{
    double sum_us = 0.0;
    for (double v : us)
        sum_us += v;
    out.endToEnd["collective_us_geomean"] = geomean(us);
    out.endToEnd["fleet_p50_us"] = nearestRank(us, 50);
    out.endToEnd["fleet_p99_us"] = nearestRank(us, 99);
    out.endToEnd["availability"] = 1.0;
    out.endToEnd["goodput_gbps"] = payload_bytes / sum_us / 1e3;
    report(geomean_name, out.endToEnd["collective_us_geomean"], "us");
    report("fleet_p50_us", out.endToEnd["fleet_p50_us"], "us");
    report("fleet_p99_us", out.endToEnd["fleet_p99_us"], "us");
    report("goodput_gbps", out.endToEnd["goodput_gbps"], "GB/s");
}

void
reportOverhead(double setup_s, double traced_setup_s, double host_s,
               double traced_host_s)
{
    std::printf("overhead setup_s %+.6f s\n", traced_setup_s - setup_s);
    std::printf("overhead host_s %+.6f s\n", traced_host_s - host_s);
}

void
collectLayers(const Tracer &tracer, Outcome &out)
{
    // Hits over lookups of the plan-cache counters the workload
    // recorded.
    double hits = tracer.counter("plan_cache.hits");
    double lookups = hits + tracer.counter("compiler.plan_cache.misses");
    out.perLayer.emplace("compiler.plan_cache.hit_ratio",
                         lookups > 0 ? hits / lookups : 0.0);
    for (const MetricDef &def : kPerLayer) {
        if (out.perLayer.count(def.name))
            continue;
        out.perLayer[def.name] = isTimeMetric(def)
            ? tracer.spanTotal(spanOf(def.name)) +
                  tracer.counter(def.name)
            : tracer.counter(def.name);
    }
}

void
printSelfTimes(const Tracer &tracer)
{
    std::printf("# traced layers: median per repetition, host seconds\n");
    std::printf("%-28s %12s %12s\n", "span", "total_s", "self_s");
    for (const std::string &name : tracer.spanNames()) {
        std::printf("%-28s %12.6f %12.6f\n", name.c_str(),
                    tracer.spanTotal(name), tracer.spanSelf(name));
    }
    std::fflush(stdout);
}

bool
printResult(const Options &options, const Outcome &out)
{
    const MetricDef *defs = options.trace ? kPerLayer : kEndToEnd;
    size_t count = options.trace ? std::size(kPerLayer)
                                 : std::size(kEndToEnd);
    const auto &values = options.trace ? out.perLayer : out.endToEnd;
    bool correct = out.correct;
    std::string metrics;
    for (size_t i = 0; i < count; i++) {
        auto it = values.find(defs[i].name);
        double value = it == values.end() ? 0.0 : it->second;
        if (it == values.end() || !std::isfinite(value)) {
            std::printf("check FAILED: metric %s missing or not finite\n",
                        defs[i].name);
            correct = false;
            value = 0.0;
        }
        if (i)
            metrics += ", ";
        metrics += strprintf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             defs[i].name, value, defs[i].unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    std::fflush(stdout);
    return correct;
}

} // namespace perfbench
