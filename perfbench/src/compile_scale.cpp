/**
 * @file
 * compile-scale: cold compiles of three large programs from source to
 * a verified, race-checked plan, bypassing the plan cache.
 *
 *  - ring allreduce, 256 ranks: O(N^2) instructions load lowering and
 *    scheduling;
 *  - hierarchical allreduce, 64 nodes x 8 GPUs, and the fig8e
 *    two-step alltoall, 32 nodes x 8 GPUs: the race check's worst
 *    cases.
 *
 * The timed loop simulates nothing, so a simulator-only change leaves
 * host_s unchanged. After the loop each plan runs once in timing mode
 * at two seeded sizes: the run time of the generated code.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "collectives/collectives.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "harness.h"

namespace perfbench {

using namespace mscclang;

namespace {

struct Plan
{
    const char *name;
    std::function<std::unique_ptr<Program>()> trace;
    /** Machine the plan is simulated on (and, for fig8e, compiled
     *  against). */
    const Topology *machine;
    bool compileAgainstMachine;
    int maxThreadBlocks;
};

struct Machines
{
    Topology ndv4x32 = makeNdv4(32);
    Topology ndv4x64 = makeNdv4(64);
};

std::vector<Plan>
makeMix(const Machines &machines, std::uint64_t seed)
{
    AlgoConfig plain;
    std::vector<Plan> mix = {
        { "ring_allreduce_256",
          [plain] { return makeRingAllReduce(256, 1, plain); },
          &machines.ndv4x32, false, 1024 },
        { "hierarchical_allreduce_64x8",
          [plain] { return makeHierarchicalAllReduce(64, 8, 1, plain); },
          &machines.ndv4x64, false, 1024 },
        { "twostep_alltoall_32x8",
          [plain] { return makeTwoStepAllToAll(32, 8, plain); },
          &machines.ndv4x32, true, 108 },
    };
    // The seed only permutes the compile order.
    Rng rng(seed);
    for (size_t i = mix.size() - 1; i > 0; i--)
        std::swap(mix[i], mix[rng.nextBelow(i + 1)]);
    return mix;
}

CompileOptions
optionsFor(const Plan &plan)
{
    CompileOptions options;
    options.verify = true;
    options.maxThreadBlocks = plan.maxThreadBlocks;
    if (plan.compileAgainstMachine)
        options.topology = plan.machine;
    return options;
}

/** One cold pass over the mix; returns each plan's IR XML. */
std::vector<std::string>
compileMix(const std::vector<Plan> &mix, Tracer &tracer, Outcome &out)
{
    std::vector<std::string> xml;
    for (const Plan &plan : mix) {
        out.attempted++;
        try {
            std::unique_ptr<Program> program = [&] {
                Scope span(tracer, "dsl.trace");
                return plan.trace();
            }();
            IrProgram ir =
                compilePlan(*program, optionsFor(plan), tracer, true);
            xml.push_back(ir.toXml());
        } catch (const Error &e) {
            out.fail(strprintf("%s: %s", plan.name, e.what()));
            xml.emplace_back();
        }
    }
    return xml;
}

/** Simulated microseconds of each plan at its seeded sizes. */
std::vector<double>
simulateMix(const std::vector<Plan> &mix,
            const std::vector<IrProgram> &plans,
            const std::vector<std::uint64_t> &sizes, Tracer &tracer,
            double *payload_bytes)
{
    std::vector<double> times;
    *payload_bytes = 0.0;
    for (size_t p = 0; p < mix.size(); p++) {
        for (std::uint64_t bytes : sizes) {
            times.push_back(simulateUs(*mix[p].machine, { &plans[p] },
                                       bytes, 1, tracer));
            *payload_bytes += static_cast<double>(bytes);
        }
    }
    return times;
}

} // namespace

Outcome
runCompileScale(const Options &options)
{
    Outcome out;
    Tracer tracer(false);
    std::unique_ptr<Machines> machines;
    std::vector<Plan> mix;
    std::vector<std::unique_ptr<Program>> programs;

    // Set-up: the machine models and one trace of the mix, kept for
    // the post-loop checks and simulations.
    auto setup = [&] {
        // Drop the previous set-up's state first, so a repeated set-up
        // does not hold two copies at once.
        programs.clear();
        mix.clear();
        machines.reset();
        machines = std::make_unique<Machines>();
        mix = makeMix(*machines, options.seed);
        Scope span(tracer, "dsl.trace");
        for (const Plan &plan : mix)
            programs.push_back(plan.trace());
    };

    double phase_s = options.trace ? options.seconds / 2 : options.seconds;
    std::vector<std::string> xml;
    RunTimes run = measureRun(phase_s, 2, setup, [&] {
        double start = nowS();
        xml = compileMix(mix, tracer, out);
        return nowS() - start;
    });
    out.endToEnd["setup_s"] = run.setupS;
    report("setup_s", run.setupS, "s");
    const std::vector<double> &iters = run.iters;
    double host_s = median(iters);
    out.endToEnd["host_s"] = host_s;
    report("plan_verified_s", host_s, "s");
    std::printf("# %zu timed iterations\n", iters.size());

    // Pass-by-pass pipeline vs compileProgram: byte-identical XML.
    std::vector<IrProgram> plans;
    for (size_t p = 0; p < mix.size(); p++) {
        out.attempted++;
        try {
            plans.push_back(
                compileByPasses(*programs[p], optionsFor(mix[p]), tracer));
        } catch (const Error &e) {
            out.fail(strprintf("%s pass-by-pass: %s", mix[p].name, e.what()));
            return out;
        }
        std::string by_passes = plans.back().toXml();
        std::printf("ir %-28s hash %016llx instructions %d\n", mix[p].name,
                    static_cast<unsigned long long>(fnv1a(by_passes)),
                    plans.back().totalInstructions());
        if (by_passes != xml[p])
            out.fail(strprintf("%s: pass-by-pass XML differs from "
                               "compileProgram's", mix[p].name));
    }

    // Run time of the generated code: each plan at a small and a large
    // size, each raised by up to 1/16 by the seed.
    Rng rng(options.seed ^ 0x5ca1ab1eULL);
    std::vector<std::uint64_t> sizes;
    for (std::uint64_t base : { std::uint64_t{ 256 } << 10,
                                std::uint64_t{ 64 } << 20 })
        sizes.push_back(base + base / 16 * rng.nextBelow(1024) / 1024);
    double payload = 0.0;
    std::vector<double> sim_us = simulateMix(mix, plans, sizes, tracer,
                                             &payload);
    out.attempted += sim_us.size();
    setSimulatedMetrics(out, sim_us, payload, "collective_us_geomean");

    if (!options.trace)
        return out;

    // Traced run: one traced set-up, traced iterations through the
    // pass-by-pass pipeline, traced simulations.
    tracer.setOn(true);
    double traced_setup = timeSetup(setup);
    tracer.closeSetupRep();
    std::vector<double> traced_iters = timedLoop(phase_s, 1, [&] {
        double start = nowS();
        std::vector<std::string> traced_xml = compileMix(mix, tracer, out);
        double elapsed = nowS() - start;
        tracer.closeRep();
        if (traced_xml != xml)
            out.fail("traced pipeline XML differs from compileProgram's");
        return elapsed;
    });
    std::vector<double> traced_sim = simulateMix(mix, plans, sizes, tracer,
                                                 &payload);
    tracer.closeRep();
    if (traced_sim != sim_us)
        out.fail("simulated times differ between traced and untraced runs");
    else
        std::printf("# simulated metrics equal in traced and untraced runs\n");
    reportOverhead(out.endToEnd["setup_s"], traced_setup, host_s,
                   median(traced_iters));
    collectLayers(tracer, out);
    printSelfTimes(tracer);
    return out;
}

} // namespace perfbench
