/**
 * @file
 * Shared machinery of the perfbench binary: command-line options,
 * host clocks, span tracing with self-time attribution, medians and
 * nearest-rank percentiles, the pass-by-pass compile pipeline, and
 * the final one-line JSON result.
 *
 * Every workload reports the same end-to-end metric set (see
 * perfbench/README.md for how each workload fills it) and, in a
 * traced run, the same per-layer metric set; layers a workload never
 * enters read 0.
 */

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "dsl/program.h"
#include "ir/ir.h"
#include "sim/profile.h"
#include "topology/topology.h"

namespace perfbench {

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Host seconds on the steady clock. */
double nowS();

/** Worker threads the benchmark may use: min(4, hardware threads). */
int benchThreads();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Nearest-rank percentile @p p in (0, 100] of @p values. */
double nearestRank(std::vector<double> values, double p);

/** Geometric mean of positive @p values (0 when empty). */
double geomean(const std::vector<double> &values);

/** FNV-1a 64-bit hash of @p text. */
std::uint64_t fnv1a(const std::string &text);

/**
 * Span recorder. Spans nest on the driving thread; a span's self time
 * is its duration minus the time its direct children cover. Work is
 * grouped into repetitions: timed iterations (closeRep) and set-ups
 * (closeSetupRep), kept apart. A layer's value is its median over the
 * timed iterations in which it appeared; a layer only set-up enters
 * reads its median over the set-ups. A disabled tracer reads no
 * clocks.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }
    void setOn(bool on) { on_ = on; }

    int begin(const char *name);
    void end(int span);

    /** Adds @p value to counter @p name in the current repetition. */
    void count(const std::string &name, double value);

    /** Closes the current repetition as a timed iteration. */
    void closeRep();
    /** Closes the current repetition as a set-up. */
    void closeSetupRep();

    /** Median over repetitions of a layer's total span seconds. */
    double spanTotal(const std::string &name) const;
    /** Median over repetitions of a layer's self seconds. */
    double spanSelf(const std::string &name) const;
    /** Median over repetitions of a counter. */
    double counter(const std::string &name) const;

    /** Every span name recorded so far. */
    std::vector<std::string> spanNames() const;

  private:
    struct Span
    {
        const char *name;
        int parent;
        double start;
        double end;
    };

    /** Per-repetition values by layer name. */
    struct Reps
    {
        std::map<std::string, std::vector<double>> totals;
        std::map<std::string, std::vector<double>> selfs;
        std::map<std::string, std::vector<double>> counters;
    };

    void close(Reps &into);
    /** Median of @p name in the timed iterations, else in the
     *  set-ups (0 when neither recorded it). */
    double medianOf(std::map<std::string, std::vector<double>> Reps::*field,
                    const std::string &name) const;

    bool on_;
    std::vector<Span> spans_;
    int current_ = -1;
    std::map<std::string, double> repCounters_;
    Reps iters_;
    Reps setups_;
};

/** RAII span; a disabled tracer makes it a no-op. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name)
        : tracer_(tracer), span_(tracer.begin(name)) {}
    ~Scope() { tracer_.end(span_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int span_;
};

/**
 * Compiles @p program. Untraced, this is compileProgram(). Traced,
 * it calls the public passes compileProgram() is made of, in its
 * order, each under its own span, and records the IR size after each
 * pass. compile-scale checks the two paths emit byte-identical XML.
 * With @p race_check the union-find race check runs on the result.
 */
mscclang::IrProgram compilePlan(const mscclang::Program &program,
                                const mscclang::CompileOptions &options,
                                Tracer &tracer, bool race_check);

/** The pass-by-pass pipeline, always decomposed (see compilePlan). */
mscclang::IrProgram compileByPasses(const mscclang::Program &program,
                                    const mscclang::CompileOptions &options,
                                    Tracer &tracer);

/** Adds a SimProfile's phase times and counters to the tracer's
 *  sim.* counters for the current repetition. */
void recordProfile(Tracer &tracer, const mscclang::SimProfile &profile);

/**
 * Runs @p kernels back to back on a fresh communicator in timing mode
 * (one kernel: runProgram; several: runComposed) and returns the
 * simulated microseconds. Traced, the run gets a span
 * (runtime.interpreter.run), its message and wire-byte counts, and a
 * SimProfile.
 */
double simulateUs(const mscclang::Topology &topology,
                  const std::vector<const mscclang::IrProgram *> &kernels,
                  std::uint64_t bytes, int max_tiles, Tracer &tracer);

/** Everything a workload reports. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** End-to-end metric values by name (untraced runs). */
    std::map<std::string, double> endToEnd;
    /** Per-layer metric values by name (traced runs). */
    std::map<std::string, double> perLayer;

    /** Records a failed correctness check and prints why. */
    void fail(const std::string &why);
};

/** Prints a named metric line of the human-readable report. */
void report(const std::string &name, double value, const char *unit);

/**
 * Sets and prints the simulated end-to-end metrics of a workload where
 * nothing can fail: geomean and nearest-rank p50/p99 of @p us (one
 * simulated time per collective, microseconds), availability 1, and
 * @p payload_bytes (their summed per-rank sizes) over their summed
 * time. @p geomean_name is the name the report prints the geomean
 * under.
 */
void setSimulatedMetrics(Outcome &out, const std::vector<double> &us,
                         double payload_bytes, const char *geomean_name);

/** Prints the tracing overhead: traced minus untraced set-up and
 *  host time. */
void reportOverhead(double setup_s, double traced_setup_s, double host_s,
                    double traced_host_s);

/** Fills @p out.perLayer from the tracer's span and counter medians. */
void collectLayers(const Tracer &tracer, Outcome &out);

/** Prints the self-time table of every traced layer. */
void printSelfTimes(const Tracer &tracer);

/** Prints the final JSON line for @p out; returns whether the run
 *  is correct (every check passed and every metric is finite). */
bool printResult(const Options &options, const Outcome &out);

/** Host seconds of one call of @p setup. */
template <typename S>
double
timeSetup(S &&setup)
{
    double start = nowS();
    setup();
    return nowS() - start;
}

/**
 * Runs @p iteration until @p seconds of host time have passed (and
 * at least @p min_iters times); returns the per-iteration host
 * seconds @p iteration reports.
 */
template <typename F>
std::vector<double>
timedLoop(double seconds, int min_iters, F &&iteration)
{
    std::vector<double> times;
    double start = nowS();
    while (static_cast<int>(times.size()) < min_iters ||
           nowS() - start < seconds)
        times.push_back(iteration());
    return times;
}

/** Set-up repetitions per run: set-up time is their median. */
constexpr int kSetupReps = 5;

/** What measureRun() measured. */
struct RunTimes
{
    /** Median host seconds of the kSetupReps set-ups. */
    double setupS = 0.0;
    /** Host seconds each timed iteration reported. */
    std::vector<double> iters;
};

/**
 * The untraced measurement of a workload. @p setup runs kSetupReps
 * times: first, then between timed iterations each time another
 * 1/(kSetupReps - 1) of @p seconds has passed, then after the loop
 * until all have run, so its median samples the same host phases as
 * the loop (co-tenant load on a shared host shifts over seconds).
 * @p iteration runs as in timedLoop(); set-up time is not part of any
 * iteration's time.
 */
template <typename S, typename F>
RunTimes
measureRun(double seconds, int min_iters, S &&setup, F &&iteration)
{
    std::vector<double> setups = { timeSetup(setup) };
    double start = nowS();
    double share = seconds / (kSetupReps - 1);
    RunTimes run;
    run.iters = timedLoop(seconds, min_iters, [&] {
        double elapsed = iteration();
        double since = nowS() - start;
        if (static_cast<int>(setups.size()) < kSetupReps &&
            since >= share * static_cast<double>(setups.size()))
            setups.push_back(timeSetup(setup));
        return elapsed;
    });
    while (static_cast<int>(setups.size()) < kSetupReps)
        setups.push_back(timeSetup(setup));
    run.setupS = median(setups);
    return run;
}

Outcome runCompileScale(const Options &options);
Outcome runPaperSweep(const Options &options);
Outcome runReplayStorm(const Options &options);
Outcome runSearchFrontier(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H_
