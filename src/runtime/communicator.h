/**
 * @file
 * The MSCCLang runtime entry point (paper §6): an NCCL-like
 * communicator that holds registered MSCCL-IR algorithms with the
 * buffer-size windows they are tuned for, dynamically selects the
 * right algorithm per invocation, and falls back to a built-in
 * (NCCL-model) implementation otherwise. Also provides the composed
 * multi-kernel execution path used by the paper's baselines (one
 * kernel launch per collective, no cross-kernel pipelining).
 *
 * Self-healing (DESIGN.md "Self-healing"): every run feeds a
 * LinkHealthMonitor from the fired fault events and the watchdog's
 * blocked-link attribution. When a link's error score quarantines
 * it, the communicator stops selecting algorithm windows that cross
 * it and — when a replanner is registered — recompiles the
 * collective through the normal compiler pipeline (verifier
 * included) against Topology::degraded() with the quarantined links
 * removed, caching the result per (collective, dead-link-set).
 * Aborts with only transient evidence (stalls/degrades below the
 * quarantine threshold) retry the same algorithm after a
 * deterministic bounded exponential backoff instead of immediately
 * abandoning it. Recovery is progress-aware: only programs that
 * mutate their input (in-place reductions) pay for a DataStore
 * snapshot and rollback; copy-only collectives (allgather,
 * broadcast, alltoall) are simply re-executed. That policy lives in
 * one place, Recovery (runtime/recovery.h), which both run() and the
 * workload replayer drive.
 */

#ifndef MSCCLANG_RUNTIME_COMMUNICATOR_H_
#define MSCCLANG_RUNTIME_COMMUNICATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dsl/program.h"
#include "ir/ir.h"
#include "runtime/health.h"
#include "runtime/interpreter.h"
#include "topology/topology.h"

namespace mscclang {

/** Options of one collective invocation. */
struct RunOptions
{
    /** Input buffer bytes per rank. */
    std::uint64_t bytes = 1 << 20;
    /** Move real floats (tests/examples) instead of just timing. */
    bool dataMode = false;
    /** Pipeline tile cap per chunk (see ExecOptions). */
    int maxTilesPerChunk = 16;
    /** Watchdog knobs, forwarded to the interpreter (see
     *  ExecOptions); both 0 leaves the watchdog off. */
    double watchdogTimeoutUs = 0.0;
    double watchdogNoProgressUs = 0.0;
    /**
     * Total kernel attempts Communicator::run may make when the
     * watchdog aborts. After each abort the communicator picks the
     * best remaining option: a registered window avoiding the
     * quarantined links, a recompiled degraded-topology plan, a
     * backoff retry of the same algorithm (transient evidence only),
     * or the registered fallback (the paper's NCCL role). Faults
     * that already fired are treated as transient — consumed by the
     * aborted attempt — so the retry replays only the not-yet-fired
     * remainder of the schedule.
     */
    int maxAttempts = 2;
    /** Worker threads for the simulation's shard batches (see
     *  ExecOptions::simThreads). */
    int simThreads = 1;
    /** Wall-clock phase accounting (see ExecOptions::profile). Not
     *  owned; null disables. */
    SimProfile *profile = nullptr;
};

/**
 * Ceiling on the accumulated time totals a RunResult reports,
 * microseconds (~31 years of simulated time). Retry storms with
 * enormous backoff budgets accumulate with saturating arithmetic
 * against this cap instead of silently overflowing toward inf.
 */
constexpr double kMaxAccountedUs = 1e15;

/**
 * @p a + @p b clamped to [0, kMaxAccountedUs]. NaN contributions are
 * dropped (a NaN total would poison every later accumulation), and
 * negative inputs clamp to 0 — accumulated durations never regress.
 */
double saturatingAddUs(double a, double b);

/** @p count + 1 without wrapping past INT_MAX. */
int saturatingIncrement(int count);

/** Result of one collective invocation. */
struct RunResult
{
    /** Duration of the final (successful) kernel attempt. */
    double timeUs = 0.0;
    std::string algorithm;
    ExecStats stats;
    /** Kernel attempts made (> 1 means the watchdog fired). */
    int attempts = 1;
    /** Fault events that activated across all attempts. */
    int faultsSeen = 0;
    /** True when the run needed more than one attempt — the
     *  degradation record the caller can alert on. */
    bool degraded = false;
    /** True when the successful attempt ran a recompiled
     *  degraded-topology plan rather than a registered algorithm or
     *  the blind fallback. */
    bool recoveredViaReplan = false;
    /** Links quarantined by the health monitor when the run
     *  returned (sorted). */
    std::vector<Link> quarantinedLinks;
    /** Total backoff charged before transient retries, microsec. */
    double backoffUs = 0.0;
    /** Sum of all attempts' kernel durations plus backoff — the
     *  recovery latency a caller actually experienced. */
    double totalTimeUs = 0.0;
    /** True if an aborted attempt forced a DataStore rollback
     *  (in-place reductions only; copy-only collectives re-execute
     *  without one — progress-aware recovery). */
    bool rolledBack = false;
};

/** The NCCL-API-compatible communicator over a simulated machine. */
class Communicator
{
  public:
    explicit Communicator(const Topology &topology,
                          HealthOptions health_options = {})
        : topology_(topology), health_(topology, health_options) {}

    const Topology &topology() const { return topology_; }
    DataStore &store() { return store_; }

    /** The link-health monitor state fed by this communicator. */
    LinkHealthMonitor &health() { return health_; }
    const LinkHealthMonitor &health() const { return health_; }

    /**
     * Registers @p ir for its collective, active for input sizes in
     * [min_bytes, max_bytes] — both bounds inclusive, so
     * bytes == max_bytes selects this window (paper §6: "the runtime
     * dynamically selects the right algorithm based on user
     * configurable size ranges").
     *
     * Overlapping windows are legal and resolved deterministically:
     * among all windows containing the size, the one with the
     * largest minBytes wins, ties going to the most recently
     * registered. For the contiguous tiling registerTuned emits this
     * degenerates to the unique containing window; for hand-stacked
     * overlaps it means "the most specific (highest lower bound),
     * freshest registration". Windows whose program crosses a
     * quarantined link are skipped entirely until the link heals.
     */
    void registerAlgorithm(IrProgram ir, std::uint64_t min_bytes,
                           std::uint64_t max_bytes);

    /** Removes every registered window of @p collective (the tuner's
     *  retune hook clears before re-registering). */
    void clearAlgorithms(const std::string &collective);

    /**
     * Registers the fallback used when no algorithm window matches —
     * the role NCCL's built-ins play in the paper. The factory may
     * pick schedule and protocol per size.
     */
    void registerFallback(
        const std::string &collective,
        std::function<IrProgram(std::uint64_t bytes)> factory);

    /**
     * Registers the degraded-topology replanner for @p collective:
     * given the machine with the quarantined links removed, return a
     * fresh DSL program (e.g. a ring re-formed over the surviving
     * links), or null if no plan exists. The communicator compiles
     * it through the normal pipeline with the verifier's
     * postcondition check enabled and caches the compiled IR keyed
     * by (collective, sorted dead-link set), so repeated runs under
     * the same quarantine pay compilation once.
     */
    void registerReplanner(
        const std::string &collective,
        std::function<std::unique_ptr<Program>(const Topology &degraded,
                                               std::uint64_t bytes)>
            factory);

    /** Degraded-topology compilations performed so far (cache
     *  misses; tests assert the cache works by watching this). */
    int replanCompiles() const { return replanCompiles_; }

    /**
     * Installs the hook invoked whenever the quarantined-link set
     * changes (grows on fresh evidence, shrinks when links start
     * probing). The tuner uses it to invalidate and re-tune its
     * selection windows against the degraded machine.
     */
    void setRetuneHook(std::function<void(const std::vector<Link> &)> hook)
    {
        retuneHook_ = std::move(hook);
    }

    /**
     * Runs the named collective, selecting among registered
     * algorithms / replan cache / fallback (see registerAlgorithm
     * for the window resolution rule). When the topology carries a
     * fault schedule and the watchdog aborts an attempt, recovers up
     * to options.maxAttempts total attempts (see RunOptions); for
     * attempts whose program mutates its input in data mode the
     * store is rolled back to its pre-launch snapshot before each
     * retry, so a completed run always starts from defined buffers.
     * The result records the recovery (attempts, faultsSeen,
     * degraded, recoveredViaReplan, quarantinedLinks, backoffUs, the
     * algorithm actually used).
     * @throws RuntimeError if nothing matches, or if the final
     * attempt still aborts (the message carries the blocked-set
     * report).
     */
    RunResult run(const std::string &collective,
                  const RunOptions &options);

    /**
     * Runs a specific program (one cooperative kernel launch). No
     * retry: a watchdog abort is returned in result.stats.aborted,
     * and in data mode the store keeps whatever the executed prefix
     * wrote. Does not feed the health monitor.
     */
    RunResult runProgram(const IrProgram &ir, const RunOptions &options);

    /**
     * Runs a sequence of programs as separate kernels: each pays the
     * launch overhead and fully drains before the next starts — the
     * execution model of collectives composed from a vendor library
     * (paper §7.2's "NCCL Hierarchical" baseline and §7.3's
     * hand-written Two-Step).
     *
     * The topology's fault schedule spans the whole composition:
     * timestamps are relative to the composition's start, each
     * kernel sees the schedule rebased by the time already elapsed,
     * and an event fired by one kernel is consumed — it does not
     * re-fire in later kernels. An abort stops the chain: the result
     * carries stats.aborted with the failing kernel's report, and
     * the kernels after it never launch.
     */
    RunResult runComposed(const std::vector<const IrProgram *> &irs,
                          const RunOptions &options);

  private:
    /** The per-invocation attempt state machine (runtime/recovery.h)
     *  selects through the cascade below and feeds health_. */
    friend class Recovery;

    struct Registered
    {
        /** Shared so an attempt in flight keeps its plan alive when
         *  the retune hook re-registers the windows. */
        std::shared_ptr<const IrProgram> ir;
        std::uint64_t minBytes;
        std::uint64_t maxBytes;
        /** programLinks(*ir), cached for quarantine filtering. */
        std::vector<Link> links;
    };

    /** One kernel attempt with an explicit fault script override. */
    RunResult runAttempt(const IrProgram &ir, const RunOptions &options,
                         const FaultSchedule *faults);

    /** The window winning at @p bytes among those avoiding the
     *  current quarantine, or null (see registerAlgorithm). */
    std::shared_ptr<const IrProgram>
    windowProgram(const std::string &collective,
                  std::uint64_t bytes) const;

    /**
     * The compiled degraded-topology plan for @p quarantine, from
     * cache or a fresh compile+verify; null when the quarantine is
     * empty, no replanner is registered, the replanner finds no plan,
     * or the plan fails to compile/verify.
     */
    std::shared_ptr<const IrProgram>
    replanProgram(const std::string &collective,
                  const std::vector<Link> &quarantine,
                  std::uint64_t bytes);

    /** A fresh fallback program, or null if none is registered. */
    std::shared_ptr<const IrProgram>
    fallbackProgram(const std::string &collective,
                    std::uint64_t bytes) const;

    /** Fires the retune hook if the quarantine set changed. */
    void syncQuarantine();

    const Topology &topology_;
    DataStore store_;
    LinkHealthMonitor health_;
    std::vector<Registered> algorithms_;
    std::map<std::string, std::function<IrProgram(std::uint64_t)>>
        fallbacks_;
    std::map<std::string,
             std::function<std::unique_ptr<Program>(const Topology &,
                                                    std::uint64_t)>>
        replanners_;
    /** (collective, dead-link set) "collective|3->4,5->6" → content
     *  key of the plan that quarantine degraded to. Distinct link
     *  sets often trace the same repair plan; memoizing through the
     *  content key lets them share one compiled IR. */
    std::map<std::string, std::uint64_t> replanMemo_;
    /** Content key → compiled+verified repair plan. */
    std::map<std::uint64_t, std::shared_ptr<const IrProgram>> replanIr_;
    int replanCompiles_ = 0;
    std::function<void(const std::vector<Link> &)> retuneHook_;
    /** Quarantine set at the last syncQuarantine(). */
    std::vector<Link> lastQuarantine_;
};

} // namespace mscclang

#endif // MSCCLANG_RUNTIME_COMMUNICATOR_H_
