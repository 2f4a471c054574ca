/**
 * @file
 * The recovery policy of one collective invocation (DESIGN.md §9):
 * the plan that runs and where it came from, the attempt count, the
 * input snapshot an aborted in-place attempt rolls back to, and what
 * happens when an attempt ends — the health notes, the attempt
 * budget, and the Backoff / Switch / GiveUp decision.
 *
 * Two drivers run it, because they meet faults differently.
 * Communicator::run restarts every attempt on a fresh machine armed
 * with the unfired rest of the fault schedule; the workload replayer
 * keeps one clock and one shared fabric for every op. Each driver
 * feeds the faults it saw to the health monitor itself, then calls
 * endAttempt(); everything after that is decided here, once.
 */

#ifndef MSCCLANG_RUNTIME_RECOVERY_H_
#define MSCCLANG_RUNTIME_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "runtime/communicator.h"

namespace mscclang {

/** Where the plan an invocation runs came from. */
enum class PlanSource {
    Window,   ///< a registered algorithm window
    Replan,   ///< a recompiled degraded-topology plan
    Fallback, ///< the registered fallback (the paper's NCCL role)
};

/** What the driver does after Recovery::endAttempt. */
enum class AttemptEnd {
    Completed, ///< the attempt finished; the invocation is done
    Backoff,   ///< relaunch plan() after retryDelayUs()
    Switch,    ///< relaunch at once on the new plan()
    Exhausted, ///< aborted with the attempt budget spent
    GiveUp,    ///< aborted and no recovery route remains
};

/** The attempt state machine of one collective invocation. */
class Recovery
{
  public:
    /**
     * Opens one invocation of @p collective at @p bytes on @p comm
     * and selects its first plan: a registered window avoiding the
     * quarantine, else a degraded-topology replan, else the
     * fallback. With @p healing the invocation feeds the health
     * monitor (beginRun now, a note per attempt) and recovers through
     * the communicator's cascade. Without it the monitor is never
     * touched and an aborted attempt retries the same plan after
     * @p blind_backoff_us times the attempt count (the replay's
     * control arm). @p store is the data-mode store to snapshot
     * before the first in-place attempt, or null.
     * @throws RuntimeError when nothing matches.
     */
    Recovery(Communicator &comm, const std::string &collective,
             std::uint64_t bytes, int max_attempts, DataStore *store,
             bool healing = true, double blind_backoff_us = 0.0);

    const IrProgram &plan() const { return *plan_; }
    PlanSource source() const { return source_; }
    /** The plan's name with its " (replan)"/" (fallback)" suffix. */
    std::string algorithm() const;

    int attempts() const { return attempts_; }
    /** Backoff retries taken and the time they charged. */
    int backoffs() const { return backoffs_; }
    double backoffUs() const { return backoffUs_; }
    /** The delay of the latest Backoff. */
    double retryDelayUs() const { return retryDelayUs_; }
    /** True once an aborted attempt restored the input snapshot. */
    bool rolledBack() const { return rolledBack_; }

    /** Counts the attempt about to launch. */
    void beginAttempt();

    /**
     * Snapshots the store the first time a plan that mutates its
     * input is about to run (progress-aware recovery: copy-only
     * collectives re-execute without one). No-op without a store.
     */
    void snapshotInput();

    /**
     * Ends the current attempt. With healing, notes its outcome on
     * the monitor (noteSuccess / noteBlocked); the driver must have
     * fed the attempt's fired faults first. An aborted attempt then
     * spends the budget (Exhausted), rolls the store back to its
     * snapshot, and picks the route: conclusive evidence (the
     * quarantine grew) fires the retune hook and switches to a window
     * avoiding it, a verified replan, or the fallback; transient
     * evidence backs off on the same plan until the monitor's budget
     * is spent, then falls back.
     */
    AttemptEnd endAttempt(const ExecStats &stats);

  private:
    /** Adopts the first plan the cascade offers; false if none. */
    bool choose(bool fallback_only);
    AttemptEnd decide();
    AttemptEnd backOff(double delay_us);

    Communicator &comm_;
    std::string collective_;
    std::uint64_t bytes_;
    int maxAttempts_;
    DataStore *store_;
    bool healing_;
    double blindBackoffUs_;

    std::shared_ptr<const IrProgram> plan_;
    PlanSource source_ = PlanSource::Window;
    int attempts_ = 0;
    int backoffs_ = 0;
    double backoffUs_ = 0.0;
    double retryDelayUs_ = 0.0;
    DataStore::Snapshot snapshot_;
    bool haveSnapshot_ = false;
    bool rolledBack_ = false;
};

} // namespace mscclang

#endif // MSCCLANG_RUNTIME_RECOVERY_H_
