#include "runtime/recovery.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace mscclang {

Recovery::Recovery(Communicator &comm, const std::string &collective,
                   std::uint64_t bytes, int max_attempts,
                   DataStore *store, bool healing,
                   double blind_backoff_us)
    : comm_(comm), collective_(collective), bytes_(bytes),
      maxAttempts_(std::max(1, max_attempts)), store_(store),
      healing_(healing), blindBackoffUs_(blind_backoff_us)
{
    if (healing_)
        comm_.health_.beginRun();
    if (!choose(/*fallback_only=*/false)) {
        throw RuntimeError("no algorithm or fallback registered for '" +
                           collective + "' at " + formatBytes(bytes));
    }
}

std::string
Recovery::algorithm() const
{
    if (source_ == PlanSource::Replan)
        return plan_->name + " (replan)";
    if (source_ == PlanSource::Fallback)
        return plan_->name + " (fallback)";
    return plan_->name;
}

void
Recovery::beginAttempt()
{
    attempts_ = saturatingIncrement(attempts_);
}

void
Recovery::snapshotInput()
{
    if (store_ != nullptr && !haveSnapshot_ && plan_->mutatesInput()) {
        snapshot_ = store_->snapshot();
        haveSnapshot_ = true;
    }
}

bool
Recovery::choose(bool fallback_only)
{
    // A registered window avoiding the quarantine, then the replan
    // cache (links already out of service), then the fallback.
    std::shared_ptr<const IrProgram> next;
    PlanSource source = PlanSource::Window;
    if (!fallback_only) {
        next = comm_.windowProgram(collective_, bytes_);
        if (next == nullptr) {
            next = comm_.replanProgram(
                collective_, comm_.health_.quarantined(), bytes_);
            source = PlanSource::Replan;
        }
    }
    if (next == nullptr) {
        next = comm_.fallbackProgram(collective_, bytes_);
        source = PlanSource::Fallback;
    }
    if (next == nullptr)
        return false;
    plan_ = std::move(next);
    source_ = source;
    return true;
}

AttemptEnd
Recovery::endAttempt(const ExecStats &stats)
{
    if (healing_) {
        if (stats.aborted)
            comm_.health_.noteBlocked(stats.blockedLinks);
        else
            comm_.health_.noteSuccess(programLinks(*plan_));
    }
    if (!stats.aborted)
        return AttemptEnd::Completed;
    if (attempts_ >= maxAttempts_)
        return AttemptEnd::Exhausted;
    if (haveSnapshot_) {
        store_->restore(snapshot_);
        rolledBack_ = true;
    }
    if (!healing_)
        return backOff(blindBackoffUs_ * attempts_);
    return decide();
}

AttemptEnd
Recovery::decide()
{
    // Conclusive evidence (the quarantine grew) abandons the current
    // plan: first a registered window that avoids the quarantined
    // links (possibly freshly re-tuned by the hook), then a verified
    // recompile on the degraded topology, then the blind fallback.
    // Transient evidence (stall/degrade below the threshold) retries
    // the same plan after a bounded deterministic backoff until the
    // budget is spent.
    LinkHealthMonitor &health = comm_.health_;
    bool fallback_only = true;
    if (health.quarantined() != comm_.lastQuarantine_) {
        comm_.syncQuarantine(); // fires the retune hook
        fallback_only = false;
    } else if (!health.transientBudgetSpent()) {
        return backOff(health.nextBackoffUs());
    }
    return choose(fallback_only) ? AttemptEnd::Switch
                                 : AttemptEnd::GiveUp;
}

AttemptEnd
Recovery::backOff(double delay_us)
{
    backoffs_++;
    backoffUs_ = saturatingAddUs(backoffUs_, delay_us);
    retryDelayUs_ = delay_us;
    return AttemptEnd::Backoff;
}

} // namespace mscclang
