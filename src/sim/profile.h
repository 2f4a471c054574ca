/**
 * @file
 * Wall-clock phase accounting for the simulation engines. A single
 * SimProfile instance is threaded (optionally) through the event
 * queue, the flow network, and the interpreter; each component
 * accumulates the host nanoseconds it spends in its phase so a bench
 * can print the Amdahl split — how much of a run is parallelizable
 * shard work versus the serial residue. All accumulation happens on
 * the driving thread (the batch runners time whole phases from
 * outside the worker pool), so plain fields suffice. When no profile
 * is installed the hot paths skip the clock reads entirely.
 */

#ifndef MSCCLANG_SIM_PROFILE_H_
#define MSCCLANG_SIM_PROFILE_H_

#include <chrono>
#include <cstdint>

namespace mscclang {

/** Per-phase wall-clock accumulators, in host nanoseconds. */
struct SimProfile
{
    /** Serial event dispatch + shard-batch extraction (EventQueue). */
    std::int64_t eventQueueNs = 0;
    /** Flow-network shard batches: parallel settle/recompute + merge. */
    std::int64_t flowNetworkNs = 0;
    /** Flow-completion callbacks (interpreter work). */
    std::int64_t flowCallbacksNs = 0;
    /** Always 0: kept only because the frozen perfbench harness
     *  reads them (the rank-batched interpreter is deleted). */
    std::int64_t interpParallelNs = 0;
    std::int64_t interpMergeNs = 0;

    std::uint64_t serialEvents = 0;
    std::uint64_t flowBatches = 0;

    void
    reset()
    {
        *this = SimProfile{};
    }
};

/** Scoped timer adding elapsed host ns to an accumulator on exit. */
class SimProfileTimer
{
  public:
    /** A null accumulator makes the timer (and clock reads) a no-op. */
    explicit SimProfileTimer(std::int64_t *acc) : acc_(acc)
    {
        if (acc_)
            start_ = std::chrono::steady_clock::now();
    }

    ~SimProfileTimer() { stop(); }

    /** Stops early; subsequent stops are no-ops. */
    void
    stop()
    {
        if (!acc_)
            return;
        auto end = std::chrono::steady_clock::now();
        *acc_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     end - start_)
                     .count();
        acc_ = nullptr;
    }

    SimProfileTimer(const SimProfileTimer &) = delete;
    SimProfileTimer &operator=(const SimProfileTimer &) = delete;

  private:
    std::int64_t *acc_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace mscclang

#endif // MSCCLANG_SIM_PROFILE_H_
