/**
 * @file
 * A minimal discrete-event simulation engine: an ordered queue of
 * (time, callback) events with cancellation, driving the runtime
 * interpreter and the flow-level network model. Time is in integer
 * nanoseconds for determinism.
 *
 * Storage layout (hot path): the binary heap holds 24-byte POD
 * entries ordered by (time, schedule sequence) — the sequence keeps
 * same-time events FIFO — while callbacks live in a pooled slot
 * arena addressed by the entries. Cancellation is O(1) via slot
 * generations: cancelling bumps the slot's generation, releases the
 * callback's storage immediately, and returns the slot to the free
 * list; the stale heap entry is discarded lazily when popped (or by
 * compaction when tombstones dominate the heap). Live storage is
 * therefore bounded by the peak number of concurrently pending
 * events, no matter how many schedule/cancel cycles a long run does.
 * A slot whose generation counter would wrap is retired with an
 * error instead of silently recycling — a wrapped generation would
 * let a stale EventId cancel an unrelated event (ABA).
 *
 * Sharded events (the parallel-simulation substrate, DESIGN.md §11):
 * the flow network partitions its flows into independent shards
 * (coupled-flow components) and schedules *shard events* instead of
 * callbacks. Shard events live in their own heap, ordered by the
 * deterministic merge key (time, shard, sequence), and are drained
 * in batches: when the earliest pending event is a shard event at
 * time T, every shard event at exactly T is popped as one batch and
 * handed to the installed batch runner, which may process the shards
 * on a worker pool because same-instant shards are independent by
 * construction (any cross-shard influence needs an ordinary serial
 * event, and none can exist between equal timestamps). Ordinary
 * events interleave with shard events by (time, sequence) against
 * the front of the shard heap, so a serial event scheduled before a
 * same-time shard batch still runs first.
 */

#ifndef MSCCLANG_SIM_EVENT_QUEUE_H_
#define MSCCLANG_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace mscclang {

struct SimProfile;

/** Simulated time in nanoseconds. */
using TimeNs = std::int64_t;

/** Converts microseconds to simulated time. */
constexpr TimeNs
usToNs(double us)
{
    return static_cast<TimeNs>(us * 1000.0 + 0.5);
}

/**
 * Identifier of a scheduled event, usable for cancellation. Encodes
 * (arena slot, generation); 0 is never a valid id.
 */
using EventId = std::uint64_t;

/**
 * The event queue. The driving thread is single; parallelism happens
 * only inside shard-event batches, under the batch runner's control.
 * Callbacks may schedule more events.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;
    /** Handles one batch of same-time shard events (shard ids). */
    using ShardBatchRunner =
        std::function<void(const std::vector<int> &)>;

    /** Current simulated time. */
    TimeNs now() const { return now_; }

    /** Schedules @p cb at absolute time @p when (>= now). */
    EventId schedule(TimeNs when, Callback cb);

    /** Schedules @p cb @p delay after now. */
    EventId scheduleAfter(TimeNs delay, Callback cb)
    {
        return schedule(now_ + delay, std::move(cb));
    }

    /**
     * Schedules a shard event for @p shard at @p when. Requires the
     * batch runner to be installed (setShardBatchRunner). The
     * producer should keep at most one pending shard event per shard
     * (cancel + reschedule to move it); the batch extraction assumes
     * same-time shard events name distinct shards.
     */
    EventId scheduleShard(TimeNs when, int shard);

    /** Installs the executor for shard-event batches. */
    void setShardBatchRunner(ShardBatchRunner runner)
    {
        shardRunner_ = std::move(runner);
    }

    /** Installs wall-clock phase accounting (null disables). */
    void setProfile(SimProfile *profile) { profile_ = profile; }

    /** Cancels a pending event; cancelling a fired event is a no-op. */
    void cancel(EventId id);

    /** True if no live events remain. */
    bool empty() const { return liveEvents_ == 0; }

    /**
     * Pops and runs the earliest event — or, when that event is a
     * shard event, the whole batch of shard events sharing its
     * timestamp. Returns false when empty.
     */
    bool runOne();

    /** Runs until the queue is drained. Returns final time. */
    TimeNs run();

    /** Number of events executed so far (diagnostics). */
    std::uint64_t executed() const { return executed_; }

    /** Shard-event batches executed so far (diagnostics). */
    std::uint64_t shardBatches() const { return shardBatches_; }

    /**
     * Allocated callback-arena slots (diagnostics). Bounded by the
     * peak number of simultaneously pending events.
     */
    std::size_t poolSlots() const { return slots_.size(); }

    /**
     * Heap entries including cancellation tombstones (diagnostics).
     * Compaction keeps this within a constant factor of the live
     * event count.
     */
    std::size_t heapEntries() const
    {
        return heap_.size() + shardHeap_.size();
    }

  private:
    /** POD heap entry; the callback lives in slots_[slot]. */
    struct Entry
    {
        TimeNs when;
        std::uint64_t seq; // schedule order, FIFO tie-break
        std::uint32_t slot;
        std::uint32_t gen;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    /** Shard-heap entry, ordered by (when, shard, seq). */
    struct ShardEntry
    {
        TimeNs when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
        int shard;

        bool
        operator>(const ShardEntry &other) const
        {
            if (when != other.when)
                return when > other.when;
            if (shard != other.shard)
                return shard > other.shard;
            return seq > other.seq;
        }
    };

    /** One pooled callback slot. */
    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 0;
        bool live = false;
        /** Shard id for shard events, -1 for callback events. */
        int shard = -1;
    };

    template <typename E>
    bool
    dead(const E &entry) const
    {
        const Slot &slot = slots_[entry.slot];
        return !slot.live || slot.gen != entry.gen;
    }

    /** Allocates a slot (from the free list or fresh). */
    std::uint32_t allocSlot();

    /** Frees a slot's callback storage and recycles the slot. */
    void releaseSlot(std::uint32_t index);

    /** Drops dead entries when tombstones dominate a heap. */
    void compactSerial();
    void compactShard();

    /** Discards dead entries at the top of each heap. */
    void purgeTops();

    TimeNs now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t executed_ = 0;
    std::uint64_t shardBatches_ = 0;
    std::size_t liveEvents_ = 0;
    std::size_t deadInHeap_ = 0;
    std::size_t deadInShardHeap_ = 0;
    std::vector<Entry> heap_;           // min-heap by (when, seq)
    std::vector<ShardEntry> shardHeap_; // min-heap by (when, shard, seq)
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<int> batchScratch_;
    ShardBatchRunner shardRunner_;
    SimProfile *profile_ = nullptr;
};

} // namespace mscclang

#endif // MSCCLANG_SIM_EVENT_QUEUE_H_
