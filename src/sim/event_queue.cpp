#include "sim/event_queue.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "sim/profile.h"

namespace mscclang {

namespace {

/** Tombstone count below which compaction is never worth it. */
constexpr std::size_t kCompactFloor = 64;

} // namespace

std::uint32_t
EventQueue::allocSlot()
{
    if (!freeSlots_.empty()) {
        std::uint32_t index = freeSlots_.back();
        freeSlots_.pop_back();
        return index;
    }
    std::uint32_t index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    return index;
}

EventId
EventQueue::schedule(TimeNs when, Callback cb)
{
    if (when < now_)
        throw RuntimeError("EventQueue: scheduling into the past");

    std::uint32_t index = allocSlot();
    Slot &slot = slots_[index];
    slot.cb = std::move(cb);
    slot.live = true;
    slot.shard = -1;

    heap_.push_back(Entry{ when, nextSeq_++, index, slot.gen });
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    liveEvents_++;
    // EventId 0 is reserved as "none": slot is offset by one.
    return (static_cast<EventId>(slot.gen) << 32) |
        static_cast<EventId>(index + 1);
}

EventId
EventQueue::scheduleShard(TimeNs when, int shard)
{
    if (when < now_)
        throw RuntimeError("EventQueue: scheduling into the past");
    if (shard < 0)
        throw RuntimeError("EventQueue: negative shard id");
    if (!shardRunner_)
        throw RuntimeError("EventQueue: no shard batch runner");

    std::uint32_t index = allocSlot();
    Slot &slot = slots_[index];
    slot.cb = nullptr; // the batch runner is the callback
    slot.live = true;
    slot.shard = shard;

    shardHeap_.push_back(
        ShardEntry{ when, nextSeq_++, index, slot.gen, shard });
    std::push_heap(shardHeap_.begin(), shardHeap_.end(),
                   std::greater<>{});
    liveEvents_++;
    return (static_cast<EventId>(slot.gen) << 32) |
        static_cast<EventId>(index + 1);
}

void
EventQueue::releaseSlot(std::uint32_t index)
{
    Slot &slot = slots_[index];
    slot.cb = nullptr; // drop captured state now, not at pop time
    slot.live = false;
    slot.shard = -1;
    // The generation is the ABA guard: a recycled slot must never be
    // addressable through a stale EventId. Rather than silently
    // wrapping to a generation an ancient id might still carry,
    // refuse — no real schedule/cancel churn reaches 2^32 cycles on
    // one slot without this being a bug.
    if (slot.gen == std::numeric_limits<std::uint32_t>::max())
        throw RuntimeError(
            "EventQueue: slot generation overflow (ABA guard)");
    slot.gen++;
    freeSlots_.push_back(index);
}

void
EventQueue::cancel(EventId id)
{
    std::uint32_t index = static_cast<std::uint32_t>(id & 0xffffffffu);
    if (index == 0 || index > slots_.size())
        return;
    index--;
    Slot &slot = slots_[index];
    std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (!slot.live || slot.gen != gen)
        return; // already fired or already cancelled
    bool shard_event = slot.shard >= 0;
    releaseSlot(index);
    liveEvents_--;
    if (shard_event) {
        deadInShardHeap_++;
        if (deadInShardHeap_ > kCompactFloor &&
            deadInShardHeap_ * 2 > shardHeap_.size())
            compactShard();
    } else {
        deadInHeap_++;
        if (deadInHeap_ > kCompactFloor &&
            deadInHeap_ * 2 > heap_.size())
            compactSerial();
    }
}

void
EventQueue::compactSerial()
{
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Entry &entry) {
                                   return dead(entry);
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    deadInHeap_ = 0;
}

void
EventQueue::compactShard()
{
    shardHeap_.erase(
        std::remove_if(shardHeap_.begin(), shardHeap_.end(),
                       [this](const ShardEntry &entry) {
                           return dead(entry);
                       }),
        shardHeap_.end());
    std::make_heap(shardHeap_.begin(), shardHeap_.end(),
                   std::greater<>{});
    deadInShardHeap_ = 0;
}

void
EventQueue::purgeTops()
{
    while (!heap_.empty() && dead(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();
        deadInHeap_--;
    }
    while (!shardHeap_.empty() && dead(shardHeap_.front())) {
        std::pop_heap(shardHeap_.begin(), shardHeap_.end(),
                      std::greater<>{});
        shardHeap_.pop_back();
        deadInShardHeap_--;
    }
}

bool
EventQueue::runOne()
{
    purgeTops();
    if (heap_.empty() && shardHeap_.empty())
        return false;

    // Serial vs shard tie-break is the global schedule order (seq),
    // preserving the pre-sharding FIFO semantics for same-time
    // events scheduled earlier than the shard batch.
    bool serial;
    if (shardHeap_.empty()) {
        serial = true;
    } else if (heap_.empty()) {
        serial = false;
    } else {
        const Entry &s = heap_.front();
        const ShardEntry &h = shardHeap_.front();
        serial = s.when != h.when ? s.when < h.when : s.seq < h.seq;
    }

    if (serial) {
        SimProfileTimer timer(profile_ ? &profile_->eventQueueNs
                                       : nullptr);
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        Entry entry = heap_.back();
        heap_.pop_back();
        Callback cb = std::move(slots_[entry.slot].cb);
        releaseSlot(entry.slot);
        now_ = entry.when;
        liveEvents_--;
        executed_++;
        if (profile_)
            profile_->serialEvents++;
        cb();
        return true;
    }

    // Extract the whole same-time batch of shard events. The heap's
    // (when, shard, seq) order makes the batch sequence — and with
    // it the serial merge phase the runner performs — a
    // deterministic function of the schedule alone.
    // The runner attributes its own phase time; only the extraction
    // counts against the event queue here.
    SimProfileTimer timer(profile_ ? &profile_->eventQueueNs
                                   : nullptr);
    TimeNs when = shardHeap_.front().when;
    batchScratch_.clear();
    while (!shardHeap_.empty() && shardHeap_.front().when == when) {
        std::pop_heap(shardHeap_.begin(), shardHeap_.end(),
                      std::greater<>{});
        ShardEntry entry = shardHeap_.back();
        shardHeap_.pop_back();
        if (dead(entry)) {
            deadInShardHeap_--;
            continue;
        }
        releaseSlot(entry.slot);
        liveEvents_--;
        executed_++;
        batchScratch_.push_back(entry.shard);
    }
    if (batchScratch_.empty()) {
        timer.stop();
        return runOne(); // the batch was all tombstones
    }
    now_ = when;
    shardBatches_++;
    timer.stop();
    shardRunner_(batchScratch_);
    return true;
}

TimeNs
EventQueue::run()
{
    while (runOne()) {
    }
    return now_;
}

} // namespace mscclang
