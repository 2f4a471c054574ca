/**
 * @file
 * Unit tests for the simulation substrate: the discrete-event queue
 * (ordering, same-time FIFO, cancellation) and the flow-level
 * network model (rate caps, max-min fair sharing, conservation,
 * completion timing), and the worker pool's lane cap.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "sim/event_queue.h"
#include "sim/flow_network.h"
#include "sim/worker_pool.h"

namespace mscclang {
namespace {

TEST(SimWorkerPool, LanesAreCappedAtHardwareConcurrency)
{
    // A request above hardware concurrency gets the cap, unless the
    // sanitizer override lifts it. One lane past the cap keeps the
    // check cheap.
    unsigned hw = std::thread::hardware_concurrency();
    int cap = hw > 0 ? static_cast<int>(hw) : 1;
    bool uncapped =
        std::getenv("MSCCLANG_SIM_THREADS_UNCAPPED") != nullptr;
    EXPECT_EQ(SimWorkerPool(cap + 1).threads(),
              uncapped ? cap + 1 : cap);
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue events;
    std::vector<int> order;
    events.schedule(30, [&] { order.push_back(3); });
    events.schedule(10, [&] { order.push_back(1); });
    events.schedule(20, [&] { order.push_back(2); });
    events.run();
    EXPECT_EQ(order, (std::vector<int>{ 1, 2, 3 }));
    EXPECT_EQ(events.now(), 30);
    EXPECT_EQ(events.executed(), 3u);
}

TEST(EventQueue, SameTimeIsFifo)
{
    EventQueue events;
    std::vector<int> order;
    for (int i = 0; i < 10; i++)
        events.schedule(5, [&order, i] { order.push_back(i); });
    events.run();
    for (int i = 0; i < 10; i++)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbacksScheduleMore)
{
    EventQueue events;
    int fired = 0;
    events.schedule(1, [&] {
        fired++;
        events.scheduleAfter(5, [&] { fired++; });
    });
    events.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(events.now(), 6);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue events;
    int fired = 0;
    EventId id = events.schedule(10, [&] { fired++; });
    events.schedule(5, [&] { fired += 10; });
    events.cancel(id);
    events.run();
    EXPECT_EQ(fired, 10);
    EXPECT_TRUE(events.empty());
}

TEST(EventQueue, CancelChurnKeepsStorageBounded)
{
    // Regression: cancelled events used to linger in the heap and in
    // a cancelled-id set until their (arbitrarily far) deadline, so a
    // cancel/reschedule pattern — exactly what FlowNetwork's update
    // coalescing does — grew memory without bound. The pooled-slot
    // queue must stay O(live events).
    EventQueue events;
    EventId pending = 0;
    for (int i = 0; i < 100000; i++) {
        if (pending != 0)
            events.cancel(pending);
        pending = events.schedule(1000000 + i, [] {});
    }
    EXPECT_LE(events.poolSlots(), 64u);
    EXPECT_LE(events.heapEntries(), 256u); // 1 live + bounded slack
    events.cancel(pending);
    events.run();
    EXPECT_EQ(events.executed(), 0u);
    EXPECT_TRUE(events.empty());
}

TEST(EventQueue, StaleCancelDoesNotKillSlotReuser)
{
    EventQueue events;
    int fired = 0;
    EventId a = events.schedule(1, [&] { fired += 1; });
    events.runOne();
    // a's pool slot is free and may be handed to b; cancelling with
    // the stale id must be a no-op, not kill b.
    EventId b = events.schedule(2, [&] { fired += 10; });
    events.cancel(a);
    events.cancel(a);
    events.run();
    EXPECT_EQ(fired, 11);
    EXPECT_NE(a, b);
}

TEST(EventQueue, CancelledSlotIsRecycled)
{
    EventQueue events;
    for (int i = 0; i < 1000; i++)
        events.cancel(events.schedule(10, [] {}));
    EXPECT_LE(events.poolSlots(), 8u);
    events.run();
    EXPECT_EQ(events.executed(), 0u);
}

TEST(EventQueue, SchedulingIntoPastThrows)
{
    EventQueue events;
    events.schedule(10, [] {});
    events.runOne();
    EXPECT_THROW(events.schedule(5, [] {}), RuntimeError);
}

/**
 * Reference model of the queue's contract, written independently of
 * its storage: serial events ordered by (when, seq), shard events by
 * (when, shard, seq), where seq counts every schedule of either kind.
 * The next step is the serial front if its (when, seq) precedes that
 * of the shard front; otherwise it is every shard event at the shard
 * front's time, in shard order.
 */
class QueueOracle
{
  public:
    void
    addSerial(TimeNs when, int id)
    {
        serial_.insert({ when, ++seq_, id });
        where_[id] = { when, -1, seq_ };
    }

    void
    addShard(TimeNs when, int shard, int id)
    {
        shard_.insert({ when, shard, ++seq_, id });
        where_[id] = { when, shard, seq_ };
    }

    void
    remove(int id)
    {
        auto it = where_.find(id);
        if (it == where_.end())
            return; // already popped by a divergent step
        const Key key = it->second;
        if (key.shard < 0)
            serial_.erase({ key.when, key.seq, id });
        else
            shard_.erase({ key.when, key.shard, key.seq, id });
        where_.erase(it);
    }

    bool empty() const { return where_.empty(); }

    /** Pops the next step: "s<id>" or "b<when>:<shard>,<shard>,". */
    std::string
    popNext()
    {
        if (empty())
            return "<empty>";
        bool serial = shard_.empty() ||
            (!serial_.empty() &&
             std::make_pair(std::get<0>(*serial_.begin()),
                            std::get<1>(*serial_.begin())) <
                 std::make_pair(std::get<0>(*shard_.begin()),
                                std::get<2>(*shard_.begin())));
        if (serial) {
            int id = std::get<2>(*serial_.begin());
            remove(id);
            return "s" + std::to_string(id);
        }
        TimeNs when = std::get<0>(*shard_.begin());
        std::string step = "b" + std::to_string(when) + ":";
        while (!shard_.empty() && std::get<0>(*shard_.begin()) == when) {
            step += std::to_string(std::get<1>(*shard_.begin())) + ",";
            remove(std::get<3>(*shard_.begin()));
        }
        return step;
    }

  private:
    struct Key
    {
        TimeNs when;
        int shard;
        std::uint64_t seq;
    };
    std::set<std::tuple<TimeNs, std::uint64_t, int>> serial_;
    std::set<std::tuple<TimeNs, int, std::uint64_t, int>> shard_;
    std::map<int, Key> where_;
    std::uint64_t seq_ = 0;
};

/**
 * Drives one EventQueue and the oracle with the same seeded stream of
 * schedules (serial and shard, at repeated times and at now()),
 * cancels of pending events and cancels of stale ids, issued both
 * before the run and from inside serial callbacks and shard batches.
 * Each executed step is checked against the oracle's next step.
 */
class QueueDifferential
{
  public:
    explicit QueueDifferential(unsigned seed) : rng_(seed)
    {
        events_.setShardBatchRunner(
            [this](const std::vector<int> &batch) { onBatch(batch); });
    }

    /** Runs to completion; returns the index of the first divergent
     *  step, or -1 when the queue matched the oracle throughout. */
    long
    run(int initialOps)
    {
        randomOps(initialOps);
        events_.run();
        while (!oracle_.empty())
            want_.push_back(oracle_.popNext());
        for (std::size_t i = 0; i < std::max(got_.size(), want_.size());
             i++) {
            if (i >= got_.size() || i >= want_.size() ||
                got_[i] != want_[i])
                return static_cast<long>(i);
        }
        return -1;
    }

    std::string
    describe(long step) const
    {
        auto at = [step](const std::vector<std::string> &v) {
            return step < static_cast<long>(v.size()) ? v[step]
                                                      : "<none>";
        };
        return "step " + std::to_string(step) + ": queue ran " +
            at(got_) + ", oracle expects " + at(want_);
    }

    std::size_t steps() const { return got_.size(); }
    std::uint64_t batches() const { return events_.shardBatches(); }

  private:
    static constexpr int kShards = 6;

    struct Pending
    {
        EventId id;
        int shard; // -1 for serial events
    };

    TimeNs
    pickTime()
    {
        // Few distinct offsets so times repeat; 0 schedules at now().
        static const TimeNs kOffsets[] = { 0, 0, 1, 2, 3, 5, 5, 8, 40 };
        return events_.now() + kOffsets[rng_() % 9];
    }

    void
    scheduleSerial()
    {
        int id = nextId_++;
        TimeNs when = pickTime();
        EventId eid = events_.schedule(when, [this, id, when] {
            onSerial(id, when);
        });
        oracle_.addSerial(when, id);
        pending_[id] = { eid, -1 };
    }

    void
    scheduleShard()
    {
        // At most one pending event per shard, as the flow network
        // keeps it: a move is cancel + reschedule.
        int shard = static_cast<int>(rng_() % kShards);
        if (shardEvent_[shard] >= 0)
            cancel(shardEvent_[shard]);
        int id = nextId_++;
        TimeNs when = pickTime();
        oracle_.addShard(when, shard, id);
        pending_[id] = { events_.scheduleShard(when, shard), shard };
        shardEvent_[shard] = id;
    }

    void
    cancel(int id)
    {
        events_.cancel(pending_.at(id).id);
        retire(id);
        oracle_.remove(id);
    }

    /** Forgets a fired or cancelled event; its id becomes stale. */
    void
    retire(int id)
    {
        const Pending &p = pending_.at(id);
        stale_.push_back(p.id);
        if (p.shard >= 0)
            shardEvent_[p.shard] = -1;
        pending_.erase(id);
    }

    void
    randomOps(int count)
    {
        // After a divergence the two sides no longer agree on what is
        // pending; stop feeding them and let run() report the step.
        if (diverged_)
            return;
        for (int i = 0; i < count; i++) {
            unsigned op = rng_() % 10;
            if (budget_ > 0 && op < 5) {
                budget_--;
                scheduleSerial();
            } else if (budget_ > 0 && op < 7) {
                budget_--;
                scheduleShard();
            } else if (op < 9 && !pending_.empty()) {
                auto it = pending_.begin();
                std::advance(it, rng_() % pending_.size());
                cancel(it->first);
            } else if (!stale_.empty()) {
                events_.cancel(stale_[rng_() % stale_.size()]);
            }
        }
    }

    void
    record(const std::string &step)
    {
        got_.push_back(step);
        want_.push_back(oracle_.popNext());
        diverged_ = diverged_ || got_.back() != want_.back();
    }

    void
    onSerial(int id, TimeNs when)
    {
        EXPECT_EQ(events_.now(), when);
        record("s" + std::to_string(id));
        if (pending_.count(id) != 0)
            retire(id);
        randomOps(static_cast<int>(rng_() % 6));
    }

    void
    onBatch(const std::vector<int> &batch)
    {
        std::string step = "b" + std::to_string(events_.now()) + ":";
        for (int shard : batch) {
            step += std::to_string(shard) + ",";
            if (shardEvent_[shard] >= 0)
                retire(shardEvent_[shard]);
        }
        record(step);
        randomOps(static_cast<int>(rng_() % 6));
    }

    std::mt19937 rng_;
    EventQueue events_;
    QueueOracle oracle_;
    std::map<int, Pending> pending_;
    std::vector<EventId> stale_;
    int shardEvent_[kShards] = { -1, -1, -1, -1, -1, -1 };
    int nextId_ = 0;
    int budget_ = 4000; // schedules per run, so every run drains
    std::vector<std::string> got_;
    std::vector<std::string> want_;
    bool diverged_ = false;
};

TEST(EventQueue, MatchesAnOrderedSetOracle)
{
    // Seeded differential test: same-time FIFO, schedules at now()
    // while now()'s events drain, tombstone skipping and compaction,
    // stale-id cancels, and the serial-vs-shard tie-break against the
    // shard front (lowest shard id), not the lowest shard seq.
    std::size_t steps = 0;
    std::uint64_t batches = 0;
    for (unsigned seed = 1; seed <= 24; seed++) {
        QueueDifferential run(seed);
        long diverged = run.run(300);
        ASSERT_EQ(diverged, -1)
            << "seed " << seed << ", " << run.describe(diverged);
        steps += run.steps();
        batches += run.batches();
    }
    EXPECT_GT(steps, 24u * 1000u);
    EXPECT_GT(batches, 24u * 100u);
}

TEST(EventQueue, UsToNsRounds)
{
    EXPECT_EQ(usToNs(1.0), 1000);
    EXPECT_EQ(usToNs(0.0004), 0); // below resolution
    EXPECT_EQ(usToNs(2.5), 2500);
}

// ------------------------------------------------------------------

/** One-resource topology with capacity 10 GB/s. */
Topology
tinyFabric(double cap_gbps = 10.0)
{
    MachineParams params;
    params.nvlinkGpuBwGBps = cap_gbps;
    return makeGeneric(1, 2, params);
}

TEST(FlowNetwork, SingleFlowRunsAtCap)
{
    Topology topo = tinyFabric();
    EventQueue events;
    FlowNetwork net(topo, events);
    TimeNs done = -1;
    // 10 GB/s cap on the route, flow capped at 4 GB/s -> 1000 bytes
    // take 250 ns.
    net.startFlow(topo.route(0, 1).resources, 4.0, 1000.0,
                  [&] { done = events.now(); });
    events.run();
    EXPECT_NEAR(static_cast<double>(done), 250.0, 2.0);
    EXPECT_NEAR(net.deliveredBytes(), 1000.0, 1e-3);
}

TEST(FlowNetwork, ResourceCapSharedFairly)
{
    Topology topo = tinyFabric(10.0);
    EventQueue events;
    FlowNetwork net(topo, events);
    TimeNs done_a = -1, done_b = -1;
    // Two 1000-byte flows on the same egress, each individually able
    // to do 10 GB/s: they share 5/5 and finish together at 200ns.
    auto route = topo.route(0, 1).resources;
    net.startFlow(route, 100.0, 1000.0, [&] { done_a = events.now(); });
    net.startFlow(route, 100.0, 1000.0, [&] { done_b = events.now(); });
    events.run();
    EXPECT_NEAR(static_cast<double>(done_a), 200.0, 3.0);
    EXPECT_NEAR(static_cast<double>(done_b), 200.0, 3.0);
}

TEST(FlowNetwork, MaxMinRedistributesUnusedShare)
{
    Topology topo = tinyFabric(10.0);
    EventQueue events;
    FlowNetwork net(topo, events);
    // Flow A capped at 2 GB/s; flow B uncapped: B should get the
    // remaining 8 GB/s (not the naive 5).
    auto route = topo.route(0, 1).resources;
    FlowId a = net.startFlow(route, 2.0, 1e6, [] {});
    FlowId b = net.startFlow(route, 100.0, 1e6, [] {});
    // Drive one recompute.
    events.runOne();
    EXPECT_NEAR(net.currentRateGBps(a), 2.0, 1e-6);
    EXPECT_NEAR(net.currentRateGBps(b), 8.0, 1e-6);
    EXPECT_EQ(net.activeFlows(), 2);
}

TEST(FlowNetwork, DisjointRoutesDoNotInterfere)
{
    MachineParams params;
    params.nvlinkGpuBwGBps = 10.0;
    Topology topo = makeGeneric(1, 4, params);
    EventQueue events;
    FlowNetwork net(topo, events);
    FlowId a = net.startFlow(topo.route(0, 1).resources, 100.0, 1e6,
                             [] {});
    FlowId b = net.startFlow(topo.route(2, 3).resources, 100.0, 1e6,
                             [] {});
    events.runOne();
    EXPECT_NEAR(net.currentRateGBps(a), 10.0, 1e-6);
    EXPECT_NEAR(net.currentRateGBps(b), 10.0, 1e-6);
}

TEST(FlowNetwork, RatesReadjustWhenFlowsFinish)
{
    Topology topo = tinyFabric(10.0);
    EventQueue events;
    FlowNetwork net(topo, events);
    auto route = topo.route(0, 1).resources;
    TimeNs done_small = -1, done_big = -1;
    net.startFlow(route, 100.0, 500.0,
                  [&] { done_small = events.now(); });
    net.startFlow(route, 100.0, 1500.0,
                  [&] { done_big = events.now(); });
    events.run();
    // Shared 5/5 until the small one drains at t=100; the big one
    // then runs at 10: 1500 = 5*100 + 10*(t-100) -> t = 200.
    EXPECT_NEAR(static_cast<double>(done_small), 100.0, 3.0);
    EXPECT_NEAR(static_cast<double>(done_big), 200.0, 5.0);
    EXPECT_NEAR(net.deliveredBytes(), 2000.0, 1e-2);
}

TEST(FlowNetwork, ZeroByteFlowCompletesImmediately)
{
    Topology topo = tinyFabric();
    EventQueue events;
    FlowNetwork net(topo, events);
    bool done = false;
    net.startFlow(topo.route(0, 1).resources, 1.0, 0.0,
                  [&] { done = true; });
    events.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(events.now(), 0);
}

TEST(FlowNetwork, RejectsBadFlows)
{
    Topology topo = tinyFabric();
    EventQueue events;
    FlowNetwork net(topo, events);
    EXPECT_THROW(
        net.startFlow(topo.route(0, 1).resources, 0.0, 10.0, [] {}),
        RuntimeError);
    EXPECT_THROW(
        net.startFlow(topo.route(0, 1).resources, 1.0, -1.0, [] {}),
        RuntimeError);
}

TEST(FlowNetwork, ManyFlowsConserveBytes)
{
    MachineParams params;
    params.nvlinkGpuBwGBps = 7.0;
    Topology topo = makeGeneric(1, 8, params);
    EventQueue events;
    FlowNetwork net(topo, events);
    double total = 0.0;
    int completed = 0;
    for (int i = 0; i < 64; i++) {
        int src = i % 8, dst = (i + 1 + i / 8) % 8;
        if (src == dst)
            dst = (dst + 1) % 8;
        double bytes = 100.0 * (i + 1);
        total += bytes;
        net.startFlow(topo.route(src, dst).resources, 2.5, bytes,
                      [&] { completed++; });
    }
    events.run();
    EXPECT_EQ(completed, 64);
    EXPECT_NEAR(net.deliveredBytes(), total, 1.0);
    EXPECT_EQ(net.activeFlows(), 0);
}

TEST(FlowNetwork, BurstyStartsConservePerResourceBytes)
{
    // Exercises the incremental bookkeeping (membership counts,
    // lazily compacted touched set, usage decrements) under waves of
    // flows that start from completion callbacks, so starts and
    // finishes interleave and resources repeatedly drain to zero
    // flows and refill.
    MachineParams params;
    params.nvlinkGpuBwGBps = 5.0;
    Topology topo = makeGeneric(1, 6, params);
    EventQueue events;
    FlowNetwork net(topo, events);
    std::vector<double> expected(topo.numResources(), 0.0);
    double total = 0.0;
    int completed = 0;
    std::function<void(int)> burst = [&](int wave) {
        if (wave >= 3)
            return;
        for (int i = 0; i < 12; i++) {
            int src = (i + wave) % 6;
            int dst = (src + 1 + i % 3) % 6;
            double bytes = 50.0 * (i + 1 + wave);
            const std::vector<ResourceId> &resources =
                topo.route(src, dst).resources;
            for (ResourceId r : resources)
                expected[r] += bytes;
            total += bytes;
            bool leader = i == 0;
            net.startFlow(resources, 1.5, bytes,
                          [&, leader, wave] {
                              completed++;
                              if (leader)
                                  burst(wave + 1);
                          });
        }
    };
    burst(0);
    events.run();
    EXPECT_EQ(completed, 36);
    EXPECT_NEAR(net.deliveredBytes(), total, 1e-2);
    for (ResourceId r = 0; r < topo.numResources(); r++)
        EXPECT_NEAR(net.resourceBytes(r), expected[r], 1e-2);
    EXPECT_EQ(net.activeFlows(), 0);
}

TEST(FlowNetwork, ResourcesLeftIdleStayClean)
{
    // A resource whose flows all finish must drop out of the touched
    // set and come back correctly when used again later.
    Topology topo = tinyFabric(10.0);
    EventQueue events;
    FlowNetwork net(topo, events);
    auto route01 = topo.route(0, 1).resources;
    auto route10 = topo.route(1, 0).resources;
    TimeNs second_done = -1;
    net.startFlow(route01, 100.0, 1000.0, [&] {
        // Re-use the reverse direction after the fabric went idle.
        net.startFlow(route10, 100.0, 1000.0,
                      [&] { second_done = events.now(); });
    });
    events.run();
    // Each leg runs alone at the 10 GB/s resource cap: 100ns each.
    EXPECT_NEAR(static_cast<double>(second_done), 200.0, 4.0);
    EXPECT_NEAR(net.deliveredBytes(), 2000.0, 1e-2);
}

} // namespace
} // namespace mscclang
