/**
 * @file
 * Unit tests for the simulation substrate: the discrete-event queue
 * (ordering, same-time FIFO, cancellation) and the flow-level
 * network model (rate caps, max-min fair sharing, conservation,
 * completion timing), and the worker pool's lane cap.
 */

#include <cmath>
#include <cstdlib>
#include <functional>
#include <thread>
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
