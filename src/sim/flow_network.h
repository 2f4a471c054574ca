/**
 * @file
 * Flow-level network model. Concurrent transfers ("flows") share the
 * topology's capacity resources (per-GPU NVLink egress/ingress, IB
 * NIC send/recv, point-to-point bundles) max-min fairly, with a
 * per-flow rate cap modelling the bandwidth a single thread block can
 * drive. This is the substrate on which the paper's optimizations
 * act: parallelization adds flows to raise a link's utilization,
 * aggregation amortizes per-message latency (paid by the caller),
 * pipelining overlaps flows on disjoint resources.
 *
 * Sharded layout (DESIGN.md §11): active flows are partitioned into
 * *shards* — the connected components of the flow/resource sharing
 * graph, maintained incrementally. Each shard owns its member flows,
 * the resources they draw from, a private settle clock, and its own
 * coalesced update event in the EventQueue. A rate-relevant change
 * (flow start or completion, fault capacity change) settles and
 * recomputes only the shard it lands in; a flow whose route spans
 * several shards merges them ("crossing the cut"), and a shard that
 * lost flows is re-partitioned at its next update so independent
 * components split apart again. Max-min progressive filling inside a
 * shard is the exact algorithm the pre-sharding network ran globally,
 * restricted to the shard — mathematically the same fixed point,
 * since components share no resources.
 *
 * Parallel execution: same-instant shard updates arrive from the
 * EventQueue as one batch. The batch's per-shard phase (settle,
 * completion detection, recompute) runs on a SimWorkerPool — shards
 * touch disjoint state, so any thread count computes bit-identical
 * results — followed by a serial phase in deterministic (time,
 * shard, seq) batch order that folds per-shard byte counts into the
 * global totals, re-partitions, reschedules, and finally fires
 * completion callbacks in shard-then-start order.
 */

#ifndef MSCCLANG_SIM_FLOW_NETWORK_H_
#define MSCCLANG_SIM_FLOW_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/worker_pool.h"
#include "topology/topology.h"

namespace mscclang {

struct SimProfile;

/** Identifier of an in-flight transfer. */
using FlowId = std::int64_t;

/** The shared-fabric model. One instance per simulated machine. */
class FlowNetwork
{
  public:
    FlowNetwork(const Topology &topology, EventQueue &events);
    ~FlowNetwork();

    /**
     * Sets the worker-thread count for shard-batch processing
     * (default 1 = inline on the driving thread). Simulated results
     * are bit-identical for every value. Call before running; the
     * pool is created lazily at the first parallel batch.
     */
    void setThreads(int threads);
    int threads() const { return threads_; }

    /** Installs wall-clock phase accounting (null disables). */
    void setProfile(SimProfile *profile) { profile_ = profile; }

    /**
     * Starts a transfer of @p bytes across @p resources with a
     * per-flow cap of @p cap_gbps; @p on_done fires when the last
     * byte has drained. Fixed per-message latency is the caller's to
     * add (it depends on protocol and link type).
     */
    FlowId startFlow(const std::vector<ResourceId> &resources,
                     double cap_gbps, double bytes,
                     std::function<void()> on_done);

    /**
     * Arms @p schedule: each event is scheduled on the event queue at
     * its activation time and mutates the effective capacity of its
     * resource (degrade multiplies, stall/link-down zero it; stalls
     * and bounded degrades recover after their duration). Flows
     * crossing a zeroed resource freeze at rate 0 instead of
     * triggering the starvation error — a wedged execution is then
     * the watchdog's to detect. Call at most once, before running.
     */
    void injectFaults(const FaultSchedule &schedule);

    /** Number of fault events that have activated so far. */
    int faultsFired() const
    {
        return static_cast<int>(firedFaults_.size());
    }

    /** Indices (into the armed schedule) of activated events. */
    const std::vector<int> &firedFaults() const { return firedFaults_; }

    /** True if any resource is currently zeroed by a fault. */
    bool faultActive() const { return zeroedResources_ > 0; }

    /** Instantaneous rate of a flow in GB/s (0 if finished). */
    double currentRateGBps(FlowId id) const;

    int activeFlows() const { return activeFlows_; }

    /** Live shards (diagnostics: the parallelism grain). */
    int activeShards() const { return activeShards_; }

    /** Total bytes delivered so far (conservation checks in tests). */
    double deliveredBytes() const { return delivered_; }

    /**
     * Wire bytes that have crossed @p resource so far. Dividing by
     * the elapsed time and the resource capacity gives utilization —
     * the quantity Figure 6's pipelining argument is about.
     */
    double resourceBytes(ResourceId resource) const;

  private:
    struct Flow
    {
        FlowId id = 0;
        std::vector<ResourceId> resources;
        double capGBps = 0.0;
        double remaining = 0.0; // bytes
        double rateGBps = 0.0;
        std::function<void()> onDone;
        bool live = false;
        int nextFree = -1;
    };

    /**
     * One shard: a connected component of the flow/resource graph.
     * All members are written either from the serial driving thread
     * or from the single worker processing the shard in a batch's
     * parallel phase — never both at once.
     */
    struct Shard
    {
        /** Member flows (arena indices) in ascending FlowId order —
         *  the completion-callback order within the shard. */
        std::vector<int> flows;
        /** Resources owned by this shard (lazily swept). */
        std::vector<ResourceId> touched;
        EventId pendingEvent = 0;
        TimeNs pendingAt = 0;
        /** Private settle clock: progress is booked shard-locally. */
        TimeNs lastSettled = 0;
        bool live = false;
        /** Lost flows since the last partition check. */
        bool membershipDirty = false;
        /** Parallel-phase outputs, folded in by the serial phase: */
        double settledBytes = 0.0;
        std::vector<std::function<void()>> done;
        std::vector<int> doneFlows;
        TimeNs nextDelayNs = -1;
        bool starved = false;
        /** Recompute scratch (kept warm per shard). */
        std::vector<Flow *> unfrozen;
    };

    /**
     * The shard-batch worker pool, created lazily from the threads()
     * setting (null when the effective lane count is 1, e.g. after
     * the hardware-concurrency cap).
     */
    SimWorkerPool *workerPool();

    int allocFlow();
    void freeFlow(int index);
    int allocShard();
    void freeShard(int shard);

    /** Books progress since the shard's last settle (shard-local). */
    void settleShard(Shard &shard);
    /** Folds a shard's settled bytes into the global total. */
    void foldDelivered(Shard &shard);

    /** Moves every flow and resource of @p from into @p into. */
    void mergeShardInto(int from, int into);

    /**
     * Splits a shard that lost flows back into connected components;
     * reschedules each component's next update. Serial phase only.
     */
    void partitionShard(int shard);

    /** Coalesces the shard's pending update event to @p when. */
    void scheduleShardUpdate(int shard, TimeNs when);

    /** Parallel phase: settle, complete, recompute one shard. */
    void shardParallel(int shard);
    /** Serial phase: fold totals, free flows, repartition, requeue. */
    void shardSerial(int shard);
    /** EventQueue batch entry point. */
    void runShardBatch(const std::vector<int> &batch);

    /** Max-min progressive filling over one shard's flows. */
    void recomputeShard(Shard &shard);

    /** Schedules the shard's next completion from current rates. */
    void scheduleCompletion(int shard, const std::vector<int> &flows);

    /** Applies one armed fault event (and schedules its recovery). */
    void activateFault(int index);

    /** Recomputes a resource's effective capacity from fault state. */
    void refreshCapacity(ResourceId resource);

    const Topology &topology_;
    EventQueue &events_;

    /** Flow arena with an embedded free list. */
    std::vector<Flow> flowArena_;
    int freeFlows_ = -1;
    int activeFlows_ = 0;
    FlowId nextId_ = 1;

    /** Shard pool with a free list. */
    std::vector<Shard> shards_;
    std::vector<int> freeShards_;
    int activeShards_ = 0;

    int threads_ = 1;
    std::unique_ptr<SimWorkerPool> pool_;
    SimProfile *profile_ = nullptr;

    double delivered_ = 0.0;
    std::vector<double> resourceBytes_;

    /** Effective resource capacities (base x active fault effects). */
    std::vector<double> capacity_;
    /** Pristine capacities, copied once (the topology is immutable). */
    std::vector<double> baseCapacity_;
    /** Product of active degrade factors per resource. */
    std::vector<double> degradeFactor_;
    /** Count of active zeroing faults (stall/link-down) per resource. */
    std::vector<int> zeroCount_;
    /** Number of resources with zeroCount_ > 0. */
    int zeroedResources_ = 0;
    /** Armed fault script (copied) and the indices already fired. */
    std::vector<FaultEvent> faultEvents_;
    std::vector<int> firedFaults_;
    bool faultsArmed_ = false;

    /** Number of active flows crossing each resource. */
    std::vector<int> flowCount_;
    /** Owning shard per resource (-1 when unowned). */
    std::vector<int> resourceShard_;
    /** Whether a resource is in its shard's touched list. */
    std::vector<char> inTouched_;

    // Recompute scratch, indexed by resource. Parallel shards write
    // disjoint entries (each resource has one owner).
    std::vector<double> remCap_;
    std::vector<int> usage_;

    // Partition scratch (serial phase only).
    std::vector<std::uint32_t> resEpoch_;
    std::vector<int> resOwner_;
    std::uint32_t epoch_ = 0;
    std::vector<int> ufParent_;
    std::vector<int> mergeScratch_;
    std::vector<int> flowMergeScratch_;
    std::vector<std::function<void()>> batchCallbacks_;
};

} // namespace mscclang

#endif // MSCCLANG_SIM_FLOW_NETWORK_H_
