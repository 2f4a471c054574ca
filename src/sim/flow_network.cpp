#include "sim/flow_network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.h"
#include "sim/profile.h"

namespace mscclang {

namespace {

/** Bytes below which a flow counts as drained. */
constexpr double kDoneEpsilon = 1e-6;
/** Rate resolution, GB/s. */
constexpr double kRateEpsilon = 1e-12;
/**
 * Shard batches narrower than this run inline on the driving thread
 * even when a worker pool is available: the fan-out/barrier overhead
 * of a pooled forEach exceeds the win on small batches (the 16-rank
 * oversharding regression in BENCH_sim.json).
 */
constexpr std::size_t kMinParallelBatch = 4;

int
findRoot(std::vector<int> &parent, int x)
{
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

} // namespace

FlowNetwork::FlowNetwork(const Topology &topology, EventQueue &events)
    : topology_(topology), events_(events)
{
    int n = topology_.numResources();
    flowCount_.assign(n, 0);
    resourceShard_.assign(n, -1);
    inTouched_.assign(n, 0);
    remCap_.assign(n, 0.0);
    usage_.assign(n, 0);
    resourceBytes_.assign(n, 0.0);
    resEpoch_.assign(n, 0);
    resOwner_.assign(n, 0);
    capacity_.resize(n);
    degradeFactor_.assign(n, 1.0);
    zeroCount_.assign(n, 0);
    for (int r = 0; r < n; r++)
        capacity_[r] = topology_.resourceCapacityGBps(r);
    baseCapacity_ = capacity_;
    events_.setShardBatchRunner(
        [this](const std::vector<int> &batch) { runShardBatch(batch); });
}

FlowNetwork::~FlowNetwork() = default;

void
FlowNetwork::setThreads(int threads)
{
    threads = std::max(1, threads);
    if (threads == threads_)
        return;
    threads_ = threads;
    pool_.reset(); // rebuilt lazily at the next parallel batch
}

SimWorkerPool *
FlowNetwork::workerPool()
{
    if (threads_ > 1 && !pool_)
        pool_ = std::make_unique<SimWorkerPool>(threads_);
    // The pool caps its lane count at hardware concurrency; a capped-
    // to-one pool is pure overhead, so callers get null and run
    // inline instead.
    return pool_ && pool_->threads() > 1 ? pool_.get() : nullptr;
}

int
FlowNetwork::allocFlow()
{
    if (freeFlows_ >= 0) {
        int index = freeFlows_;
        freeFlows_ = flowArena_[index].nextFree;
        return index;
    }
    flowArena_.emplace_back();
    return static_cast<int>(flowArena_.size()) - 1;
}

void
FlowNetwork::freeFlow(int index)
{
    Flow &flow = flowArena_[index];
    flow.live = false;
    flow.onDone = nullptr;
    flow.rateGBps = 0.0;
    flow.remaining = 0.0;
    flow.nextFree = freeFlows_; // resources vector keeps its capacity
    freeFlows_ = index;
    activeFlows_--;
}

int
FlowNetwork::allocShard()
{
    int shard;
    if (!freeShards_.empty()) {
        shard = freeShards_.back();
        freeShards_.pop_back();
    } else {
        shards_.emplace_back();
        shard = static_cast<int>(shards_.size()) - 1;
    }
    Shard &s = shards_[shard];
    s.live = true;
    s.membershipDirty = false;
    s.pendingEvent = 0;
    s.pendingAt = 0;
    s.lastSettled = events_.now();
    s.settledBytes = 0.0;
    s.nextDelayNs = -1;
    s.starved = false;
    activeShards_++;
    return shard;
}

void
FlowNetwork::freeShard(int shard)
{
    Shard &s = shards_[shard];
    if (s.pendingEvent != 0) {
        events_.cancel(s.pendingEvent);
        s.pendingEvent = 0;
    }
    s.flows.clear();
    s.touched.clear();
    s.done.clear();
    s.doneFlows.clear();
    s.live = false;
    activeShards_--;
    freeShards_.push_back(shard);
}

void
FlowNetwork::injectFaults(const FaultSchedule &schedule)
{
    if (faultsArmed_)
        throw RuntimeError("FlowNetwork: faults already armed");
    faultsArmed_ = true;
    faultEvents_ = schedule.events;
    for (size_t i = 0; i < faultEvents_.size(); i++) {
        const FaultEvent &event = faultEvents_[i];
        if (event.resource < 0 ||
            event.resource >= topology_.numResources()) {
            throw RuntimeError("FlowNetwork: fault references unknown "
                               "resource");
        }
        int index = static_cast<int>(i);
        events_.schedule(usToNs(event.atUs),
                         [this, index] { activateFault(index); });
    }
}

void
FlowNetwork::refreshCapacity(ResourceId resource)
{
    capacity_[resource] = zeroCount_[resource] > 0
        ? 0.0
        : baseCapacity_[resource] * degradeFactor_[resource];
}

void
FlowNetwork::activateFault(int index)
{
    const FaultEvent &event = faultEvents_[index];
    ResourceId r = event.resource;
    // A capacity change can only shift rates inside the component the
    // resource belongs to: settle and requeue just that shard. An
    // unowned resource has no flows to disturb — the new capacity
    // simply greets the next flow that routes across it.
    int shard = resourceShard_[r];
    if (shard >= 0) {
        Shard &s = shards_[shard];
        settleShard(s);
        foldDelivered(s);
    }
    firedFaults_.push_back(index);
    bool bounded = event.durationUs > 0.0;
    switch (event.kind) {
      case FaultKind::Degrade:
        degradeFactor_[r] *= event.factor;
        break;
      case FaultKind::Stall:
      case FaultKind::LinkDown:
        if (zeroCount_[r]++ == 0)
            zeroedResources_++;
        break;
    }
    refreshCapacity(r);
    if (bounded && event.kind != FaultKind::LinkDown) {
        double factor = event.factor;
        FaultKind kind = event.kind;
        events_.scheduleAfter(usToNs(event.durationUs), [this, r,
                                                         factor, kind] {
            // Ownership may have changed since activation: resolve
            // the owning shard at recovery time.
            int owner = resourceShard_[r];
            if (owner >= 0) {
                Shard &s = shards_[owner];
                settleShard(s);
                foldDelivered(s);
            }
            if (kind == FaultKind::Degrade) {
                degradeFactor_[r] /= factor;
            } else if (--zeroCount_[r] == 0) {
                zeroedResources_--;
            }
            refreshCapacity(r);
            if (owner >= 0)
                scheduleShardUpdate(owner, events_.now());
        });
    }
    if (shard >= 0)
        scheduleShardUpdate(shard, events_.now());
}

FlowId
FlowNetwork::startFlow(const std::vector<ResourceId> &resources,
                       double cap_gbps, double bytes,
                       std::function<void()> on_done)
{
    if (cap_gbps <= 0.0)
        throw RuntimeError("FlowNetwork: non-positive flow cap");
    if (bytes < 0.0)
        throw RuntimeError("FlowNetwork: negative flow size");

    FlowId id = nextId_++;
    if (bytes <= kDoneEpsilon) {
        // Degenerate flow: complete "immediately" (still async so the
        // caller's state machine stays uniform).
        events_.scheduleAfter(0, std::move(on_done));
        return id;
    }

    // Find the shards this route crosses. Several means the new flow
    // couples previously independent components: merge them.
    mergeScratch_.clear();
    for (ResourceId r : resources) {
        int shard = resourceShard_[r];
        if (shard >= 0)
            mergeScratch_.push_back(shard);
    }
    std::sort(mergeScratch_.begin(), mergeScratch_.end());
    mergeScratch_.erase(std::unique(mergeScratch_.begin(),
                                    mergeScratch_.end()),
                        mergeScratch_.end());

    int target;
    if (mergeScratch_.empty()) {
        target = allocShard();
    } else {
        target = mergeScratch_[0];
        {
            Shard &t = shards_[target];
            settleShard(t);
            foldDelivered(t);
        }
        for (size_t i = 1; i < mergeScratch_.size(); i++) {
            Shard &src = shards_[mergeScratch_[i]];
            settleShard(src);
            foldDelivered(src);
            mergeShardInto(mergeScratch_[i], target);
        }
    }

    int index = allocFlow();
    Flow &flow = flowArena_[index];
    flow.id = id;
    flow.resources.assign(resources.begin(), resources.end());
    flow.capGBps = cap_gbps;
    flow.remaining = bytes;
    flow.rateGBps = 0.0;
    flow.onDone = std::move(on_done);
    flow.live = true;
    activeFlows_++;

    Shard &t = shards_[target];
    t.flows.push_back(index); // id is the max: order stays ascending
    for (ResourceId r : flow.resources) {
        flowCount_[r]++;
        if (resourceShard_[r] < 0)
            resourceShard_[r] = target;
        if (!inTouched_[r]) {
            inTouched_[r] = 1;
            t.touched.push_back(r);
        }
    }
    // Batch rate recomputation: many flows typically start at the
    // same instant (a phase boundary); one recomputation serves all.
    scheduleShardUpdate(target, events_.now());
    return id;
}

void
FlowNetwork::mergeShardInto(int from, int into)
{
    Shard &src = shards_[from];
    Shard &dst = shards_[into];
    if (src.pendingEvent != 0) {
        events_.cancel(src.pendingEvent);
        src.pendingEvent = 0;
    }
    flowMergeScratch_.clear();
    flowMergeScratch_.reserve(dst.flows.size() + src.flows.size());
    std::merge(dst.flows.begin(), dst.flows.end(), src.flows.begin(),
               src.flows.end(), std::back_inserter(flowMergeScratch_),
               [this](int a, int b) {
                   return flowArena_[a].id < flowArena_[b].id;
               });
    dst.flows.swap(flowMergeScratch_);
    src.flows.clear();
    for (ResourceId r : src.touched) {
        resourceShard_[r] = into; // inTouched_ stays set
        dst.touched.push_back(r);
    }
    src.touched.clear();
    dst.membershipDirty = dst.membershipDirty || src.membershipDirty;
    freeShard(from);
}

double
FlowNetwork::resourceBytes(ResourceId resource) const
{
    if (resource < 0 || resource >= topology_.numResources())
        throw RuntimeError("FlowNetwork: unknown resource");
    return resourceBytes_[resource];
}

double
FlowNetwork::currentRateGBps(FlowId id) const
{
    for (const Flow &flow : flowArena_) {
        if (flow.live && flow.id == id)
            return flow.rateGBps;
    }
    return 0.0;
}

void
FlowNetwork::settleShard(Shard &shard)
{
    TimeNs now = events_.now();
    double elapsed_ns = static_cast<double>(now - shard.lastSettled);
    shard.lastSettled = now;
    if (elapsed_ns <= 0.0)
        return;
    for (int index : shard.flows) {
        Flow &flow = flowArena_[index];
        // 1 GB/s == 1 byte/ns, so rate converts directly.
        double moved = flow.rateGBps * elapsed_ns;
        moved = std::min(moved, flow.remaining);
        flow.remaining -= moved;
        shard.settledBytes += moved;
        for (ResourceId r : flow.resources)
            resourceBytes_[r] += moved;
    }
}

void
FlowNetwork::foldDelivered(Shard &shard)
{
    delivered_ += shard.settledBytes;
    shard.settledBytes = 0.0;
}

void
FlowNetwork::scheduleShardUpdate(int shard, TimeNs when)
{
    Shard &s = shards_[shard];
    if (s.pendingEvent != 0) {
        if (when >= s.pendingAt)
            return; // an earlier or equal update is already queued
        events_.cancel(s.pendingEvent);
    }
    s.pendingAt = when;
    s.pendingEvent = events_.scheduleShard(when, shard);
}

void
FlowNetwork::runShardBatch(const std::vector<int> &batch)
{
    SimProfileTimer timer(profile_ ? &profile_->flowNetworkNs
                                   : nullptr);
    if (profile_)
        profile_->flowBatches++;

    // Parallel phase: each shard settles, completes, and recomputes
    // against its own state only. Workers claim shards in any order;
    // every per-shard result is independent of that order, so the
    // simulation is bit-identical at every thread count. Batches
    // narrower than kMinParallelBatch run inline: the fan-out and
    // barrier cost more than the shards themselves on small batches.
    SimWorkerPool *pool =
        batch.size() >= kMinParallelBatch ? workerPool() : nullptr;
    if (pool) {
        pool->forEach(batch.size(), [this, &batch](std::size_t i) {
            shardParallel(batch[i]);
        });
    } else {
        for (int shard : batch)
            shardParallel(shard);
    }

    // Serial phase, in the queue's deterministic (time, shard, seq)
    // batch order: fold totals, recycle flows, re-partition, requeue.
    batchCallbacks_.clear();
    for (int shard : batch)
        shardSerial(shard);

    // Completion callbacks run last — they may start new flows, and
    // flow starts mutate shard structure (merges), which must not
    // overlap the batch bookkeeping above. These callbacks carry the
    // whole interpreter forward, so their time is booked separately
    // (the serial Amdahl residue).
    timer.stop();
    SimProfileTimer cbTimer(profile_ ? &profile_->flowCallbacksNs
                                     : nullptr);
    for (std::size_t i = 0; i < batchCallbacks_.size(); i++)
        batchCallbacks_[i]();
    batchCallbacks_.clear();
}

void
FlowNetwork::shardParallel(int shard)
{
    Shard &s = shards_[shard];
    s.pendingEvent = 0; // consumed by the queue
    s.pendingAt = 0;
    settleShard(s);

    // Complete drained flows. Their callbacks run after the batch so
    // new flows see a consistent network; completion order within the
    // shard is flow start order (the list is FlowId-sorted).
    size_t kept = 0;
    for (size_t i = 0; i < s.flows.size(); i++) {
        int index = s.flows[i];
        Flow &flow = flowArena_[index];
        if (flow.remaining <= kDoneEpsilon) {
            for (ResourceId r : flow.resources)
                flowCount_[r]--; // every r is owned by this shard
            s.done.push_back(std::move(flow.onDone));
            flow.onDone = nullptr;
            s.doneFlows.push_back(index);
            s.membershipDirty = true;
        } else {
            s.flows[kept++] = index;
        }
    }
    s.flows.resize(kept);

    recomputeShard(s);
}

void
FlowNetwork::shardSerial(int shard)
{
    Shard &s = shards_[shard];
    foldDelivered(s);
    for (int index : s.doneFlows)
        freeFlow(index);
    s.doneFlows.clear();
    for (auto &cb : s.done)
        batchCallbacks_.push_back(std::move(cb));
    s.done.clear();
    if (s.starved)
        throw RuntimeError(
            "FlowNetwork: flow starved (zero-capacity route?)");
    if (s.flows.empty()) {
        freeShard(shard);
        return;
    }
    if (s.membershipDirty) {
        partitionShard(shard);
        return;
    }
    s.membershipDirty = false;
    if (s.nextDelayNs >= 0)
        scheduleShardUpdate(shard, events_.now() + s.nextDelayNs);
}

void
FlowNetwork::recomputeShard(Shard &s)
{
    // Sweep stale touched entries (resources whose last flow left,
    // releasing their shard ownership) and reset the per-resource
    // scratch for the live ones. The scratch arrays are global but
    // resource-indexed: parallel shards write disjoint entries.
    size_t live = 0;
    for (ResourceId r : s.touched) {
        if (flowCount_[r] > 0) {
            s.touched[live++] = r;
            remCap_[r] = capacity_[r];
            usage_[r] = flowCount_[r];
        } else {
            inTouched_[r] = 0;
            resourceShard_[r] = -1;
        }
    }
    s.touched.resize(live);

    // Progressive filling (max-min fairness with per-flow caps),
    // restricted to this component. Identical arithmetic to running
    // it globally: no resource or flow outside the shard interacts.
    s.unfrozen.clear();
    s.unfrozen.reserve(s.flows.size());
    for (int index : s.flows) {
        Flow &flow = flowArena_[index];
        flow.rateGBps = 0.0;
        s.unfrozen.push_back(&flow);
    }

    while (!s.unfrozen.empty()) {
        double inc = std::numeric_limits<double>::infinity();
        for (ResourceId r : s.touched) {
            if (usage_[r] > 0)
                inc = std::min(inc, remCap_[r] / usage_[r]);
        }
        for (Flow *flow : s.unfrozen)
            inc = std::min(inc, flow->capGBps - flow->rateGBps);
        inc = std::max(inc, 0.0);

        for (Flow *flow : s.unfrozen)
            flow->rateGBps += inc;
        for (ResourceId r : s.touched) {
            if (usage_[r] > 0)
                remCap_[r] = std::max(0.0, remCap_[r] - inc * usage_[r]);
        }

        // Freeze flows that hit their cap or a saturated resource,
        // releasing their usage counts for the next round.
        size_t next = 0;
        for (size_t i = 0; i < s.unfrozen.size(); i++) {
            Flow *flow = s.unfrozen[i];
            bool frozen =
                flow->rateGBps >= flow->capGBps - kRateEpsilon;
            for (ResourceId r : flow->resources) {
                if (remCap_[r] <= kRateEpsilon)
                    frozen = true;
            }
            if (frozen) {
                for (ResourceId r : flow->resources)
                    usage_[r]--;
            } else {
                s.unfrozen[next++] = flow;
            }
        }
        if (next == s.unfrozen.size())
            break; // numerically stuck; rates are valid, stop here
        s.unfrozen.resize(next);
    }

    // Find the earliest completion. Flows frozen at rate 0 by an
    // active fault simply make no progress (their completion is
    // rescheduled when the fault recovers — or never, for a hard
    // link-down, which the interpreter's watchdog detects). A flow
    // starved with no fault in sight is an error — raised from the
    // serial phase, since worker threads must not throw past the
    // batch barrier.
    s.starved = false;
    double earliest_ns = std::numeric_limits<double>::infinity();
    for (int index : s.flows) {
        Flow &flow = flowArena_[index];
        if (flow.rateGBps < kRateEpsilon) {
            bool faulted = false;
            for (ResourceId r : flow.resources)
                faulted = faulted || zeroCount_[r] > 0;
            if (!faulted)
                s.starved = true;
            continue;
        }
        earliest_ns = std::min(earliest_ns,
                               flow.remaining / flow.rateGBps);
    }
    s.nextDelayNs = std::isfinite(earliest_ns)
        ? std::max<TimeNs>(static_cast<TimeNs>(std::ceil(earliest_ns)),
                           1)
        : -1;
}

void
FlowNetwork::partitionShard(int shard)
{
    // Completions may have split the component: recover the connected
    // components of the survivors with a union-find over shared
    // resources. Rates computed on the merged set are already the
    // per-component fixed points (components share nothing), so the
    // split only redistributes bookkeeping — no recompute needed.
    std::vector<int> flows;
    flows.swap(shards_[shard].flows);
    std::vector<ResourceId> oldTouched;
    oldTouched.swap(shards_[shard].touched);
    shards_[shard].membershipDirty = false;

    const size_t n = flows.size();
    ufParent_.resize(n);
    std::iota(ufParent_.begin(), ufParent_.end(), 0);
    if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
        std::fill(resEpoch_.begin(), resEpoch_.end(), 0u);
        epoch_ = 0;
    }
    epoch_++;
    for (size_t i = 0; i < n; i++) {
        for (ResourceId r : flowArena_[flows[i]].resources) {
            if (resEpoch_[r] == epoch_) {
                int a = findRoot(ufParent_, static_cast<int>(i));
                int b = findRoot(ufParent_, resOwner_[r]);
                if (a != b)
                    ufParent_[b] = a;
            } else {
                resEpoch_[r] = epoch_;
                resOwner_[r] = static_cast<int>(i);
            }
        }
    }

    // Number groups by first appearance so the split is a
    // deterministic function of membership alone. (A root may have a
    // higher index than other members of its group, so the mapping is
    // keyed on the root, not discovered in index order.)
    std::vector<int> rootGroup(n, -1);
    std::vector<std::vector<int>> members;
    for (size_t i = 0; i < n; i++) {
        int root = findRoot(ufParent_, static_cast<int>(i));
        if (rootGroup[root] < 0) {
            rootGroup[root] = static_cast<int>(members.size());
            members.emplace_back();
        }
        members[rootGroup[root]].push_back(flows[i]);
    }

    TimeNs now = events_.now();
    if (members.size() == 1) {
        Shard &s = shards_[shard];
        s.flows.swap(flows);
        s.touched.swap(oldTouched);
        if (s.nextDelayNs >= 0)
            scheduleShardUpdate(shard, now + s.nextDelayNs);
        return;
    }

    // Real split: the first group keeps this shard id; the rest get
    // fresh shards (allocation order is deterministic). Ownership is
    // rebuilt from the member flows' routes.
    for (ResourceId r : oldTouched)
        inTouched_[r] = 0;
    for (size_t g = 0; g < members.size(); g++) {
        int sid = g == 0 ? shard : allocShard();
        Shard &s = shards_[sid]; // allocShard may move shards_
        s.flows = std::move(members[g]);
        s.lastSettled = now;
        s.membershipDirty = false;
        double earliest_ns = std::numeric_limits<double>::infinity();
        for (int index : s.flows) {
            Flow &flow = flowArena_[index];
            for (ResourceId r : flow.resources) {
                if (!inTouched_[r]) {
                    inTouched_[r] = 1;
                    resourceShard_[r] = sid;
                    s.touched.push_back(r);
                }
            }
            if (flow.rateGBps >= kRateEpsilon)
                earliest_ns = std::min(earliest_ns,
                                       flow.remaining / flow.rateGBps);
        }
        if (std::isfinite(earliest_ns)) {
            TimeNs delay =
                static_cast<TimeNs>(std::ceil(earliest_ns));
            scheduleShardUpdate(sid, now + std::max<TimeNs>(delay, 1));
        }
    }
}

} // namespace mscclang
