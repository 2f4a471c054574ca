#include "compiler/schedule.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <tuple>

#include "common/error.h"
#include "common/strings.h"

namespace mscclang {

namespace {

/**
 * Packed (channel, peer) connection key: ranks get 21 bits, channels
 * the rest. Node ids are never packed — graph size is bounded only by
 * memory, which thousand-rank compiles need.
 */
constexpr int kFieldBits = 21;

/** (channel, peer) ownership key; peer must be >= 0. */
std::uint64_t
ownerKey(int channel, Rank peer)
{
    return (std::uint64_t(channel) << kFieldBits) | std::uint64_t(peer);
}

/**
 * A small map (channel, peer) -> int for one rank, as a vector sorted
 * by ownerKey: connection ownership (peer -> thread block index) and
 * fused pairings (peer -> the paired peer). A rank has at most two
 * entries per thread block, so a binary search over a few entries
 * replaces a hash lookup.
 */
class ConnTable
{
  public:
    /** The value of (channel, peer), or nullptr if absent. */
    const int *
    find(int channel, Rank peer) const
    {
        std::uint64_t key = ownerKey(channel, peer);
        auto it = lowerBound(key);
        return it != entries_.end() && it->first == key ? &it->second
                                                        : nullptr;
    }

    /** Sets the value of (channel, peer), inserting it if absent. */
    void
    set(int channel, Rank peer, int value)
    {
        std::uint64_t key = ownerKey(channel, peer);
        auto it = entries_.begin() + (lowerBound(key) - entries_.cbegin());
        if (it != entries_.end() && it->first == key)
            it->second = value;
        else
            entries_.insert(it, { key, value });
    }

    void clear() { entries_.clear(); }

  private:
    std::vector<std::pair<std::uint64_t, int>>::const_iterator
    lowerBound(std::uint64_t key) const
    {
        return std::lower_bound(
            entries_.begin(), entries_.end(), key,
            [](const auto &entry, std::uint64_t k) {
                return entry.first < k;
            });
    }

    std::vector<std::pair<std::uint64_t, int>> entries_;
};

/**
 * Union-find over communication edges. An edge is identified by the
 * id of its receiving node; edges linked through a fused instruction
 * (which receives on one and sends on the next) form a chain that
 * must live on a single channel (paper §5.2).
 */
class ChainFinder
{
  public:
    explicit ChainFinder(int n) : parent_(n)
    {
        for (int i = 0; i < n; i++)
            parent_[i] = i;
    }

    int
    find(int x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void
    unite(int a, int b)
    {
        parent_[find(a)] = find(b);
    }

  private:
    std::vector<int> parent_;
};

/**
 * Registry of fused-instruction pairings per (rank, channel). A fused
 * instruction forces its send connection and recv connection into one
 * thread block, so two fused instructions on the same rank and
 * channel must agree on the pairing.
 */
class PairingRegistry
{
  public:
    explicit PairingRegistry(int num_ranks)
        : bySend_(num_ranks), byRecv_(num_ranks)
    {
    }

    /** Tests whether pairing (sendPeer, recvPeer) fits at (rank, ch). */
    bool
    compatible(Rank rank, int channel, Rank send_peer,
               Rank recv_peer) const
    {
        const int *recv = bySend_[rank].find(channel, send_peer);
        if (recv != nullptr && *recv != recv_peer)
            return false;
        const int *send = byRecv_[rank].find(channel, recv_peer);
        if (send != nullptr && *send != send_peer)
            return false;
        return true;
    }

    void
    insert(Rank rank, int channel, Rank send_peer, Rank recv_peer)
    {
        bySend_[rank].set(channel, send_peer, recv_peer);
        byRecv_[rank].set(channel, recv_peer, send_peer);
    }

  private:
    std::vector<ConnTable> bySend_;
    std::vector<ConnTable> byRecv_;
};

/** All per-chain facts needed to pick its channel. */
struct Chain
{
    std::vector<int> recvNodes; // member edges, by receiving node id
    int directive = -1;
    int splitIdx = 0;
    int splitCount = 1;
    std::vector<int> opIds; // deduplicated, ascending
};

/** Key of a thread block before ids are assigned. */
struct TbKey
{
    int channel = 0;
    Rank sendPeer = -1;
    Rank recvPeer = -1;

    bool
    operator<(const TbKey &other) const
    {
        return std::tie(channel, sendPeer, recvPeer) <
            std::tie(other.channel, other.sendPeer, other.recvPeer);
    }
};

/** Channel assignment (paper §5.2, "Channel Assignment"). */
void
assignChannels(InstrGraph &graph)
{
    int n = graph.numNodes();
    ChainFinder chains(n);
    int max_op_id = -1;
    for (int id = 0; id < n; id++) {
        const InstrNode &node = graph.node(id);
        if (!node.live)
            continue;
        max_op_id = std::max(max_op_id, node.opId);
        // A fused instruction links its incoming edge (keyed by this
        // node) with its outgoing edge (keyed by its comm successor).
        if (node.commPred >= 0 && node.commSucc >= 0)
            chains.unite(id, node.commSucc);
    }

    // Chains in order of their smallest receiving node: the scan
    // below visits ids ascending, so that is creation order.
    std::vector<Chain> chain_store;
    std::vector<int> by_root(n, -1); // root -> chain_store index
    for (int id = 0; id < n; id++) {
        const InstrNode &node = graph.node(id);
        if (!node.live || node.commPred < 0)
            continue; // not a receiving edge endpoint
        int &slot = by_root[chains.find(id)];
        if (slot < 0) {
            slot = static_cast<int>(chain_store.size());
            chain_store.emplace_back();
        }
        Chain &chain = chain_store[slot];
        if (chain.recvNodes.empty()) {
            chain.splitIdx = node.splitIdx;
            chain.splitCount = node.splitCount;
        }
        chain.recvNodes.push_back(id);
        if (node.splitIdx != chain.splitIdx ||
            node.splitCount != chain.splitCount) {
            throw CompileError(
                "channel assignment: fused chain mixes parallelization "
                "instances");
        }
        const InstrNode &sender = graph.node(node.commPred);
        for (int directive : { node.chanDirective, sender.chanDirective }) {
            if (directive < 0)
                continue;
            if (chain.directive >= 0 && chain.directive != directive) {
                throw CompileError(strprintf(
                    "conflicting channel directives %d and %d on one "
                    "fused chain", chain.directive, directive));
            }
            chain.directive = directive;
        }
        chain.opIds.push_back(node.opId);
        chain.opIds.push_back(sender.opId);
    }
    // Only membership in opIds matters, so deduplicate once per chain
    // (a ring's chain spans every rank: a per-insert scan is
    // quadratic in its length).
    for (Chain &chain : chain_store) {
        std::vector<int> &ops = chain.opIds;
        std::sort(ops.begin(), ops.end());
        ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
    }

    PairingRegistry pairings(graph.numRanks());
    // Channels already used by some instance of an op: sibling
    // instances of a parallelized op must not share a channel.
    // Indexed densely by opId + 1 (opId -1 maps to slot 0).
    std::vector<std::vector<int>> op_channels(max_op_id + 2);

    auto conflicts = [&](const Chain &chain, int channel) {
        for (int op_id : chain.opIds) {
            const std::vector<int> &used = op_channels[op_id + 1];
            if (std::find(used.begin(), used.end(), channel) !=
                used.end()) {
                return true;
            }
        }
        for (int recv_id : chain.recvNodes) {
            const InstrNode &node = graph.node(recv_id);
            if (node.commSucc >= 0) {
                // fused: forces pairing (sendPeer, recvPeer) at node
                if (!pairings.compatible(node.rank, channel,
                                         node.sendPeer, node.recvPeer)) {
                    return true;
                }
            }
        }
        return false;
    };

    auto commit = [&](Chain &chain, int channel) {
        // conflicts() already ruled the channel absent for every op.
        for (int op_id : chain.opIds)
            op_channels[op_id + 1].push_back(channel);
        for (int recv_id : chain.recvNodes) {
            InstrNode &node = graph.node(recv_id);
            node.channel = channel;
            graph.node(node.commPred).channel = channel;
            if (node.commSucc >= 0) {
                pairings.insert(node.rank, channel, node.sendPeer,
                                node.recvPeer);
            }
        }
    };

    for (Chain &chain : chain_store) {
        if (chain.directive >= 0) {
            int channel =
                chain.directive * chain.splitCount + chain.splitIdx;
            if (conflicts(chain, channel)) {
                throw CompileError(strprintf(
                    "channel directive %d (instance %d/%d -> channel %d) "
                    "conflicts with another fused chain",
                    chain.directive, chain.splitIdx, chain.splitCount,
                    channel));
            }
            commit(chain, channel);
            continue;
        }
        for (int base = 0;; base++) {
            int channel = base * chain.splitCount + chain.splitIdx;
            if (!conflicts(chain, channel)) {
                commit(chain, channel);
                break;
            }
            if (base > graph.numNodes()) {
                throw CompileError(
                    "channel assignment failed to converge");
            }
        }
    }
}

struct TbState
{
    TbKey key;
    int id = -1;
    std::vector<int> steps;   // compact node indexes in order
    long lastAssigned = -1;   // global schedule sequence
};

/** Per-rank thread block construction (paper §5.2, step 2). */
struct RankTbs
{
    std::vector<TbState> tbs;
    /** Connection ownership: (channel, peer) -> tb index. */
    ConnTable sendOwner;
    ConnTable recvOwner;
};

std::vector<RankTbs>
createThreadBlocks(InstrGraph &graph, const ScheduleOptions &options,
                   bool merge_ib_pairs)
{
    const Topology *topo = options.topology;
    // Should an unfused send to `peer` share a thread block with an
    // unfused receive? Intra-node pairs always share (one NCCL
    // channel serves both directions); IB pairs get their own blocks
    // unless SM pressure forces sharing.
    auto may_pair = [&](Rank rank, Rank peer) {
        if (merge_ib_pairs || topo == nullptr || peer < 0)
            return true;
        return topo->nodeOf(rank) == topo->nodeOf(peer);
    };
    std::vector<RankTbs> ranks(graph.numRanks());

    // One scan feeds both passes and the local-work check below.
    std::vector<std::vector<std::tuple<int, Rank, Rank>>> fused_keys(
        graph.numRanks());
    std::vector<char> has_local(graph.numRanks(), 0);
    for (const InstrNode &node : graph.nodes()) {
        if (!node.live)
            continue;
        if (node.sends() && node.receives()) {
            fused_keys[node.rank].push_back(
                { node.channel, node.sendPeer, node.recvPeer });
        } else if (!node.sends() && !node.receives()) {
            has_local[node.rank] = 1;
        }
    }

    // Pass 1: fused instructions force (channel, sendPeer, recvPeer)
    // tuples.
    for (int r = 0; r < graph.numRanks(); r++) {
        std::vector<std::tuple<int, Rank, Rank>> &keys = fused_keys[r];
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        for (const auto &[channel, send_peer, recv_peer] : keys) {
            TbState tb;
            tb.key = TbKey{ channel, send_peer, recv_peer };
            int idx = static_cast<int>(ranks[r].tbs.size());
            if (ranks[r].sendOwner.find(channel, send_peer) != nullptr ||
                ranks[r].recvOwner.find(channel, recv_peer) != nullptr) {
                throw CompileError(strprintf(
                    "rank %d channel %d: connection claimed by two "
                    "thread blocks", r, channel));
            }
            ranks[r].sendOwner.set(channel, send_peer, idx);
            ranks[r].recvOwner.set(channel, recv_peer, idx);
            ranks[r].tbs.push_back(std::move(tb));
        }
    }

    // Pass 2: unowned plain connections, paired send+recv per channel
    // where possible to conserve thread blocks. Collected as flat
    // (channel, peer) lists per rank; sorting them groups by channel
    // with peers ascending, matching the per-channel sorted sweep the
    // set/map version performed.
    std::vector<std::vector<std::pair<int, Rank>>> loose_sends(
        graph.numRanks());
    std::vector<std::vector<std::pair<int, Rank>>> loose_recvs(
        graph.numRanks());
    for (const InstrNode &node : graph.nodes()) {
        if (!node.live)
            continue;
        RankTbs &rank = ranks[node.rank];
        if (node.sends() &&
            rank.sendOwner.find(node.channel, node.sendPeer) == nullptr) {
            loose_sends[node.rank].push_back(
                { node.channel, node.sendPeer });
            // placeholder to dedupe
            rank.sendOwner.set(node.channel, node.sendPeer, -1);
        }
        if (node.receives() &&
            rank.recvOwner.find(node.channel, node.recvPeer) == nullptr) {
            loose_recvs[node.rank].push_back(
                { node.channel, node.recvPeer });
            rank.recvOwner.set(node.channel, node.recvPeer, -1);
        }
    }
    for (int r = 0; r < graph.numRanks(); r++) {
        std::vector<std::pair<int, Rank>> &sends = loose_sends[r];
        std::vector<std::pair<int, Rank>> &recvs = loose_recvs[r];
        std::sort(sends.begin(), sends.end());
        std::sort(recvs.begin(), recvs.end());
        for (size_t i = 0; i < sends.size();) {
            int channel = sends[i].first;
            // Receive peers still loose on this channel, ascending.
            std::vector<Rank> rpeers;
            auto lo = std::lower_bound(
                recvs.begin(), recvs.end(),
                std::make_pair(channel, std::numeric_limits<Rank>::min()));
            for (auto it = lo; it != recvs.end() && it->first == channel;
                 ++it) {
                rpeers.push_back(it->second);
            }
            // Prefer symmetric pairing: send to p with recv from p.
            for (; i < sends.size() && sends[i].first == channel; i++) {
                Rank send_peer = sends[i].second;
                Rank recv_peer = -1;
                if (may_pair(r, send_peer)) {
                    auto same = std::find(rpeers.begin(), rpeers.end(),
                                          send_peer);
                    if (same != rpeers.end()) {
                        recv_peer = *same;
                        rpeers.erase(same);
                    } else {
                        auto other = std::find_if(
                            rpeers.begin(), rpeers.end(),
                            [&](Rank q) { return may_pair(r, q); });
                        if (other != rpeers.end()) {
                            recv_peer = *other;
                            rpeers.erase(other);
                        }
                    }
                }
                TbState tb;
                tb.key = TbKey{ channel, send_peer, recv_peer };
                int idx = static_cast<int>(ranks[r].tbs.size());
                ranks[r].sendOwner.set(channel, send_peer, idx);
                if (recv_peer >= 0)
                    ranks[r].recvOwner.set(channel, recv_peer, idx);
                ranks[r].tbs.push_back(std::move(tb));
            }
        }
        for (const auto &[channel, recv_peer] : recvs) {
            if (*ranks[r].recvOwner.find(channel, recv_peer) != -1)
                continue; // already paired above
            TbState tb;
            tb.key = TbKey{ channel, -1, recv_peer };
            int idx = static_cast<int>(ranks[r].tbs.size());
            ranks[r].recvOwner.set(channel, recv_peer, idx);
            ranks[r].tbs.push_back(std::move(tb));
        }
        // A rank with only local work still needs one thread block.
        if (ranks[r].tbs.empty() && has_local[r]) {
            TbState tb;
            tb.key = TbKey{ 0, -1, -1 };
            ranks[r].tbs.push_back(std::move(tb));
        }
        // Deterministic ids: sort by (channel, sendPeer, recvPeer).
        std::sort(ranks[r].tbs.begin(), ranks[r].tbs.end(),
                  [](const TbState &a, const TbState &b) {
                      return a.key < b.key;
                  });
        ranks[r].sendOwner.clear();
        ranks[r].recvOwner.clear();
        for (size_t i = 0; i < ranks[r].tbs.size(); i++) {
            TbState &tb = ranks[r].tbs[i];
            tb.id = static_cast<int>(i);
            if (tb.key.sendPeer >= 0)
                ranks[r].sendOwner.set(tb.key.channel, tb.key.sendPeer,
                                       tb.id);
            if (tb.key.recvPeer >= 0)
                ranks[r].recvOwner.set(tb.key.channel, tb.key.recvPeer,
                                       tb.id);
        }
    }
    return ranks;
}

/**
 * FIFO gate and slot-accounting plan for the second scheduling sweep,
 * over compact node indexes. Every send connection (src, dst,
 * channel) is owned by exactly one sending thread block, whose global
 * index names the connection. Connection c has two ordered gate
 * lists: gate 2c for its send-side instructions and gate 2c + 1 for
 * its receive-side instructions.
 */
struct GatePlan
{
    /** Per node: connection of its send/recv half (-1 none). */
    std::vector<int> sendConn, recvConn;
    /** Per gate: required order of compact node indexes. */
    std::vector<std::vector<int>> gateOrder;
    int numConns = 0;
};

/**
 * The gated heap-driven topological sweep over the live graph in
 * priority order (paper §5.2, steps 1 and 3). The priority order is
 * total and fixed, so the heap holds each node's position in it:
 * @p by_priority lists the nodes in that order and @p position is its
 * inverse. A node with a gate must wait for its turn in that gate's
 * list.
 */
std::vector<int>
topoSweep(const LiveGraph &live, const std::vector<int> &by_priority,
          const std::vector<int> &position, const GatePlan &plan)
{
    int n = live.size();
    std::vector<int> remaining(n);
    for (int v = 0; v < n; v++)
        remaining[v] = live.indegree(v);

    std::priority_queue<int, std::vector<int>, std::greater<int>> heap;
    for (int v = 0; v < n; v++) {
        if (remaining[v] == 0)
            heap.push(position[v]);
    }

    // Per-gate progress; a node out of turn parks on the gate that
    // blocked it (it can wait on at most one at a time) and is woken
    // when that gate reaches it.
    std::vector<size_t> gate_pos(plan.gateOrder.size(), 0);
    std::vector<int> parked_gate(n, -1);

    // Slot accounting (paper §6.1: the compiler must not emit
    // schedules with more than s outstanding sends). The emitted
    // order acts as a witness execution: a send is gated until fewer
    // than kFifoSlotsPerConnection (the depth every protocol provides
    // and the verifier assumes) of its connection's sends are
    // unreceived at this point of the order, so the runtime can
    // always follow the schedule without wedging on FIFO backpressure.
    std::vector<int> outstanding(plan.numConns, 0);
    std::vector<std::vector<int>> slot_blocked(plan.numConns);

    std::vector<int> order;
    order.reserve(n);
    while (!heap.empty()) {
        int v = by_priority[heap.top()];
        heap.pop();
        int send_conn = plan.sendConn[v];
        int recv_conn = plan.recvConn[v];
        int gates[2] = { send_conn >= 0 ? 2 * send_conn : -1,
                         recv_conn >= 0 ? 2 * recv_conn + 1 : -1 };

        // FIFO gate: the node must be next in line on each of its
        // connections (send side checked first).
        bool gated = false;
        for (int g : gates) {
            if (g < 0)
                continue;
            size_t pos = gate_pos[g];
            const std::vector<int> &seq = plan.gateOrder[g];
            if (pos < seq.size() && seq[pos] != v) {
                parked_gate[v] = g;
                gated = true;
                break;
            }
        }
        if (gated)
            continue;

        // Slot gate: sending with all FIFO slots full would wedge.
        if (send_conn >= 0) {
            if (outstanding[send_conn] >= kFifoSlotsPerConnection) {
                slot_blocked[send_conn].push_back(v);
                continue;
            }
            outstanding[send_conn]++;
        }
        if (recv_conn >= 0) {
            outstanding[recv_conn]--;
            // Wake every blocked sender; the heap re-ranks them.
            for (int waiter : slot_blocked[recv_conn])
                heap.push(position[waiter]);
            slot_blocked[recv_conn].clear();
        }

        order.push_back(v);
        for (int g : gates) {
            if (g < 0)
                continue;
            size_t pos = ++gate_pos[g];
            const std::vector<int> &seq = plan.gateOrder[g];
            if (pos < seq.size()) {
                int next = seq[pos];
                if (parked_gate[next] == g) {
                    parked_gate[next] = -1;
                    heap.push(position[next]);
                }
            }
        }

        for (int succ : live.succs(v)) {
            if (--remaining[succ] == 0)
                heap.push(position[succ]);
        }
    }

    if (static_cast<int>(order.size()) != n) {
        throw CompileError(strprintf(
            "scheduler: only %zu of %d instructions could be ordered; "
            "the program needs explicit channel directives to avoid a "
            "FIFO ordering conflict", order.size(), n));
    }
    return order;
}

/** Where each compact node landed: rank, thread block and step. */
struct Placement
{
    std::vector<int> rank;
    std::vector<int> tb;
    std::vector<int> step;
};

/**
 * Compact node indexes in scheduling priority order: depth ascending
 * (instructions enabled earlier), then rdepth descending (more
 * downstream dependencies), then index ascending for determinism
 * (paper §5.2, steps 1 and 3). Two stable counting sorts, least
 * significant key first.
 */
std::vector<int>
priorityOrder(const std::vector<int> &depth, const std::vector<int> &rdepth)
{
    int n = static_cast<int>(depth.size());
    auto stable_by = [n](const std::vector<int> &in, auto &&bucket_of,
                         int buckets) {
        std::vector<int> start(buckets + 1, 0);
        for (int v : in)
            start[bucket_of(v) + 1]++;
        for (int b = 0; b < buckets; b++)
            start[b + 1] += start[b];
        std::vector<int> out(n);
        for (int v : in)
            out[start[bucket_of(v)]++] = v;
        return out;
    };
    int max_depth = 0;
    int max_rdepth = 0;
    for (int v = 0; v < n; v++) {
        max_depth = std::max(max_depth, depth[v]);
        max_rdepth = std::max(max_rdepth, rdepth[v]);
    }
    std::vector<int> order(n);
    for (int v = 0; v < n; v++)
        order[v] = v;
    order = stable_by(
        order, [&](int v) { return max_rdepth - rdepth[v]; },
        max_rdepth + 1);
    return stable_by(
        order, [&](int v) { return depth[v]; }, max_depth + 1);
}

/** Greedy priority topological assignment (paper §5.2, steps 1-4). */
Placement
assignInstructions(InstrGraph &graph, const LiveGraph &live,
                   std::vector<RankTbs> &ranks)
{
    int n = live.size();
    Placement at;
    at.rank.resize(n);

    // Pass 1: unconstrained priority order; it fixes, for every
    // connection, the order in which sends (and therefore their
    // matched FIFO receives, paper §6.1) will happen. An ungated
    // heap sweep pops in nondecreasing depth (a node's predecessors
    // are all shallower, so each depth is fully ready before its
    // first node pops), which makes its order the priority order.
    std::vector<int> by_priority;
    {
        std::vector<int> depth;
        std::vector<int> rdepth;
        live.computeDepths(depth, rdepth);
        for (int v = 0; v < n; v++) {
            InstrNode &node = graph.node(live.nodeId(v));
            node.depth = depth[v];
            node.rdepth = rdepth[v];
            at.rank[v] = node.rank;
        }
        by_priority = priorityOrder(depth, rdepth);
    }
    std::vector<int> position(n);
    for (int i = 0; i < n; i++)
        position[by_priority[i]] = i;

    // The owning thread block of every communicating node; a node
    // that sends lives on its send connection's block.
    std::vector<int> tb_base(ranks.size() + 1, 0);
    for (size_t r = 0; r < ranks.size(); r++)
        tb_base[r + 1] = tb_base[r] + static_cast<int>(ranks[r].tbs.size());
    at.tb.assign(n, -1);
    for (int v = 0; v < n; v++) {
        const InstrNode &node = graph.node(live.nodeId(v));
        RankTbs &rank = ranks[node.rank];
        const int *owner = nullptr;
        if (node.sends()) {
            owner = rank.sendOwner.find(node.channel, node.sendPeer);
            if (owner == nullptr)
                throw CompileError("scheduler: unowned send connection");
        } else if (node.receives()) {
            owner = rank.recvOwner.find(node.channel, node.recvPeer);
            if (owner == nullptr)
                throw CompileError("scheduler: unowned recv connection");
        }
        if (owner != nullptr)
            at.tb[v] = *owner;
    }

    GatePlan plan;
    plan.numConns = tb_base.back();
    plan.sendConn.assign(n, -1);
    plan.recvConn.assign(n, -1);
    plan.gateOrder.resize(2 * static_cast<size_t>(plan.numConns));
    for (int v : by_priority) {
        const InstrNode &node = graph.node(live.nodeId(v));
        if (!node.sends())
            continue;
        int conn = tb_base[node.rank] + at.tb[v];
        int recv = live.indexOf(node.commSucc);
        if (recv < 0)
            throw CompileError("scheduler: send without a live receive");
        plan.gateOrder[2 * conn].push_back(v);
        plan.sendConn[v] = conn;
        plan.gateOrder[2 * conn + 1].push_back(recv);
        plan.recvConn[recv] = conn;
    }

    // Pass 2: the same priority sweep, now honoring FIFO turns on
    // both ends of every connection so the k-th receive always pairs
    // with the k-th send.
    std::vector<int> order =
        topoSweep(live, by_priority, position, plan);

    long sequence = 0;
    at.step.assign(n, -1);
    for (int v : order) {
        RankTbs &rank = ranks[at.rank[v]];
        TbState *tb = nullptr;
        if (at.tb[v] >= 0) {
            tb = &rank.tbs[at.tb[v]];
        } else {
            // Local instruction: any thread block on the rank; pick
            // the one whose latest assigned instruction is earliest
            // (paper §5.2, step 4).
            for (TbState &cand : rank.tbs) {
                if (tb == nullptr || cand.lastAssigned < tb->lastAssigned)
                    tb = &cand;
            }
            if (tb == nullptr)
                throw CompileError("scheduler: rank has no thread block");
        }
        at.tb[v] = tb->id;
        at.step[v] = static_cast<int>(tb->steps.size());
        InstrNode &node = graph.node(live.nodeId(v));
        node.tb = at.tb[v];
        node.step = at.step[v];
        tb->steps.push_back(v);
        tb->lastAssigned = sequence++;
    }
    return at;
}

/**
 * Cross thread block dependencies (paper §5.2), stored flat: node v's
 * are deps[offsets[v] .. offsets[v + 1]), one per predecessor thread
 * block (its latest step), sorted by thread block.
 */
struct CrossTbDeps
{
    std::vector<int> offsets;
    std::vector<IrDep> deps;
    /** Per node: some other thread block waits on it. */
    std::vector<char> hasDep;
};

CrossTbDeps
insertCrossTbDeps(const LiveGraph &live, const Placement &at)
{
    // Only same-rank edges between different blocks need an explicit
    // dependency: same-block order is implicit and a communication
    // edge always crosses ranks. Transpose those edges so each node
    // sees its predecessors together.
    int n = live.size();
    auto crosses = [&](int from, int to) {
        return at.rank[from] == at.rank[to] && at.tb[from] != at.tb[to];
    };
    std::vector<int> pred_offsets(n + 1, 0);
    for (int u = 0; u < n; u++) {
        for (int v : live.succs(u)) {
            if (crosses(u, v))
                pred_offsets[v + 1]++;
        }
    }
    for (int v = 0; v < n; v++)
        pred_offsets[v + 1] += pred_offsets[v];
    std::vector<int> preds(pred_offsets[n]);
    std::vector<int> fill(pred_offsets.begin(), pred_offsets.end() - 1);
    for (int u = 0; u < n; u++) {
        for (int v : live.succs(u)) {
            if (crosses(u, v))
                preds[fill[v]++] = u;
        }
    }

    CrossTbDeps out;
    out.offsets.reserve(n + 1);
    out.offsets.push_back(0);
    out.hasDep.assign(n, 0);
    for (int v = 0; v < n; v++) {
        auto first = static_cast<std::ptrdiff_t>(out.deps.size());
        for (int i = pred_offsets[v]; i < pred_offsets[v + 1]; i++) {
            int u = preds[i];
            out.hasDep[u] = 1;
            // Keep only the latest step per predecessor thread block.
            auto dep = std::find_if(
                out.deps.begin() + first, out.deps.end(),
                [&](const IrDep &d) { return d.tb == at.tb[u]; });
            if (dep != out.deps.end())
                dep->step = std::max(dep->step, at.step[u]);
            else
                out.deps.push_back(IrDep{ at.tb[u], at.step[u] });
        }
        std::sort(out.deps.begin() + first, out.deps.end(),
                  [](const IrDep &a, const IrDep &b) {
                      return std::tie(a.tb, a.step) <
                          std::tie(b.tb, b.step);
                  });
        out.offsets.push_back(static_cast<int>(out.deps.size()));
    }
    return out;
}

} // namespace

IrProgram
scheduleProgram(const Program &program, InstrGraph &graph,
                const ScheduleOptions &options)
{
    assignChannels(graph);
    auto over_limit = [&](const std::vector<RankTbs> &ranks) {
        for (const RankTbs &rank : ranks) {
            if (static_cast<int>(rank.tbs.size()) >
                options.maxThreadBlocks) {
                return true;
            }
        }
        return false;
    };
    std::vector<RankTbs> ranks =
        createThreadBlocks(graph, options, /*merge_ib_pairs=*/false);
    if (over_limit(ranks)) {
        // SM pressure: share thread blocks between IB send and
        // receive connections, like NCCL folding P2P work onto a
        // limited channel count.
        ranks = createThreadBlocks(graph, options,
                                   /*merge_ib_pairs=*/true);
    }
    for (int r = 0; r < graph.numRanks(); r++) {
        if (static_cast<int>(ranks[r].tbs.size()) >
            options.maxThreadBlocks) {
            throw CompileError(strprintf(
                "rank %d needs %zu thread blocks, exceeding the "
                "cooperative launch limit of %d", r, ranks[r].tbs.size(),
                options.maxThreadBlocks));
        }
    }
    // The graph's edges are final from here on; the sweeps and the
    // dependency pass run over one compact snapshot of it.
    LiveGraph live(graph);
    Placement at = assignInstructions(graph, live, ranks);
    CrossTbDeps deps = insertCrossTbDeps(live, at);

    const Collective &coll = program.collective();
    IrProgram ir;
    ir.name = program.options().name;
    ir.collective = coll.name();
    ir.numRanks = program.numRanks();
    ir.inPlace = coll.inPlace();
    ir.protocol = program.options().protocol;
    ir.reduceOp = program.options().reduceOp;
    ir.outputScale = coll.outputScale();
    ir.gpus.resize(program.numRanks());

    for (int r = 0; r < program.numRanks(); r++) {
        IrGpu &gpu = ir.gpus[r];
        gpu.rank = r;
        gpu.inputChunks = coll.inputChunkCount(r);
        gpu.outputChunks = coll.outputChunkCount(r);
        gpu.scratchChunks = program.scratchChunkCount(r);
        for (const TbState &tb : ranks[r].tbs) {
            IrThreadBlock out;
            out.id = tb.id;
            out.sendPeer = tb.key.sendPeer;
            out.recvPeer = tb.key.recvPeer;
            out.channel = tb.key.channel;
            for (int v : tb.steps) {
                const InstrNode &node = graph.node(live.nodeId(v));
                IrInstruction instr;
                instr.op = node.op;
                const BufferSlice &src =
                    irOpReadsSrc(node.op) ? node.src : node.dst;
                const BufferSlice &dst =
                    irOpWritesDst(node.op) ? node.dst : src;
                instr.srcBuf = src.buffer;
                instr.srcOff = src.index;
                instr.dstBuf = dst.buffer;
                instr.dstOff = dst.index;
                instr.count = irOpReadsSrc(node.op) ? src.count
                                                    : dst.count;
                instr.splitIdx = node.splitIdx;
                instr.splitCount = node.splitCount;
                instr.deps.assign(
                    deps.deps.begin() + deps.offsets[v],
                    deps.deps.begin() + deps.offsets[v + 1]);
                instr.hasDep = deps.hasDep[v] != 0;
                out.steps.push_back(std::move(instr));
            }
            gpu.threadBlocks.push_back(std::move(out));
        }
    }
    return ir;
}

} // namespace mscclang
