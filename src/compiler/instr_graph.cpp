#include "compiler/instr_graph.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace mscclang {

std::string
InstrNode::toString() const
{
    std::string text = strprintf("#%d r%d %s", id, rank, irOpName(op));
    if (irOpReadsSrc(op))
        text += " src=" + src.toString();
    if (irOpWritesDst(op))
        text += " dst=" + dst.toString();
    if (sendPeer >= 0)
        text += strprintf(" ->%d", sendPeer);
    if (recvPeer >= 0)
        text += strprintf(" <-%d", recvPeer);
    if (splitCount > 1)
        text += strprintf(" split=%d/%d", splitIdx, splitCount);
    if (channel >= 0)
        text += strprintf(" ch=%d", channel);
    return text;
}

int
InstrGraph::addNode(InstrNode node)
{
    node.id = numNodes();
    nodes_.push_back(std::move(node));
    ends_.emplace_back();
    return nodes_.back().id;
}

void
InstrGraph::reserve(int nodes)
{
    nodes_.reserve(nodes);
    ends_.reserve(nodes);
}

void
InstrGraph::addEdge(int from, int to, DepKind kind)
{
    if (from == to)
        return;
    // Deduplicate; a True edge subsumes a false one on the same pair.
    NodeEnds &from_ends = ends_[from];
    for (int e = from_ends.firstSucc; e >= 0; e = links_[e].nextSucc) {
        InstrEdge &edge = edges_[e];
        if (edge.to == to) {
            if (kind == DepKind::True)
                edge.kind = DepKind::True;
            return;
        }
    }
    int idx = static_cast<int>(edges_.size());
    edges_.push_back(InstrEdge{ from, to, kind });
    links_.emplace_back();
    if (from_ends.lastSucc >= 0)
        links_[from_ends.lastSucc].nextSucc = idx;
    else
        from_ends.firstSucc = idx;
    from_ends.lastSucc = idx;
    NodeEnds &to_ends = ends_[to];
    if (to_ends.lastPred >= 0)
        links_[to_ends.lastPred].nextPred = idx;
    else
        to_ends.firstPred = idx;
    to_ends.lastPred = idx;
}

std::vector<int>
InstrGraph::livePreds(int id) const
{
    std::vector<int> out;
    forEachLivePred(id, [&](int from) { out.push_back(from); });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::vector<int>
InstrGraph::liveSuccs(int id) const
{
    std::vector<int> out;
    forEachLiveSucc(id, [&](int to) { out.push_back(to); });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void
InstrGraph::replaceNode(int from, int to)
{
    // Move every edge endpoint of `from` onto `to`. addEdge only
    // appends to other nodes' lists, so walking from's lists by index
    // stays valid while edges_ grows.
    for (int e = ends_[from].firstPred; e >= 0; e = links_[e].nextPred) {
        InstrEdge edge = edges_[e];
        if (edge.from == to)
            continue; // becomes a self-edge: drop by leaving it dead
        addEdge(edge.from, to, edge.kind);
    }
    for (int e = ends_[from].firstSucc; e >= 0; e = links_[e].nextSucc) {
        InstrEdge edge = edges_[e];
        if (edge.to == to)
            continue;
        addEdge(to, edge.to, edge.kind);
    }
    nodes_[from].live = false;
}

int
InstrGraph::numLive() const
{
    int live = 0;
    for (const InstrNode &node : nodes_) {
        if (node.live)
            live++;
    }
    return live;
}

void
InstrGraph::computeDepths()
{
    LiveGraph live(*this);
    std::vector<int> depth;
    std::vector<int> rdepth;
    live.computeDepths(depth, rdepth);
    for (int v = 0; v < live.size(); v++) {
        InstrNode &node = nodes_[live.nodeId(v)];
        node.depth = depth[v];
        node.rdepth = rdepth[v];
    }
}

LiveGraph::LiveGraph(const InstrGraph &graph)
{
    int n = graph.numNodes();
    index_.assign(n, -1);
    for (int id = 0; id < n; id++) {
        if (graph.node(id).live) {
            index_[id] = static_cast<int>(ids_.size());
            ids_.push_back(id);
        }
    }
    offsets_.reserve(ids_.size() + 1);
    offsets_.push_back(0);
    succs_.reserve(graph.edges().size() + ids_.size());
    for (int id : ids_) {
        graph.forEachLiveSucc(
            id, [&](int succ) { succs_.push_back(index_[succ]); });
        int comm = graph.node(id).commSucc;
        if (comm >= 0 && index_[comm] >= 0)
            succs_.push_back(index_[comm]);
        offsets_.push_back(static_cast<int>(succs_.size()));
    }
    indeg_.assign(ids_.size(), 0);
    for (int succ : succs_)
        indeg_[succ]++;
}

void
LiveGraph::computeDepths(std::vector<int> &depth,
                         std::vector<int> &rdepth) const
{
    // Kahn's algorithm; depth/rdepth are max-folds, so the order in
    // which edges are visited does not affect the result.
    int n = size();
    std::vector<int> remaining(indeg_);
    std::vector<int> topo;
    topo.reserve(n);
    for (int v = 0; v < n; v++) {
        if (remaining[v] == 0)
            topo.push_back(v);
    }
    depth.assign(n, 0);
    // The ready "queue" is the unprocessed tail of topo itself.
    for (size_t head = 0; head < topo.size(); head++) {
        int v = topo[head];
        for (int succ : succs(v)) {
            depth[succ] = std::max(depth[succ], depth[v] + 1);
            if (--remaining[succ] == 0)
                topo.push_back(succ);
        }
    }
    if (static_cast<int>(topo.size()) != n)
        throw CompileError("instruction DAG contains a cycle");

    rdepth.assign(n, 0);
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        int longest = 0;
        for (int succ : succs(*it))
            longest = std::max(longest, rdepth[succ] + 1);
        rdepth[*it] = longest;
    }
}

std::string
InstrGraph::dump() const
{
    std::string out;
    for (const InstrNode &node : nodes_) {
        if (!node.live)
            continue;
        out += node.toString();
        std::vector<int> preds = livePreds(node.id);
        if (!preds.empty()) {
            out += " preds=";
            for (size_t i = 0; i < preds.size(); i++)
                out += (i ? "," : "") + std::to_string(preds[i]);
        }
        if (node.commPred >= 0)
            out += strprintf(" comm<-#%d", node.commPred);
        out += "\n";
    }
    return out;
}

} // namespace mscclang
