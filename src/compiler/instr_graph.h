/**
 * @file
 * The Instruction DAG (paper §4.2): chunk operations expanded into
 * point-to-point and local primitives. Remote copies become a
 * send/recv pair joined by a communication edge; remote reduces become
 * send/recvReduceCopy; local operations stay single instructions.
 * Processing edges capture the execution-order dependencies within a
 * rank at sub-chunk precision (so parallelized sibling instances stay
 * independent). Fusion and scheduling transform this graph in place.
 */

#ifndef MSCCLANG_COMPILER_INSTR_GRAPH_H_
#define MSCCLANG_COMPILER_INSTR_GRAPH_H_

#include <span>
#include <string>
#include <vector>

#include "compiler/chunk_dag.h"
#include "compiler/frac.h"
#include "dsl/program.h"
#include "ir/ir.h"

namespace mscclang {

/** A processing edge between two instructions on the same rank. */
struct InstrEdge
{
    int from = -1;
    int to = -1;
    DepKind kind = DepKind::True;
};

/** One node of the Instruction DAG. */
struct InstrNode
{
    int id = -1;
    IrOp op = IrOp::Nop;
    Rank rank = 0;
    /** Local source slice (valid when irOpReadsSrc(op)). */
    BufferSlice src;
    /** Local destination slice (valid when irOpWritesDst(op)). */
    BufferSlice dst;
    /** Chunk-parallelization instance: this node moves byte fraction
     *  [splitIdx/splitCount, (splitIdx+1)/splitCount) of its slices. */
    int splitIdx = 0;
    int splitCount = 1;
    /** Peer this node sends to / receives from (-1 if none). */
    Rank sendPeer = -1;
    Rank recvPeer = -1;
    /** Channel directive from the DSL (-1 = auto). */
    int chanDirective = -1;
    /** Channel resolved by scheduling (-1 until assigned/local). */
    int channel = -1;
    /** Matched node on the peer rank for this node's recv/send half. */
    int commPred = -1;
    int commSucc = -1;
    /** Originating TraceOp id (instances of one op share it). */
    int opId = -1;
    /** False after the node is absorbed by instruction fusion. */
    bool live = true;

    /** Scheduling results. */
    int depth = 0;
    int rdepth = 0;
    int tb = -1;
    int step = -1;

    bool receives() const { return irOpReceives(op); }
    bool sends() const { return irOpSends(op); }

    std::string toString() const;
};

/**
 * The Instruction DAG plus side tables the passes need. Each node's
 * predecessor and successor edges form singly linked lists threaded
 * through per-edge links in insertion order, so adding a node or an
 * edge never allocates per node.
 */
class InstrGraph
{
  public:
    explicit InstrGraph(int num_ranks) : numRanks_(num_ranks) {}

    int numRanks() const { return numRanks_; }

    InstrNode &node(int id) { return nodes_[id]; }
    const InstrNode &node(int id) const { return nodes_[id]; }
    int numNodes() const { return static_cast<int>(nodes_.size()); }
    std::vector<InstrNode> &nodes() { return nodes_; }
    const std::vector<InstrNode> &nodes() const { return nodes_; }

    /** Appends a node, returning its id. */
    int addNode(InstrNode node);

    /** Reserves room for @p nodes nodes in total. */
    void reserve(int nodes);

    /** Adds a processing edge (deduplicated; True subsumes false). */
    void addEdge(int from, int to, DepKind kind);

    const std::vector<InstrEdge> &edges() const { return edges_; }

    /**
     * Visits the edge records entering / leaving node @p id in
     * insertion order, including those to dead nodes.
     */
    template <typename Fn>
    void
    forEachPredEdge(int id, Fn &&fn) const
    {
        for (int e = ends_[id].firstPred; e >= 0; e = links_[e].nextPred)
            fn(edges_[e]);
    }

    template <typename Fn>
    void
    forEachSuccEdge(int id, Fn &&fn) const
    {
        for (int e = ends_[id].firstSucc; e >= 0; e = links_[e].nextSucc)
            fn(edges_[e]);
    }

    /** Live predecessor/successor node ids through live edges. */
    std::vector<int> livePreds(int id) const;
    std::vector<int> liveSuccs(int id) const;

    /**
     * Visits every live predecessor/successor node id exactly once,
     * without allocating. addEdge deduplicates edge records per
     * (from, to) pair, so each live neighbor appears behind at most
     * one edge record; iteration follows edge insertion order, which
     * is only safe for consumers whose result is order-independent
     * (counts, max-folds, pushes into a totally ordered heap).
     */
    template <typename Fn>
    void
    forEachLivePred(int id, Fn &&fn) const
    {
        forEachPredEdge(id, [&](const InstrEdge &edge) {
            if (nodes_[edge.from].live && edge.from != id)
                fn(edge.from);
        });
    }

    template <typename Fn>
    void
    forEachLiveSucc(int id, Fn &&fn) const
    {
        forEachSuccEdge(id, [&](const InstrEdge &edge) {
            if (nodes_[edge.to].live && edge.to != id)
                fn(edge.to);
        });
    }

    /**
     * Rewires every edge endpoint at @p from to @p to and marks
     * @p from dead. Used by fusion; self-edges are dropped.
     */
    void replaceNode(int from, int to);

    /** Number of live nodes. */
    int numLive() const;

    /**
     * Computes depth (longest path from a root) and rdepth (longest
     * path to a leaf) over live nodes, following processing and
     * communication edges. Runs over a LiveGraph snapshot.
     * @throws CompileError if the live graph has a cycle.
     */
    void computeDepths();

    std::string dump() const;

  private:
    /** Per edge: the next edge leaving its source / entering its
     *  target (-1 ends the list). */
    struct EdgeLinks
    {
        int nextSucc = -1;
        int nextPred = -1;
    };
    /** Per node: the ends of its successor and predecessor lists. */
    struct NodeEnds
    {
        int firstSucc = -1;
        int lastSucc = -1;
        int firstPred = -1;
        int lastPred = -1;
    };

    int numRanks_;
    std::vector<InstrNode> nodes_;
    std::vector<InstrEdge> edges_;
    std::vector<EdgeLinks> links_;
    std::vector<NodeEnds> ends_;
};

/**
 * A compact read-only snapshot of the live Instruction DAG for the
 * passes that only walk it (depths, the scheduler's sweeps, cross
 * thread block dependencies). Live nodes are renumbered 0..size()-1
 * in ascending id order, so id tie-breaks carry over unchanged. The
 * successors of each node — processing edges plus its communication
 * edge — sit in one CSR array, next to the indegrees. Building it
 * walks the edge records once; later sweeps touch only flat ints.
 */
class LiveGraph
{
  public:
    explicit LiveGraph(const InstrGraph &graph);

    int size() const { return static_cast<int>(ids_.size()); }
    /** Node id of compact index @p v. */
    int nodeId(int v) const { return ids_[v]; }
    /** Compact index of node @p id, or -1 if it is dead. */
    int indexOf(int id) const { return index_[id]; }
    /** Compact successors of @p v (each live neighbor once, in edge
     *  insertion order, then the communication successor). */
    std::span<const int>
    succs(int v) const
    {
        return { succs_.data() + offsets_[v],
                 succs_.data() + offsets_[v + 1] };
    }
    int indegree(int v) const { return indeg_[v]; }

    /**
     * Longest path from a root (@p depth) and to a leaf (@p rdepth)
     * per compact index. @throws CompileError on a cycle.
     */
    void computeDepths(std::vector<int> &depth,
                       std::vector<int> &rdepth) const;

  private:
    std::vector<int> ids_;
    std::vector<int> index_;
    std::vector<int> offsets_;
    std::vector<int> succs_;
    std::vector<int> indeg_;
};

/**
 * Lowers a traced program into the initial Instruction DAG,
 * expanding parallelization instances and dropping no-op copies.
 * @p instances is the program-wide factor (options().instances).
 */
InstrGraph lowerProgram(const Program &program);

/** Applies the rcs/rrcs/rrs peephole fusion passes (paper §4.3). */
struct FusionStats
{
    int rcs = 0;
    int rrcs = 0;
    int rrs = 0;
};
FusionStats fuseInstructions(InstrGraph &graph);

} // namespace mscclang

#endif // MSCCLANG_COMPILER_INSTR_GRAPH_H_
