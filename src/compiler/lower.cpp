/**
 * @file
 * Instruction generation (paper §4.2): expands each traced chunk
 * operation — per parallelization instance — into point-to-point and
 * local instructions, and wires processing edges at sub-chunk
 * precision plus communication edges between matched send/recv pairs.
 */

#include <vector>

#include "common/error.h"
#include "compiler/instr_graph.h"

namespace mscclang {

namespace {

struct RangeAccess
{
    int node;
    bool isWrite;
    FracInterval range;
};

class LoweringContext
{
  public:
    LoweringContext(InstrGraph &graph, bool in_place)
        : graph_(graph), inPlace_(in_place),
          history_(3 * graph.numRanks())
    {
    }

    BufferSlice
    canonical(BufferSlice slice) const
    {
        if (inPlace_ && slice.buffer == BufferKind::Output)
            slice.buffer = BufferKind::Input;
        return slice;
    }

    /**
     * Registers the accesses of node @p id and adds processing edges
     * against every conflicting earlier access.
     */
    void
    recordAccesses(int id)
    {
        const InstrNode &node = graph_.node(id);
        if (irOpReadsSrc(node.op))
            accessSlice(id, node.src, node.splitIdx, node.splitCount,
                        false);
        if (node.op == IrOp::Reduce || node.op == IrOp::RecvReduceCopy) {
            // reduce reads its destination as the other operand
            accessSlice(id, node.dst, node.splitIdx, node.splitCount,
                        false);
        }
        if (irOpWritesDst(node.op))
            accessSlice(id, node.dst, node.splitIdx, node.splitCount,
                        true);
    }

  private:
    /**
     * Removes @p cut from every interval of uncovered_, building the
     * result in spare_ and swapping, so no access allocates once the
     * two buffers have grown to the largest fragment count seen.
     */
    void
    subtractRange(const FracInterval &cut)
    {
        spare_.clear();
        for (const FracInterval &part : uncovered_) {
            if (!part.overlaps(cut)) {
                spare_.push_back(part);
                continue;
            }
            if (part.lo < cut.lo)
                spare_.push_back(FracInterval{ part.lo, cut.lo });
            if (cut.hi < part.hi)
                spare_.push_back(FracInterval{ cut.hi, part.hi });
        }
        uncovered_.swap(spare_);
    }

    /**
     * Adds dependence edges for one access with shadowing precision:
     * scanning newest-first, a read depends only on the writers whose
     * bytes are still visible, and a write orders after the readers
     * and writers of the still-visible version — anything older is
     * already transitively ordered. This matters for fusion: a
     * forwarding send's sole predecessor must be the receive that
     * produced its data, not every historic writer of the location.
     */
    void
    accessSlice(int id, const BufferSlice &slice, int split_idx,
                int split_count, bool is_write)
    {
        FracInterval range = splitFraction(split_idx, split_count);
        for (int k = 0; k < slice.count; k++) {
            std::vector<RangeAccess> &accesses =
                historyOf(slice.rank, slice.buffer, slice.index + k);
            uncovered_.assign(1, range);
            for (auto it = accesses.rbegin();
                 it != accesses.rend() && !uncovered_.empty(); ++it) {
                const RangeAccess &prev = *it;
                if (prev.node == id)
                    continue;
                bool overlaps = false;
                for (const FracInterval &part : uncovered_) {
                    if (prev.range.overlaps(part)) {
                        overlaps = true;
                        break;
                    }
                }
                if (!overlaps)
                    continue;
                if (is_write && prev.isWrite) {
                    graph_.addEdge(prev.node, id, DepKind::Output);
                    subtractRange(prev.range);
                } else if (is_write) {
                    // Reader of the visible version: order after it,
                    // but it does not shadow older accesses.
                    graph_.addEdge(prev.node, id, DepKind::Anti);
                } else if (prev.isWrite) {
                    graph_.addEdge(prev.node, id, DepKind::True);
                    subtractRange(prev.range);
                }
            }
            // A write of the whole chunk shadows everything before it:
            // every later access is by a later node and its newest-
            // first scan stops here, so the older history is dead.
            if (is_write && split_count == 1)
                accesses.clear();
            accesses.push_back(RangeAccess{ id, is_write, range });
        }
    }

    /**
     * Access history per (rank, buffer) location, stored densely:
     * history_[rank * 3 + buffer][chunkIndex]. The history is only
     * ever looked up point-wise, never iterated, so the switch from
     * an ordered map changes no edge order.
     */
    std::vector<RangeAccess> &
    historyOf(Rank rank, BufferKind buffer, int index)
    {
        std::vector<std::vector<RangeAccess>> &buf =
            history_[static_cast<size_t>(rank) * 3 +
                     static_cast<size_t>(buffer)];
        if (index >= static_cast<int>(buf.size()))
            buf.resize(index + 1);
        return buf[index];
    }

    InstrGraph &graph_;
    bool inPlace_;
    std::vector<std::vector<std::vector<RangeAccess>>> history_;
    /** Still-visible part of the current access, and the spare
     *  buffer subtractRange() builds the next version in. */
    std::vector<FracInterval> uncovered_;
    std::vector<FracInterval> spare_;
};

} // namespace

InstrGraph
lowerProgram(const Program &program)
{
    InstrGraph graph(program.numRanks());
    LoweringContext ctx(graph, program.collective().inPlace());
    int instances = program.options().instances;

    // Every op lowers to one local instruction or a send/receive
    // pair per instance; size the graph once.
    long total_nodes = 0;
    for (const TraceOp &op : program.ops()) {
        bool local = op.src.rank == op.dst.rank;
        total_nodes += long(op.parFactor) * instances * (local ? 1 : 2);
    }
    graph.reserve(static_cast<int>(total_nodes));

    for (const TraceOp &op : program.ops()) {
        BufferSlice src = ctx.canonical(op.src);
        BufferSlice dst = ctx.canonical(op.dst);
        bool local = src.rank == dst.rank;
        if (op.kind == OpKind::Copy && local && src == dst)
            continue; // aliased no-op copy

        int total_split = op.parFactor * instances;
        for (int j = 0; j < total_split; j++) {
            auto base = [&](IrOp ir_op, Rank rank) {
                InstrNode node;
                node.op = ir_op;
                node.rank = rank;
                node.splitIdx = j;
                node.splitCount = total_split;
                node.chanDirective = op.channel;
                node.opId = op.id;
                return node;
            };

            if (op.kind == OpKind::Copy && local) {
                InstrNode node = base(IrOp::Copy, src.rank);
                node.src = src;
                node.dst = dst;
                ctx.recordAccesses(graph.addNode(std::move(node)));
            } else if (op.kind == OpKind::Copy) {
                InstrNode send = base(IrOp::Send, src.rank);
                send.src = src;
                send.sendPeer = dst.rank;
                int send_id = graph.addNode(std::move(send));
                ctx.recordAccesses(send_id);

                InstrNode recv = base(IrOp::Recv, dst.rank);
                recv.dst = dst;
                recv.recvPeer = src.rank;
                int recv_id = graph.addNode(std::move(recv));
                ctx.recordAccesses(recv_id);

                graph.node(send_id).commSucc = recv_id;
                graph.node(recv_id).commPred = send_id;
            } else if (op.kind == OpKind::Reduce && local) {
                InstrNode node = base(IrOp::Reduce, dst.rank);
                node.src = src; // the second operand
                node.dst = dst; // in-place target
                ctx.recordAccesses(graph.addNode(std::move(node)));
            } else {
                // Remote reduce: send the operand, recvReduceCopy at
                // the target (paper §4.2).
                InstrNode send = base(IrOp::Send, src.rank);
                send.src = src;
                send.sendPeer = dst.rank;
                int send_id = graph.addNode(std::move(send));
                ctx.recordAccesses(send_id);

                InstrNode rrc = base(IrOp::RecvReduceCopy, dst.rank);
                rrc.src = dst; // local operand
                rrc.dst = dst;
                rrc.recvPeer = src.rank;
                int rrc_id = graph.addNode(std::move(rrc));
                ctx.recordAccesses(rrc_id);

                graph.node(send_id).commSucc = rrc_id;
                graph.node(rrc_id).commPred = send_id;
            }
        }
    }
    return graph;
}

} // namespace mscclang
