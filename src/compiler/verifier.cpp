#include "compiler/verifier.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/strings.h"
#include "compiler/frac.h"

namespace mscclang {

namespace {

/**
 * A buffer location holding symbolic values per byte-fraction
 * segment. Parallelized instances write disjoint fractions that later
 * whole-chunk reads see as one value once every instance has landed.
 */
class FractionalCell
{
  public:
    /** Writes @p value over @p range, splitting existing segments. */
    void
    write(const FracInterval &range, ChunkValue value)
    {
        // Segments are sorted and disjoint: a write spanning the first
        // and the last replaces them all (the whole-chunk common case).
        if (segments_.empty() ||
            (range.lo <= segments_.front().range.lo &&
             segments_.back().range.hi <= range.hi)) {
            segments_.clear();
            segments_.push_back(Segment{ range, std::move(value) });
            return;
        }
        std::vector<Segment> next;
        for (const Segment &seg : segments_) {
            if (!seg.range.overlaps(range)) {
                next.push_back(seg);
                continue;
            }
            if (seg.range.lo < range.lo) {
                next.push_back(
                    Segment{ { seg.range.lo, range.lo }, seg.value });
            }
            if (range.hi < seg.range.hi) {
                next.push_back(
                    Segment{ { range.hi, seg.range.hi }, seg.value });
            }
        }
        next.push_back(Segment{ range, std::move(value) });
        std::sort(next.begin(), next.end(),
                  [](const Segment &a, const Segment &b) {
                      return a.range.lo < b.range.lo;
                  });
        segments_ = std::move(next);
    }

    /**
     * Reads @p range; every byte must be initialized and hold the
     * same value. Returns nullopt with @p why set otherwise.
     */
    std::optional<ChunkValue>
    read(const FracInterval &range, std::string &why) const
    {
        std::optional<ChunkValue> value;
        Frac cursor = range.lo;
        for (const Segment &seg : segments_) {
            if (!seg.range.overlaps(range))
                continue;
            if (cursor < seg.range.lo) {
                why = "uninitialized bytes at fraction " +
                    cursor.toString();
                return std::nullopt;
            }
            if (value.has_value() && !(*value == seg.value)) {
                why = "torn read: fractions hold different values (" +
                    value->toString() + " vs " + seg.value.toString() +
                    ")";
                return std::nullopt;
            }
            value = seg.value;
            if (cursor < seg.range.hi)
                cursor = seg.range.hi;
        }
        if (cursor < range.hi) {
            why = "uninitialized bytes at fraction " + cursor.toString();
            return std::nullopt;
        }
        if (!value.has_value())
            why = "empty read range";
        return value;
    }

    /** Whole-location read convenience. */
    std::optional<ChunkValue>
    readAll(std::string &why) const
    {
        return read(FracInterval{ Frac::of(0, 1), Frac::of(1, 1) }, why);
    }

  private:
    struct Segment
    {
        FracInterval range;
        ChunkValue value;
    };

    std::vector<Segment> segments_;
};

/** One fraction of one chunk in flight on a connection. */
struct MessagePart
{
    int chunkRel = 0;
    FracInterval range;
    ChunkValue value;
};

using Message = std::vector<MessagePart>;

/**
 * Connection identity (src, dst, channel) packed into one integer so
 * the per-step queue lookups hash a word instead of comparing tuples.
 * Fields are packed most-significant-first, so sorting packed keys
 * reproduces tuple order for the deadlock report.
 */
using ConnKey = std::uint64_t;

ConnKey
connKeyOf(int src, int dst, int channel)
{
    return (std::uint64_t(src) << 43) | (std::uint64_t(dst) << 22) |
        std::uint64_t(channel);
}

/** Abstract machine state for one verification run. */
class AbstractMachine
{
  public:
    AbstractMachine(const IrProgram &ir, const Collective &collective,
                    const VerifyOptions &options)
        : ir_(ir), collective_(collective), options_(options)
    {
        buffers_.resize(ir.numRanks);
        cursors_.resize(ir.numRanks);
        for (const IrGpu &gpu : ir.gpus) {
            if (gpu.rank < 0 || gpu.rank >= ir.numRanks)
                throw VerificationError("IR names an out-of-range rank");
            RankBuffers &bufs = buffers_[gpu.rank];
            bufs.input.resize(gpu.inputChunks);
            if (!ir.inPlace)
                bufs.output.resize(gpu.outputChunks);
            bufs.scratch.resize(gpu.scratchChunks);
            for (int i = 0; i < gpu.inputChunks; i++) {
                bufs.input[i].write(
                    FracInterval{ Frac::of(0, 1), Frac::of(1, 1) },
                    ChunkValue::input(gpu.rank, i));
            }
            cursors_[gpu.rank].assign(gpu.threadBlocks.size(), 0);
        }
    }

    /** Runs to completion; throws on deadlock or semantic error. */
    void
    run()
    {
        bool progress = true;
        while (progress) {
            progress = false;
            for (const IrGpu &gpu : ir_.gpus) {
                for (const IrThreadBlock &tb : gpu.threadBlocks) {
                    while (tryStep(gpu, tb))
                        progress = true;
                }
            }
        }
        std::string blocked = blockedReport();
        if (!blocked.empty()) {
            // Report undelivered connections in (src, dst, channel)
            // order; packed keys sort the same way as the tuples did.
            std::vector<std::pair<ConnKey, size_t>> undelivered;
            for (const auto &[key, queue] : connections_) {
                if (!queue.empty())
                    undelivered.push_back({ key, queue.size() });
            }
            std::sort(undelivered.begin(), undelivered.end());
            std::string conns;
            for (const auto &[key, count] : undelivered) {
                conns += strprintf(
                    "  conn %d -> %d ch %d: %zu undelivered\n",
                    static_cast<int>(key >> 43),
                    static_cast<int>((key >> 22) & 0x1FFFFF),
                    static_cast<int>(key & 0x3FFFFF), count);
            }
            throw VerificationError("deadlock detected:\n" + blocked +
                                    conns);
        }
        if (options_.checkPostcondition)
            checkPostcondition();
    }

  private:
    struct RankBuffers
    {
        std::vector<FractionalCell> input;
        std::vector<FractionalCell> output;
        std::vector<FractionalCell> scratch;
    };

    std::vector<FractionalCell> &
    bufferOf(int rank, BufferKind kind)
    {
        RankBuffers &bufs = buffers_[rank];
        BufferKind canonical = kind;
        if (ir_.inPlace && kind == BufferKind::Output)
            canonical = BufferKind::Input;
        switch (canonical) {
          case BufferKind::Input: return bufs.input;
          case BufferKind::Output: return bufs.output;
          case BufferKind::Scratch: return bufs.scratch;
        }
        throw VerificationError("bad buffer kind");
    }

    ChunkValue
    readPart(int rank, BufferKind buf, int index,
             const FracInterval &range, const char *what)
    {
        std::vector<FractionalCell> &cells = bufferOf(rank, buf);
        if (index < 0 || static_cast<size_t>(index) >= cells.size()) {
            throw VerificationError(strprintf(
                "%s: rank %d %s[%d] out of bounds (%zu chunks)", what,
                rank, bufferKindName(buf), index, cells.size()));
        }
        std::string why;
        auto value = cells[index].read(range, why);
        if (!value.has_value()) {
            throw VerificationError(strprintf(
                "%s: rank %d %s[%d]: %s", what, rank,
                bufferKindName(buf), index, why.c_str()));
        }
        return std::move(*value);
    }

    void
    writePart(int rank, BufferKind buf, int index,
              const FracInterval &range, ChunkValue value,
              const char *what)
    {
        std::vector<FractionalCell> &cells = bufferOf(rank, buf);
        if (index < 0 || static_cast<size_t>(index) >= cells.size()) {
            throw VerificationError(strprintf(
                "%s: rank %d %s[%d] out of bounds (%zu chunks)", what,
                rank, bufferKindName(buf), index, cells.size()));
        }
        cells[index].write(range, std::move(value));
    }

    bool
    depsSatisfied(const IrGpu &gpu, const IrInstruction &instr) const
    {
        for (const IrDep &dep : instr.deps) {
            if (dep.tb < 0 ||
                static_cast<size_t>(dep.tb) >=
                    cursors_[gpu.rank].size()) {
                throw VerificationError(strprintf(
                    "rank %d: dependency names unknown thread block %d",
                    gpu.rank, dep.tb));
            }
            if (cursors_[gpu.rank][dep.tb] <= dep.step)
                return false;
        }
        return true;
    }

    /** Attempts the thread block's next instruction. */
    bool
    tryStep(const IrGpu &gpu, const IrThreadBlock &tb)
    {
        size_t tb_idx = static_cast<size_t>(tb.id);
        int &cursor = cursors_[gpu.rank][tb_idx];
        if (cursor >= static_cast<int>(tb.steps.size()))
            return false;
        const IrInstruction &instr = tb.steps[cursor];
        if (!depsSatisfied(gpu, instr))
            return false;

        bool receives = irOpReceives(instr.op);
        bool sends = irOpSends(instr.op);

        if (receives && tb.recvPeer < 0)
            throw VerificationError(strprintf(
                "rank %d tb %d: %s without a receive peer", gpu.rank,
                tb.id, irOpName(instr.op)));
        if (sends && tb.sendPeer < 0)
            throw VerificationError(strprintf(
                "rank %d tb %d: %s without a send peer", gpu.rank,
                tb.id, irOpName(instr.op)));

        std::deque<Message> *inbox = nullptr;
        if (receives) {
            auto it = connections_.find(
                connKeyOf(tb.recvPeer, gpu.rank, tb.channel));
            if (it == connections_.end() || it->second.empty())
                return false; // waiting for data
            inbox = &it->second;
        }
        std::deque<Message> *outbox = nullptr;
        if (sends) {
            outbox = &connections_[connKeyOf(gpu.rank, tb.sendPeer,
                                             tb.channel)];
            if (static_cast<int>(outbox->size()) >= options_.slots)
                return false; // waiting for a FIFO slot
        }

        // The instruction can execute; compute its effect. Every part
        // k covers chunk instr.*Off + k over the same byte fraction.
        FracInterval range =
            splitFraction(instr.splitIdx, instr.splitCount);
        size_t count = static_cast<size_t>(instr.count);

        Message incoming;
        if (receives) {
            incoming = std::move(inbox->front());
            inbox->pop_front();
            // Shape check: FIFO pairing must deliver exactly the
            // fractions this receive expects.
            if (incoming.size() != count) {
                throw VerificationError(strprintf(
                    "rank %d tb %d step %d: FIFO mismatch (message has "
                    "%zu parts, receive expects %zu)", gpu.rank, tb.id,
                    cursor, incoming.size(), count));
            }
            for (size_t i = 0; i < count; i++) {
                if (incoming[i].chunkRel != static_cast<int>(i) ||
                    !(incoming[i].range == range)) {
                    throw VerificationError(strprintf(
                        "rank %d tb %d step %d: FIFO mismatch (part %zu "
                        "shape differs from the matched send)",
                        gpu.rank, tb.id, cursor, i));
                }
            }
        }

        Message outgoing;
        if (sends)
            outgoing.reserve(count);
        switch (instr.op) {
          case IrOp::Nop:
            break;
          case IrOp::Send:
            for (int rel = 0; rel < instr.count; rel++) {
                ChunkValue value = readPart(
                    gpu.rank, instr.srcBuf, instr.srcOff + rel, range,
                    "send");
                outgoing.push_back(
                    MessagePart{ rel, range, std::move(value) });
            }
            break;
          case IrOp::Recv:
            for (size_t i = 0; i < count; i++) {
                writePart(gpu.rank, instr.dstBuf,
                          instr.dstOff + static_cast<int>(i),
                          range, std::move(incoming[i].value), "recv");
            }
            break;
          case IrOp::Copy:
            for (int rel = 0; rel < instr.count; rel++) {
                ChunkValue value = readPart(
                    gpu.rank, instr.srcBuf, instr.srcOff + rel, range,
                    "copy");
                writePart(gpu.rank, instr.dstBuf, instr.dstOff + rel,
                          range, std::move(value), "copy");
            }
            break;
          case IrOp::Reduce:
            for (int rel = 0; rel < instr.count; rel++) {
                ChunkValue a = readPart(gpu.rank, instr.srcBuf,
                                        instr.srcOff + rel, range,
                                        "reduce");
                ChunkValue b = readPart(gpu.rank, instr.dstBuf,
                                        instr.dstOff + rel, range,
                                        "reduce");
                writePart(gpu.rank, instr.dstBuf, instr.dstOff + rel,
                          range, ChunkValue::reduce(a, b), "reduce");
            }
            break;
          case IrOp::RecvReduceCopy:
          case IrOp::RecvReduceSend:
          case IrOp::RecvReduceCopySend:
            for (size_t i = 0; i < count; i++) {
                int rel = static_cast<int>(i);
                ChunkValue local = readPart(
                    gpu.rank, instr.srcBuf, instr.srcOff + rel, range,
                    irOpName(instr.op));
                ChunkValue combined =
                    ChunkValue::reduce(local, incoming[i].value);
                if (irOpWritesDst(instr.op)) {
                    // Copy only when the value is also sent on.
                    writePart(gpu.rank, instr.dstBuf,
                              instr.dstOff + rel, range,
                              sends ? ChunkValue(combined)
                                    : std::move(combined),
                              irOpName(instr.op));
                }
                if (sends) {
                    outgoing.push_back(
                        MessagePart{ rel, range, std::move(combined) });
                }
            }
            break;
          case IrOp::RecvCopySend:
            for (size_t i = 0; i < count; i++) {
                int rel = static_cast<int>(i);
                writePart(gpu.rank, instr.dstBuf, instr.dstOff + rel,
                          range, incoming[i].value, "rcs");
                outgoing.push_back(MessagePart{
                    rel, range, std::move(incoming[i].value) });
            }
            break;
        }

        if (sends)
            outbox->push_back(std::move(outgoing));

        cursor++;
        return true;
    }

    std::string
    blockedReport() const
    {
        std::string report;
        for (const IrGpu &gpu : ir_.gpus) {
            for (const IrThreadBlock &tb : gpu.threadBlocks) {
                int cursor = cursors_[gpu.rank][tb.id];
                if (cursor >= static_cast<int>(tb.steps.size()))
                    continue;
                const IrInstruction &instr = tb.steps[cursor];
                std::string reason = "dependency";
                if (irOpReceives(instr.op)) {
                    auto it = connections_.find(
                        connKeyOf(tb.recvPeer, gpu.rank, tb.channel));
                    size_t inbox =
                        it == connections_.end() ? 0 : it->second.size();
                    reason = strprintf("data from %d (inbox=%zu) or "
                                       "dependency", tb.recvPeer, inbox);
                } else if (irOpSends(instr.op)) {
                    auto it = connections_.find(
                        connKeyOf(gpu.rank, tb.sendPeer, tb.channel));
                    size_t queued =
                        it == connections_.end() ? 0 : it->second.size();
                    reason = strprintf("FIFO slot to %d (queued=%zu) or "
                                       "dependency", tb.sendPeer, queued);
                }
                report += formatBlockedThreadBlock(gpu.rank, tb.id,
                                                   cursor, instr,
                                                   reason);
            }
        }
        return report;
    }

    void
    checkPostcondition()
    {
        for (const IrGpu &gpu : ir_.gpus) {
            for (int i = 0; i < gpu.outputChunks; i++) {
                auto expected =
                    collective_.expectedOutput(gpu.rank, i);
                if (!expected.has_value())
                    continue;
                std::vector<FractionalCell> &cells =
                    bufferOf(gpu.rank, BufferKind::Output);
                if (static_cast<size_t>(i) >= cells.size()) {
                    throw VerificationError(strprintf(
                        "rank %d: output chunk %d missing", gpu.rank,
                        i));
                }
                std::string why;
                auto actual = cells[i].readAll(why);
                if (!actual.has_value()) {
                    throw VerificationError(strprintf(
                        "postcondition: rank %d output[%d]: %s",
                        gpu.rank, i, why.c_str()));
                }
                if (!(*actual == *expected)) {
                    throw VerificationError(strprintf(
                        "postcondition violated at rank %d output[%d]: "
                        "expected %s, got %s", gpu.rank, i,
                        expected->toString().c_str(),
                        actual->toString().c_str()));
                }
            }
        }
    }

    const IrProgram &ir_;
    const Collective &collective_;
    VerifyOptions options_;
    std::vector<RankBuffers> buffers_;
    std::vector<std::vector<int>> cursors_;
    std::unordered_map<ConnKey, std::deque<Message>> connections_;
};

} // namespace

void
verifyIr(const IrProgram &ir, const Collective &collective,
         const VerifyOptions &options)
{
    VerifyOptions resolved = options;
    if (resolved.slots == 0)
        resolved.slots = kFifoSlotsPerConnection;
    if (resolved.slots < 1)
        throw VerificationError("verifier: slots must be >= 1");
    AbstractMachine machine(ir, collective, resolved);
    machine.run();
}

namespace {

/** Flat instruction identity for the happens-before analysis. */
struct HbNode
{
    Rank rank;
    int tb;
    int step;
    const IrInstruction *instr;
    const IrThreadBlock *block;
};

/**
 * The happens-before graph of an IR program in CSR form: thread
 * block program order, cross-thread-block dependencies, and
 * FIFO-matched communication edges. Nodes are instructions with a
 * stable global index, densely addressed by (rank, tb, step): a
 * block's steps are consecutive nodes, and each rank lists its blocks
 * in numbering order, so walking them visits its nodes in ascending
 * index order.
 */
struct HbGraph
{
    std::vector<HbNode> nodes;
    int numRanks = 0;
    std::vector<std::vector<int>> tbBase; // [rank][tb]: node of step 0, or -1
    std::vector<std::vector<int>> tbLen;  // [rank][tb]: step count
    std::vector<std::vector<int>> rankTbs; // [rank]: tb ids, numbering order
    std::vector<int> succOff; // successors of v: succ[succOff[v]..succOff[v+1])
    std::vector<int> succ;

    int n() const { return static_cast<int>(nodes.size()); }

    /** Node of (rank, tb, step), or -1 if there is no such step. */
    int
    lookup(Rank rank, int tb, int step) const
    {
        if (rank < 0 || rank >= numRanks)
            return -1;
        const std::vector<int> &base = tbBase[rank];
        if (tb < 0 || tb >= static_cast<int>(base.size()) || base[tb] < 0)
            return -1;
        if (step < 0 || step >= tbLen[rank][tb])
            return -1;
        return base[tb] + step;
    }
};

/**
 * Builds the graph in linear time: edges are counted per source,
 * then written straight into the CSR arrays. Communication edges pair
 * the k-th send on a connection with its k-th receive; connections
 * are bucketed by dense id, numbered in sorted key order so an
 * imbalance names the lowest (src, dst, channel) connection.
 */
HbGraph
buildHbGraph(const IrProgram &ir)
{
    HbGraph g;
    int num_ranks = ir.numRanks;
    for (const IrGpu &gpu : ir.gpus) {
        if (gpu.rank < 0)
            throw VerificationError(
                "race check: IR names a negative rank");
        num_ranks = std::max(num_ranks, gpu.rank + 1);
    }
    g.numRanks = num_ranks;
    g.tbBase.resize(num_ranks);
    g.tbLen.resize(num_ranks);
    g.rankTbs.resize(num_ranks);
    size_t num_steps = 0;
    for (const IrGpu &gpu : ir.gpus) {
        for (const IrThreadBlock &tb : gpu.threadBlocks)
            num_steps += tb.steps.size();
    }
    g.nodes.reserve(num_steps);
    for (const IrGpu &gpu : ir.gpus) {
        std::vector<int> &base = g.tbBase[gpu.rank];
        std::vector<int> &len = g.tbLen[gpu.rank];
        for (const IrThreadBlock &tb : gpu.threadBlocks) {
            if (tb.id < 0)
                throw VerificationError(
                    "race check: IR names a negative thread block id");
            if (tb.id >= static_cast<int>(base.size())) {
                base.resize(tb.id + 1, -1);
                len.resize(tb.id + 1, 0);
            }
            if (base[tb.id] >= 0) {
                throw VerificationError(strprintf(
                    "race check: rank %d names thread block %d twice",
                    gpu.rank, tb.id));
            }
            base[tb.id] = static_cast<int>(g.nodes.size());
            len[tb.id] = static_cast<int>(tb.steps.size());
            g.rankTbs[gpu.rank].push_back(tb.id);
            for (size_t s = 0; s < tb.steps.size(); s++) {
                g.nodes.push_back(HbNode{ gpu.rank, tb.id,
                                          static_cast<int>(s),
                                          &tb.steps[s], &tb });
            }
        }
    }
    int n = g.n();
    auto has_next = [&](int v) {
        return g.nodes[v].step + 1 <
            static_cast<int>(g.nodes[v].block->steps.size());
    };
    auto dep_source = [&](int v, const IrDep &dep) {
        int from = g.lookup(g.nodes[v].rank, dep.tb, dep.step);
        if (from < 0)
            throw VerificationError(
                "race check: dependency on unknown instruction");
        return from;
    };

    // Count edges: out-degrees land in succOff[v + 1].
    g.succOff.assign(n + 1, 0);
    for (int v = 0; v < n; v++) {
        if (has_next(v))
            g.succOff[v + 1]++; // (a) thread block program order
        for (const IrDep &dep : g.nodes[v].instr->deps)
            g.succOff[dep_source(v, dep) + 1]++; // (b) cross-tb deps
    }

    // (c) communication edges: the k-th send on a connection
    //     happens-before the k-th receive (FIFO pairing). Every send
    //     must have a matched receive and vice versa — an imbalance
    //     would leave the surplus operations with no happens-before
    //     edge and silently weaken the analysis, so it is rejected.
    //     A block's sends share one key and so do its receives, so
    //     keys are gathered (and looked up) once per block.
    auto send_key = [](const HbNode &v) {
        return connKeyOf(v.rank, v.block->sendPeer, v.block->channel);
    };
    auto recv_key = [](const HbNode &v) {
        return connKeyOf(v.block->recvPeer, v.rank, v.block->channel);
    };
    std::vector<ConnKey> conns;
    for (int v = 0; v < n; v++) {
        if (v > 0 && g.nodes[v].block == g.nodes[v - 1].block)
            continue;
        conns.push_back(send_key(g.nodes[v]));
        conns.push_back(recv_key(g.nodes[v]));
    }
    std::sort(conns.begin(), conns.end());
    conns.erase(std::unique(conns.begin(), conns.end()), conns.end());
    int num_conns = static_cast<int>(conns.size());
    std::vector<int> send_conn(n, -1), recv_conn(n, -1);
    int block_send = -1, block_recv = -1;
    auto conn_id = [&](ConnKey key) {
        return static_cast<int>(
            std::lower_bound(conns.begin(), conns.end(), key) -
            conns.begin());
    };
    std::vector<int> sends(num_conns, 0);
    std::vector<int> recv_off(num_conns + 1, 0);
    for (int v = 0; v < n; v++) {
        const HbNode &node = g.nodes[v];
        if (v == 0 || node.block != g.nodes[v - 1].block) {
            block_send = conn_id(send_key(node));
            block_recv = conn_id(recv_key(node));
        }
        if (irOpSends(node.instr->op)) {
            send_conn[v] = block_send;
            sends[block_send]++;
        }
        if (irOpReceives(node.instr->op)) {
            recv_conn[v] = block_recv;
            recv_off[block_recv + 1]++;
        }
    }
    for (int c = 0; c < num_conns; c++) {
        if (sends[c] == recv_off[c + 1])
            continue;
        ConnKey key = conns[c];
        throw VerificationError(strprintf(
            "race check: connection %d -> %d channel %d has %d "
            "sends but %d receives; FIFO pairing requires equal "
            "counts", static_cast<int>(key >> 43),
            static_cast<int>((key >> 22) & 0x1FFFFF),
            static_cast<int>(key & 0x3FFFFF), sends[c],
            recv_off[c + 1]));
    }
    for (int c = 0; c < num_conns; c++)
        recv_off[c + 1] += recv_off[c];
    // Each connection's receives in node order; taken[c] counts the
    // ones already paired with a send.
    std::vector<int> recvs(recv_off[num_conns]);
    std::vector<int> taken(num_conns, 0);
    for (int v = 0; v < n; v++) {
        if (send_conn[v] >= 0)
            g.succOff[v + 1]++;
        int c = recv_conn[v];
        if (c >= 0)
            recvs[recv_off[c] + taken[c]++] = v;
    }
    std::fill(taken.begin(), taken.end(), 0);

    for (int v = 0; v < n; v++)
        g.succOff[v + 1] += g.succOff[v];
    g.succ.resize(g.succOff[n]);
    std::vector<int> cursor(g.succOff.begin(), g.succOff.end() - 1);
    for (int v = 0; v < n; v++) {
        if (has_next(v))
            g.succ[cursor[v]++] = v + 1;
        for (const IrDep &dep : g.nodes[v].instr->deps)
            g.succ[cursor[dep_source(v, dep)]++] = v;
        int c = send_conn[v];
        if (c >= 0)
            g.succ[cursor[v]++] = recvs[recv_off[c] + taken[c]++];
    }
    return g;
}

/** Kahn topological order; doubles as the cycle check. */
std::vector<int>
topoOrderOf(const HbGraph &g)
{
    int n = g.n();
    std::vector<int> order;
    order.reserve(n);
    std::vector<int> degree(n, 0);
    for (int w : g.succ)
        degree[w]++;
    std::vector<int> ready;
    for (int i = 0; i < n; i++) {
        if (degree[i] == 0)
            ready.push_back(i);
    }
    while (!ready.empty()) {
        int v = ready.back();
        ready.pop_back();
        order.push_back(v);
        for (int e = g.succOff[v]; e < g.succOff[v + 1]; e++) {
            if (--degree[g.succ[e]] == 0)
                ready.push_back(g.succ[e]);
        }
    }
    if (static_cast<int>(order.size()) != n)
        throw VerificationError(
            "race check: happens-before relation has a cycle");
    return order;
}

/** One recorded buffer access of one instruction. */
struct LocEntry
{
    int buffer; // canonical BufferKind as int
    int chunk;
    int node;
    bool isWrite;
    FracInterval range;
};

/** A conflicting access pair whose ordering must be proven. */
struct ConflictPair
{
    int a, b;
    int buffer, chunk;
};

/**
 * Enumerates rank @p rank's conflict pairs — same location,
 * overlapping fractions, at least one write, different thread blocks
 * — in (buffer, chunk, first access, second access) order.
 * Conflicting accesses always live on one rank. The first unordered
 * pair in this order is the one an error message names.
 */
std::vector<ConflictPair>
conflictPairs(const HbGraph &g, const IrProgram &ir, Rank rank)
{
    std::vector<LocEntry> entries;
    auto record = [&](int node, BufferKind buf, int off, bool write) {
        const IrInstruction &instr = *g.nodes[node].instr;
        FracInterval range =
            splitFraction(instr.splitIdx, instr.splitCount);
        BufferKind canonical = buf;
        if (ir.inPlace && buf == BufferKind::Output)
            canonical = BufferKind::Input;
        for (int k = 0; k < instr.count; k++) {
            entries.push_back(LocEntry{ static_cast<int>(canonical),
                                        off + k, node, write, range });
        }
    };
    // Recorded in ascending node order.
    for (int tb : g.rankTbs[rank]) {
        int first = g.tbBase[rank][tb];
        for (int i = first; i < first + g.tbLen[rank][tb]; i++) {
            const IrInstruction &instr = *g.nodes[i].instr;
            if (irOpReadsSrc(instr.op))
                record(i, instr.srcBuf, instr.srcOff, false);
            if (instr.op == IrOp::Reduce ||
                instr.op == IrOp::RecvReduceCopy) {
                record(i, instr.dstBuf, instr.dstOff, false);
            }
            if (irOpWritesDst(instr.op))
                record(i, instr.dstBuf, instr.dstOff, true);
        }
    }
    // Group by location, keeping node order within each group.
    std::stable_sort(entries.begin(), entries.end(),
                     [](const LocEntry &a, const LocEntry &b) {
                         return std::tie(a.buffer, a.chunk) <
                             std::tie(b.buffer, b.chunk);
                     });
    std::vector<ConflictPair> pairs;
    for (size_t lo = 0; lo < entries.size();) {
        size_t hi = lo;
        while (hi < entries.size() &&
               entries[hi].buffer == entries[lo].buffer &&
               entries[hi].chunk == entries[lo].chunk) {
            hi++;
        }
        for (size_t a = lo; a < hi; a++) {
            for (size_t b = a + 1; b < hi; b++) {
                if (entries[a].node == entries[b].node)
                    continue;
                if (!entries[a].isWrite && !entries[b].isWrite)
                    continue;
                if (!entries[a].range.overlaps(entries[b].range))
                    continue;
                if (g.nodes[entries[a].node].tb ==
                    g.nodes[entries[b].node].tb) {
                    continue; // ordered by program order
                }
                pairs.push_back(ConflictPair{ entries[a].node,
                                              entries[b].node,
                                              entries[a].buffer,
                                              entries[a].chunk });
            }
        }
        lo = hi;
    }
    return pairs;
}

std::string
raceMessage(const HbGraph &g, const ConflictPair &pair)
{
    const HbNode &na = g.nodes[pair.a];
    const HbNode &nb = g.nodes[pair.b];
    return strprintf(
        "data race: rank %d tb %d step %d and tb %d "
        "step %d access %s[%d] unordered",
        na.rank, na.tb, na.step, nb.tb, nb.step,
        bufferKindName(static_cast<BufferKind>(pair.buffer)),
        pair.chunk);
}

/**
 * Rank-local phase. Sweeps @p rank's @p topo nodes (the rank's nodes
 * in topological order) over the rank's own edges only — program
 * order and cross-thread-block deps — carrying per node one clock
 * per thread block that holds a pair member: the highest step of
 * that block that is an ancestor. A block's steps are a total order,
 * so (a, b) is ordered by a local path exactly when b's clock for
 * a's block reaches a's step, or the other way round. A local path is
 * also a global one. Returns the pairs no local path orders, in
 * their input order. Cost: the rank's nodes and deps times its
 * clock count.
 */
std::vector<ConflictPair>
locallyUnordered(const HbGraph &g, Rank rank, const int *topo,
                 const std::vector<ConflictPair> &pairs)
{
    const std::vector<int> &len = g.tbLen[rank];
    int num_tbs = static_cast<int>(len.size());
    std::vector<int> first_slot(num_tbs);
    int slots = 0;
    for (int tb = 0; tb < num_tbs; tb++) {
        first_slot[tb] = slots;
        slots += len[tb];
    }
    std::vector<int> col(num_tbs, -1);
    int cols = 0;
    for (const ConflictPair &pair : pairs) {
        for (int v : { pair.a, pair.b }) {
            if (col[g.nodes[v].tb] < 0)
                col[g.nodes[v].tb] = cols++;
        }
    }
    std::vector<int> clocks(static_cast<size_t>(slots) * cols, -1);
    auto clock = [&](int tb, int step) {
        return &clocks[static_cast<size_t>(first_slot[tb] + step) * cols];
    };
    for (int i = 0; i < slots; i++) {
        const HbNode &v = g.nodes[topo[i]];
        int *mine = clock(v.tb, v.step);
        if (v.step > 0)
            std::copy_n(clock(v.tb, v.step - 1), cols, mine);
        if (col[v.tb] >= 0)
            mine[col[v.tb]] = v.step;
        for (const IrDep &dep : v.instr->deps) {
            const int *from = clock(dep.tb, dep.step);
            for (int c = 0; c < cols; c++)
                mine[c] = std::max(mine[c], from[c]);
        }
    }
    auto precedes = [&](int a, int b) {
        const HbNode &na = g.nodes[a];
        const HbNode &nb = g.nodes[b];
        return clock(nb.tb, nb.step)[col[na.tb]] >= na.step;
    };
    std::vector<ConflictPair> open;
    for (const ConflictPair &pair : pairs) {
        if (!precedes(pair.a, pair.b) && !precedes(pair.b, pair.a))
            open.push_back(pair);
    }
    return open;
}

/**
 * The happens-before graph relabelled by topological position: node
 * order[p] becomes p. The fallback sweep then reads ancestor rows in
 * ascending memory order and writes only rows ahead of the one it
 * reads, instead of hopping across ranks in node-id order.
 */
struct TopoGraph
{
    std::vector<int> pos;     // node -> topological position
    std::vector<int> succOff; // successors of position p, as positions
    std::vector<int> succ;
};

TopoGraph
relabelByTopoOrder(const HbGraph &g, const std::vector<int> &order)
{
    int n = g.n();
    TopoGraph t;
    t.pos.resize(n);
    for (int p = 0; p < n; p++)
        t.pos[order[p]] = p;
    t.succOff.resize(n + 1);
    t.succ.reserve(g.succ.size());
    for (int p = 0; p < n; p++) {
        t.succOff[p] = static_cast<int>(t.succ.size());
        int v = order[p];
        for (int e = g.succOff[v]; e < g.succOff[v + 1]; e++)
            t.succ.push_back(t.pos[g.succ[e]]);
    }
    t.succOff[n] = static_cast<int>(t.succ.size());
    return t;
}

/**
 * Exact fallback for the pairs the local phase left open: one
 * ancestor bit column per pair member, propagated over the whole
 * graph in topological order. Returns the first unordered pair's
 * message, or "" when every pair is ordered.
 */
std::string
firstUnordered(const HbGraph &g, const TopoGraph &t,
               const std::vector<ConflictPair> &pairs)
{
    int n = g.n();
    std::vector<int> cols(n, -1); // by topological position
    int num_cols = 0;
    for (const ConflictPair &pair : pairs) {
        for (int v : { pair.a, pair.b }) {
            if (cols[t.pos[v]] < 0)
                cols[t.pos[v]] = num_cols++;
        }
    }

    size_t words = (static_cast<size_t>(num_cols) + 63) / 64;
    std::vector<std::uint64_t> anc(static_cast<size_t>(n) * words, 0);
    for (int p = 0; p < n; p++) {
        const std::uint64_t *src = &anc[static_cast<size_t>(p) * words];
        int pcol = cols[p];
        for (int e = t.succOff[p]; e < t.succOff[p + 1]; e++) {
            std::uint64_t *dst =
                &anc[static_cast<size_t>(t.succ[e]) * words];
            for (size_t w = 0; w < words; w++)
                dst[w] |= src[w];
            if (pcol >= 0) {
                dst[static_cast<size_t>(pcol) / 64] |= 1ULL
                    << (static_cast<size_t>(pcol) % 64);
            }
        }
    }
    auto bit = [&](int of, int ancestor) {
        int col = cols[t.pos[ancestor]];
        return (anc[static_cast<size_t>(t.pos[of]) * words +
                    static_cast<size_t>(col) / 64] >>
                    (static_cast<size_t>(col) % 64) &
                1) != 0;
    };
    for (const ConflictPair &pair : pairs) {
        if (bit(pair.b, pair.a) || bit(pair.a, pair.b))
            continue;
        return raceMessage(g, pair);
    }
    return std::string();
}

} // namespace

void
verifyRaceFree(const IrProgram &ir, int /* threads */)
{
    HbGraph g = buildHbGraph(ir);
    std::vector<int> order = topoOrderOf(g);
    // A rank with one thread block has no cross-block pairs.
    std::vector<std::vector<ConflictPair>> pairs(g.numRanks);
    for (Rank r = 0; r < g.numRanks; r++) {
        if (g.rankTbs[r].size() > 1)
            pairs[r] = conflictPairs(g, ir, r);
    }

    // The nodes of every rank with pairs, bucketed by rank in
    // topological order.
    std::vector<int> rank_off(g.numRanks + 1, 0);
    for (int v : order) {
        if (!pairs[g.nodes[v].rank].empty())
            rank_off[g.nodes[v].rank + 1]++;
    }
    for (Rank r = 0; r < g.numRanks; r++)
        rank_off[r + 1] += rank_off[r];
    std::vector<int> rank_topo(rank_off[g.numRanks]);
    std::vector<int> fill(rank_off.begin(), rank_off.end() - 1);
    for (int v : order) {
        if (!pairs[g.nodes[v].rank].empty())
            rank_topo[fill[g.nodes[v].rank]++] = v;
    }

    // Ranks in ascending order, so the lowest failing rank's message
    // wins. The whole-graph relabel is built only if some rank needs
    // the fallback: the first globally unordered pair is always one
    // the local phase left open.
    std::optional<TopoGraph> topo;
    for (Rank r = 0; r < g.numRanks; r++) {
        if (pairs[r].empty())
            continue;
        std::vector<ConflictPair> open = locallyUnordered(
            g, r, rank_topo.data() + rank_off[r], pairs[r]);
        if (open.empty())
            continue;
        if (!topo)
            topo = relabelByTopoOrder(g, order);
        std::string error = firstUnordered(g, *topo, open);
        if (!error.empty())
            throw VerificationError(error);
    }
}

} // namespace mscclang
