#include "compiler/chunk_dag.h"

#include <algorithm>
#include <tuple>

#include "common/strings.h"

namespace mscclang {

const char *
depKindName(DepKind kind)
{
    switch (kind) {
      case DepKind::True: return "true";
      case DepKind::Anti: return "anti";
      case DepKind::Output: return "output";
    }
    return "?";
}

namespace {

using LocationKey = std::tuple<Rank, BufferKind, int>;

struct Access
{
    int op;
    bool isWrite;
};

/** Reads/writes of one traced op at chunk granularity. */
void
forEachAccess(const TraceOp &op,
              const std::function<void(LocationKey, bool)> &visit)
{
    auto slice_locations = [&](const BufferSlice &slice, bool is_write) {
        for (int i = 0; i < slice.count; i++) {
            visit(LocationKey{ slice.rank, slice.buffer, slice.index + i },
                  is_write);
        }
    };
    if (op.kind == OpKind::Copy) {
        slice_locations(op.src, false);
        slice_locations(op.dst, true);
    } else {
        slice_locations(op.src, false);
        slice_locations(op.dst, false);
        slice_locations(op.dst, true);
    }
}

} // namespace

ChunkDag::ChunkDag(const Program &program)
{
    const std::vector<TraceOp> &ops = program.ops();
    numOps_ = static_cast<int>(ops.size());
    preds_.resize(numOps_);
    succs_.resize(numOps_);

    // Note: the DSL canonicalizes in-place Output accesses onto the
    // Input buffer internally, but TraceOps retain the user's buffer
    // names; canonicalize here so aliases collide.
    bool in_place = program.collective().inPlace();
    auto canonical = [in_place](LocationKey key) {
        if (in_place && std::get<1>(key) == BufferKind::Output)
            std::get<1>(key) = BufferKind::Input;
        return key;
    };

    // Access history per (rank, buffer) location, stored densely:
    // history[rank * 3 + buffer][chunkIndex]. Lookup-only, so the
    // switch from an ordered map changes nothing observable.
    std::vector<std::vector<std::vector<Access>>> history(
        3 * static_cast<size_t>(program.numRanks()));
    auto history_of = [&](const LocationKey &key) -> std::vector<Access> & {
        std::vector<std::vector<Access>> &buf =
            history[static_cast<size_t>(std::get<0>(key)) * 3 +
                    static_cast<size_t>(std::get<1>(key))];
        int index = std::get<2>(key);
        if (index >= static_cast<int>(buf.size()))
            buf.resize(index + 1);
        return buf[index];
    };

    // Edges deduplicated per source op; the per-op lists are small, so
    // a linear membership scan beats a global ordered set.
    std::vector<std::vector<std::pair<int, DepKind>>> edges_by_from(
        numOps_);

    for (const TraceOp &op : ops) {
        forEachAccess(op, [&](LocationKey key, bool is_write) {
            key = canonical(key);
            std::vector<Access> &accesses = history_of(key);
            for (const Access &prev : accesses) {
                if (prev.op == op.id)
                    continue;
                DepKind kind;
                if (is_write && prev.isWrite)
                    kind = DepKind::Output;
                else if (is_write)
                    kind = DepKind::Anti;
                else if (prev.isWrite)
                    kind = DepKind::True;
                else
                    continue; // read-read: no dependence
                std::vector<std::pair<int, DepKind>> &out =
                    edges_by_from[prev.op];
                auto it = std::find_if(
                    out.begin(), out.end(),
                    [&](const auto &e) { return e.first == op.id; });
                if (it == out.end()) {
                    out.push_back({ op.id, kind });
                } else if (kind == DepKind::True) {
                    // A true dependence subsumes false ones.
                    it->second = DepKind::True;
                }
            }
            accesses.push_back(Access{ op.id, is_write });
        });
    }

    // Emit in (from, to) order, matching the old ordered-set sweep.
    for (int from = 0; from < numOps_; from++) {
        std::vector<std::pair<int, DepKind>> &out = edges_by_from[from];
        std::sort(out.begin(), out.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (const auto &[to, kind] : out) {
            edges_.push_back(ChunkDep{ from, to, kind });
            succs_[from].push_back(to);
            preds_[to].push_back(from);
        }
    }

    // Ops are already in a topological order (trace order).
    depths_.assign(numOps_, 0);
    for (int op = 0; op < numOps_; op++) {
        for (int pred : preds_[op])
            depths_[op] = std::max(depths_[op], depths_[pred] + 1);
        criticalPath_ = std::max(criticalPath_, depths_[op] + 1);
    }
}

int
chunkCriticalPath(const Program &program)
{
    // Depths of the last writer and of the deepest reader since that
    // write, per location (-1: none), stored densely like the DAG's
    // access history: state[rank * 3 + buffer][chunkIndex].
    struct LocationState
    {
        int writer = -1;
        int reader = -1;
    };
    bool in_place = program.collective().inPlace();
    std::vector<std::vector<LocationState>> state(
        3 * static_cast<size_t>(program.numRanks()));
    auto buffer_of = [&](const BufferSlice &slice) {
        BufferKind buffer = slice.buffer;
        if (in_place && buffer == BufferKind::Output)
            buffer = BufferKind::Input;
        std::vector<LocationState> &buf =
            state[static_cast<size_t>(slice.rank) * 3 +
                  static_cast<size_t>(buffer)];
        if (slice.index + slice.count > static_cast<int>(buf.size()))
            buf.resize(slice.index + slice.count);
        return &buf;
    };

    int critical = 0;
    for (const TraceOp &op : program.ops()) {
        // Resize both buffers before taking element pointers: src and
        // dst may name the same buffer.
        std::vector<LocationState> *src_buf = buffer_of(op.src);
        std::vector<LocationState> *dst_buf = buffer_of(op.dst);
        LocationState *src = src_buf->data() + op.src.index;
        LocationState *dst = dst_buf->data() + op.dst.index;

        // The op's depth comes from the state before its own accesses
        // (the DAG has no self-edges). Reads follow the last writer;
        // the destination write also follows the readers since it. A
        // reduce's read of its destination is covered by that.
        int depth = 0;
        for (int i = 0; i < op.src.count; i++)
            depth = std::max(depth, src[i].writer + 1);
        for (int i = 0; i < op.dst.count; i++) {
            depth = std::max(
                depth, std::max(dst[i].writer, dst[i].reader) + 1);
        }
        for (int i = 0; i < op.src.count; i++)
            src[i].reader = std::max(src[i].reader, depth);
        for (int i = 0; i < op.dst.count; i++)
            dst[i] = LocationState{ depth, -1 };
        critical = std::max(critical, depth + 1);
    }
    return critical;
}

std::string
ChunkDag::toDot(const Program &program) const
{
    std::string out = "digraph chunkdag {\n";
    const std::vector<TraceOp> &ops = program.ops();
    for (int op = 0; op < numOps_; op++) {
        out += strprintf("  n%d [label=\"%s\"];\n", op,
                         ops[op].toString().c_str());
    }
    for (const ChunkDep &edge : edges_) {
        const char *style = edge.kind == DepKind::True ? "solid" : "dashed";
        out += strprintf("  n%d -> n%d [style=%s];\n", edge.from, edge.to,
                         style);
    }
    out += "}\n";
    return out;
}

} // namespace mscclang
