/**
 * @file
 * The Chunk DAG (paper §4.1): the global view of chunk movement
 * obtained by tracing a program. Nodes are the traced copy/reduce
 * operations; edges are dependencies induced by chunk movement (true
 * dependencies) and by reusing buffer indices (false dependencies).
 * The instruction DAG is derived from the same access analysis at a
 * finer (per-instance, sub-chunk) granularity; this class exposes the
 * operation-level structure for diagnostics, statistics and tests.
 */

#ifndef MSCCLANG_COMPILER_CHUNK_DAG_H_
#define MSCCLANG_COMPILER_CHUNK_DAG_H_

#include <string>
#include <vector>

#include "dsl/program.h"

namespace mscclang {

/** Dependence classes between chunk operations. */
enum class DepKind {
    True,   ///< read-after-write: chunk movement
    Anti,   ///< write-after-read: buffer index reuse
    Output, ///< write-after-write: buffer index reuse
};

const char *depKindName(DepKind kind);

/** One dependence edge between two traced operations. */
struct ChunkDep
{
    int from = -1;
    int to = -1;
    DepKind kind = DepKind::True;

    bool operator==(const ChunkDep &) const = default;
};

/** The traced operation DAG of a program. */
class ChunkDag
{
  public:
    explicit ChunkDag(const Program &program);

    int numOps() const { return numOps_; }
    const std::vector<ChunkDep> &edges() const { return edges_; }
    const std::vector<int> &preds(int op) const { return preds_[op]; }
    const std::vector<int> &succs(int op) const { return succs_[op]; }

    /** Longest-path depth of each op (roots have depth 0). */
    const std::vector<int> &depths() const { return depths_; }

    /** Length of the critical path in operations. */
    int criticalPathLength() const { return criticalPath_; }

    /** Graphviz rendering for documentation and debugging. */
    std::string toDot(const Program &program) const;

  private:
    int numOps_ = 0;
    std::vector<ChunkDep> edges_;
    std::vector<std::vector<int>> preds_;
    std::vector<std::vector<int>> succs_;
    std::vector<int> depths_;
    int criticalPath_ = 0;
};

/**
 * Length of the Chunk DAG's critical path in operations, in one pass
 * over the trace without building the DAG. Per canonical location it
 * keeps the depth of the last writer and of the deepest reader since
 * that write: every edge the DAG has beyond those is implied by a
 * chain through them (writers are totally ordered by output edges,
 * and a write orders after every earlier reader), so the result
 * equals ChunkDag(program).criticalPathLength().
 */
int chunkCriticalPath(const Program &program);

} // namespace mscclang

#endif // MSCCLANG_COMPILER_CHUNK_DAG_H_
