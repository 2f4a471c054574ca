/**
 * @file
 * The MSCCL-IR interpreter (paper §6.2, Figure 5), reproduced as an
 * event-driven state machine over the simulated machine:
 *
 *  - every thread block is an executor stepping through its
 *    instruction list, outer-looped over chunk tiles (the pipelining
 *    loop of Figure 5);
 *  - connections are FIFO queues with the protocol's slot count; a
 *    send blocks when all slots are occupied, a receive blocks until
 *    data arrives, and completion of a receive frees the sender's
 *    slot;
 *  - cross thread block dependencies wait on per-block semaphores
 *    that publish the number of completed (tile, step) units;
 *  - transfer time comes from the flow-level network model plus the
 *    protocol's per-message latency; local copies and reductions are
 *    charged at per-thread-block memory throughput.
 *
 * The interpreter runs in one of two modes: data mode moves real
 * float elements (so collectives can be validated against an oracle
 * end to end) and timing mode moves only byte counts (for the
 * benchmark sweeps).
 *
 * Execution plan: start() resolves everything symbolic once — the
 * (src, dst, channel) connection keys become indices into a dense
 * connection array, inboxes are fixed-capacity rings sized by the
 * protocol's FIFO depth, and each thread block's send path (route,
 * rate cap, per-message NIC occupancy, protocol alphas) is folded
 * into flat per-block constants — so the per-message path is array
 * indexing only. In-flight sends live in a pooled arena and every
 * hot-path callback captures just {interpreter, pool index}, small
 * enough for std::function's inline buffer: steady-state execution
 * does not allocate.
 */

#ifndef MSCCLANG_RUNTIME_INTERPRETER_H_
#define MSCCLANG_RUNTIME_INTERPRETER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ir/ir.h"
#include "runtime/protocol.h"
#include "sim/event_queue.h"
#include "sim/flow_network.h"
#include "topology/topology.h"

namespace mscclang {

/** Execution configuration for one kernel invocation. */
struct ExecOptions
{
    /** Move real float data (tests/examples) or just bytes. */
    bool dataMode = false;
    /** Bytes of the input buffer on each rank. */
    std::uint64_t bytesPerRank = 1 << 20;
    /**
     * Upper bound on pipeline tiles per chunk. Real hardware tiles
     * every chunk down to FIFO slot size; the simulation caps the
     * tile count and folds the residual per-slot synchronization cost
     * into the per-message cost so that huge buffers stay tractable.
     */
    int maxTilesPerChunk = 16;
    /** Extra delay before the kernel starts (launch overhead). */
    double launchOverheadUs = 0.0;
    /**
     * When non-empty, write a chrome://tracing (Trace Event Format)
     * JSON timeline of every instruction execution to this path —
     * one row per (rank, thread block), one slice per (tile, step).
     * Flushed (well-formed) even when the watchdog aborts the run.
     */
    std::string traceFile;
    /**
     * Watchdog: abort the kernel once this much simulated time has
     * passed since launch without completing (0 disables). An abort
     * is clean: in-flight pooled sends are drained back to their
     * arena, the trace file is flushed, and ExecStats reports
     * aborted=true with a blocked-thread-block diagnosis.
     */
    double watchdogTimeoutUs = 0.0;
    /**
     * Watchdog: abort when no instruction completes and no message
     * is delivered for this long (0 disables) — catches executions
     * wedged mid-kernel (e.g. by an injected link-down) long before
     * an absolute timeout would.
     */
    double watchdogNoProgressUs = 0.0;
    /**
     * Fault script override for this run. When null, the topology's
     * own schedule (Topology::setFaultSchedule) applies; the
     * Communicator's retry path passes the not-yet-fired remainder
     * here. Not owned; must outlive the run.
     */
    const FaultSchedule *faults = nullptr;
    /**
     * Worker threads for the simulation's shard batches (1 =
     * serial). Simulated timings are bit-identical for every value —
     * threads only change wall-clock speed. Honored as requested;
     * callers that launch simulations from their own worker threads
     * (the tuner sweep) size this from the process-wide
     * SimThreadBudget so the composition cannot oversubscribe the
     * machine. The pool runs the flow network's shard batches.
     */
    int simThreads = 1;
    /**
     * Wall-clock phase accounting (bench --profile). Not owned; null
     * disables all timing. Written only from the driving thread.
     */
    SimProfile *profile = nullptr;
};

/** Per-rank float buffers, persistent across composed kernels. */
class DataStore
{
  public:
    /**
     * Ensures buffers fit @p ir at @p bytes_per_rank input bytes.
     * Grows buffers as needed, never shrinks, preserves contents.
     * @throws RuntimeError if chunk geometry does not divide evenly.
     */
    void configure(const IrProgram &ir, std::uint64_t bytes_per_rank);

    std::vector<float> &input(Rank rank) { return input_.at(rank); }
    std::vector<float> &output(Rank rank) { return output_.at(rank); }
    std::vector<float> &scratch(Rank rank) { return scratch_.at(rank); }

    /** Buffer by kind with in-place aliasing applied. */
    std::vector<float> &buffer(Rank rank, BufferKind kind,
                               bool in_place);

    int numRanks() const { return static_cast<int>(input_.size()); }

    /** A full copy of all buffers, for abort rollback. */
    struct Snapshot
    {
        std::vector<std::vector<float>> input, output, scratch;
    };

    /**
     * Captures / restores buffer contents. An aborted kernel may
     * have partially mutated the store (in-place programs reduce
     * into their inputs); restoring the pre-launch snapshot is what
     * makes a Communicator retry start from a defined state.
     */
    Snapshot snapshot() const;
    void restore(const Snapshot &snap);

  private:
    std::vector<std::vector<float>> input_;
    std::vector<std::vector<float>> output_;
    std::vector<std::vector<float>> scratch_;
};

/** Telemetry from one execution. */
struct ExecStats
{
    TimeNs startNs = 0;
    TimeNs endNs = 0;
    std::uint64_t messages = 0;
    double wireBytes = 0.0;
    /** True when the watchdog aborted the kernel before completion. */
    bool aborted = false;
    /** Why the watchdog fired plus the blocked thread blocks, in the
     *  verifier's blocked-set format (empty unless aborted). */
    std::string abortReason;
    /** Fault events that activated during this run. */
    int faultsSeen = 0;
    /** Indices into the armed FaultSchedule of the fired events. */
    std::vector<int> firedFaults;
    /**
     * Directed links the blocked thread blocks were waiting on when
     * the watchdog aborted (sorted, deduplicated; empty unless
     * aborted): a thread block stuck in a send (in flight or FIFO
     * full) implicates rank -> sendPeer, one starved of data
     * implicates recvPeer -> rank. This is the attribution the
     * LinkHealthMonitor's error scores are fed from.
     */
    std::vector<Link> blockedLinks;

    double durationUs() const
    {
        return static_cast<double>(endNs - startNs) / 1000.0;
    }
};

/**
 * One kernel execution of an MSCCL-IR program. Construct, call
 * start() with a completion callback, then drive the EventQueue.
 */
class IrExecution
{
  public:
    IrExecution(const Topology &topology, const IrProgram &ir,
                EventQueue &events, FlowNetwork &network,
                ExecOptions options, DataStore *data);
    ~IrExecution();

    IrExecution(const IrExecution &) = delete;
    IrExecution &operator=(const IrExecution &) = delete;

    /** Begins execution; @p on_complete fires at the final event. */
    void start(std::function<void(const ExecStats &)> on_complete);

    /**
     * Describes every unfinished thread block and what it waits on,
     * one line each in the verifier's blocked-set format. Used for
     * watchdog abort reports and wedge diagnostics.
     */
    std::string blockedReport() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Convenience: runs @p ir to completion on a fresh machine and
 * returns the stats. @p data may be null in timing mode.
 */
ExecStats runIr(const Topology &topology, const IrProgram &ir,
                const ExecOptions &options, DataStore *data = nullptr);

} // namespace mscclang

#endif // MSCCLANG_RUNTIME_INTERPRETER_H_
