#include "runtime/interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "common/log.h"
#include "common/error.h"
#include "common/strings.h"

namespace mscclang {

void
DataStore::configure(const IrProgram &ir, std::uint64_t bytes_per_rank)
{
    size_t ranks = static_cast<size_t>(ir.numRanks);
    if (input_.size() < ranks) {
        input_.resize(ranks);
        output_.resize(ranks);
        scratch_.resize(ranks);
    }
    for (const IrGpu &gpu : ir.gpus) {
        std::uint64_t elems = bytes_per_rank / sizeof(float);
        if (elems * sizeof(float) != bytes_per_rank)
            throw RuntimeError("DataStore: bytes must be element-sized");
        if (gpu.inputChunks > 0 && elems % gpu.inputChunks != 0) {
            throw RuntimeError(strprintf(
                "DataStore: %llu elements do not divide into %d chunks",
                static_cast<unsigned long long>(elems),
                gpu.inputChunks));
        }
        std::uint64_t chunk_elems =
            gpu.inputChunks > 0 ? elems / gpu.inputChunks : 0;
        auto grow = [](std::vector<float> &buf, std::uint64_t n) {
            if (buf.size() < n)
                buf.resize(n, 0.0f);
        };
        grow(input_[gpu.rank], elems);
        if (!ir.inPlace)
            grow(output_[gpu.rank], chunk_elems * gpu.outputChunks);
        grow(scratch_[gpu.rank], chunk_elems * gpu.scratchChunks);
    }
}

DataStore::Snapshot
DataStore::snapshot() const
{
    return Snapshot{ input_, output_, scratch_ };
}

void
DataStore::restore(const Snapshot &snap)
{
    input_ = snap.input;
    output_ = snap.output;
    scratch_ = snap.scratch;
}

std::vector<float> &
DataStore::buffer(Rank rank, BufferKind kind, bool in_place)
{
    if (in_place && kind == BufferKind::Output)
        kind = BufferKind::Input;
    switch (kind) {
      case BufferKind::Input: return input_.at(rank);
      case BufferKind::Output: return output_.at(rank);
      case BufferKind::Scratch: return scratch_.at(rank);
    }
    throw RuntimeError("DataStore: bad buffer kind");
}

namespace {

float
applyReduce(ReduceOp op, float a, float b)
{
    switch (op) {
      case ReduceOp::Sum: return a + b;
      case ReduceOp::Prod: return a * b;
      case ReduceOp::Max: return a > b ? a : b;
      case ReduceOp::Min: return a < b ? a : b;
    }
    return a;
}

} // namespace

/** One executed instruction interval for the tracing timeline. */
struct TraceEvent
{
    Rank rank;
    int tb;
    int tile;
    int step;
    IrOp op;
    TimeNs startNs;
    TimeNs endNs;
};

/** A tile-sized message in flight on a connection. */
struct Message
{
    std::uint64_t bytes = 0;
    std::vector<float> data; // data mode only
};

struct IrExecution::Impl
{
    struct TbState
    {
        const IrThreadBlock *tb = nullptr;
        Rank rank = 0;
        int flatId = 0;
        int tile = 0;
        int step = 0;
        int numSteps = 0;
        bool busy = false;
        bool finished = false;
        TimeNs busyStartNs = 0;
        /** Completed (tile, step) units, published to waiters. */
        long units = 0;
        /** Memoized payloadBytes for the current (tile, step) — a
         *  blocked thread block recomputes its step on every wake. */
        std::uint64_t cachedPayload = 0;
        int cachedTile = -1;
        int cachedStep = -1;

        // Dense plan, resolved once at construction.
        int recvConn = -1; ///< index into conns (receive side)
        int sendConn = -1; ///< index into conns (send side)
        bool sendRouted = false;
        /** Route resources (owned by the Topology, stable). */
        const std::vector<ResourceId> *sendResources = nullptr;
        double sendCapGBps = 0.0;
        /** Per-message NIC occupancy folded into wire bytes (IB). */
        double sendPerMessageWireBytes = 0.0;
        /** Delivery latency after the wire drains: first tile pays
         *  the full protocol alpha, later tiles the slot pipeline. */
        TimeNs sendAlpha0Ns = 0;
        TimeNs sendAlphaNNs = 0;
    };

    /**
     * One FIFO connection. The inbox is a fixed ring sized by the
     * protocol's slot count: `occupied` (sent, not yet consumed)
     * never exceeds the slot count, and the inbox never exceeds
     * `occupied`.
     */
    struct ConnState
    {
        std::vector<Message> ring;
        int head = 0;
        int count = 0;
        int occupied = 0; // FIFO slots in use (sent, not yet consumed)
        int waitingSender = -1;   // flat tb id blocked on a slot
        int waitingReceiver = -1; // flat tb id blocked on data
    };

    /** An in-flight send, pooled so callbacks capture only {this,
     *  index} — small enough for std::function's inline storage. */
    struct SendOp
    {
        Message msg;
        int flat = 0;
        int conn = 0;
        bool receives = false;
        TimeNs alphaNs = 0;
        double wireBytes = 0.0;
        double capGBps = 0.0;
        const std::vector<ResourceId> *resources = nullptr;
        int nextFree = -1;
    };

    const Topology &topology;
    const IrProgram &ir;
    EventQueue &events;
    FlowNetwork &network;
    ExecOptions options;
    DataStore *data;
    ProtocolParams proto;

    std::vector<TbState> tbs;
    /** flat tb id = tbBase[rank] + tb index */
    std::vector<int> tbBase;
    std::vector<ConnState> conns;
    std::vector<SendOp> sendPool;
    int freeSend = -1;

    /** semaphore waiters per flat tb: (threshold units, waiter). */
    std::vector<std::vector<std::pair<long, int>>> semWaiters;

    std::uint64_t chunkBytes = 0;
    int numTiles = 1;
    std::uint64_t chunkElems = 0;

    int finishedTbs = 0;
    bool traceEnabled = false;
    bool debugLog = false;
    std::vector<TraceEvent> trace;
    ExecStats stats;
    std::function<void(const ExecStats &)> onComplete;

    // Watchdog state: `progress` counts completed instructions and
    // delivered messages; the no-progress tick compares it against
    // the previous tick's snapshot.
    bool aborted = false;
    bool done = false;
    std::uint64_t progress = 0;
    std::uint64_t lastProgress = 0;
    EventId watchdogAbsEvent = 0;
    EventId watchdogTickEvent = 0;

    Impl(const Topology &topo, const IrProgram &program, EventQueue &eq,
         FlowNetwork &net, ExecOptions opts, DataStore *store)
        : topology(topo), ir(program), events(eq), network(net),
          options(opts), data(store), proto(protocolParams(ir.protocol))
    {
        if (topo.numRanks() != ir.numRanks)
            throw RuntimeError("interpreter: topology/program rank "
                               "mismatch");
        if (options.dataMode && data == nullptr)
            throw RuntimeError("interpreter: data mode needs a store");
        traceEnabled = !options.traceFile.empty();
        debugLog = Log::enabled(LogLevel::Debug);

        int input_chunks = 1;
        int max_split = 1;
        for (const IrGpu &gpu : ir.gpus) {
            input_chunks = std::max(input_chunks, gpu.inputChunks);
            for (const IrThreadBlock &tb : gpu.threadBlocks) {
                for (const IrInstruction &instr : tb.steps)
                    max_split = std::max(max_split, instr.splitCount);
            }
        }
        chunkBytes =
            (options.bytesPerRank + input_chunks - 1) / input_chunks;
        // Pipeline depth (paper §6.2): a chunk larger than a FIFO
        // slot is split into tiles so phases overlap (Figure 6). The
        // relevant unit is the per-instance fragment (instances
        // already subdivide chunks), and the tile count is capped by
        // the user-configurable maxTilesPerChunk — the paper's
        // "users may configure MSCCLang's tile size".
        std::uint64_t fragment =
            std::max<std::uint64_t>(chunkBytes / max_split, 1);
        numTiles = static_cast<int>(std::clamp<std::uint64_t>(
            (fragment + proto.slotBytes - 1) / proto.slotBytes, 1,
            static_cast<std::uint64_t>(
                std::max(1, options.maxTilesPerChunk))));
        if (options.dataMode) {
            chunkElems = (options.bytesPerRank / sizeof(float)) /
                std::max(1, input_chunks);
        }

        // Count the send connections sharing each NIC: the
        // per-message proxy cost grows with queue-pair pressure.
        std::vector<int> nic_connections(topo.numResources(), 0);
        for (const IrGpu &gpu : ir.gpus) {
            for (const IrThreadBlock &tb : gpu.threadBlocks) {
                if (tb.sendPeer < 0 ||
                    !topo.connected(gpu.rank, tb.sendPeer)) {
                    continue;
                }
                const Route &route = topo.route(gpu.rank, tb.sendPeer);
                if (route.type == LinkType::InfiniBand &&
                    !route.resources.empty()) {
                    nic_connections[route.resources.front()]++;
                }
            }
        }

        tbBase.resize(ir.numRanks + 1, 0);
        for (const IrGpu &gpu : ir.gpus) {
            tbBase[gpu.rank + 1] =
                static_cast<int>(gpu.threadBlocks.size());
        }
        for (int r = 0; r < ir.numRanks; r++)
            tbBase[r + 1] += tbBase[r];
        tbs.resize(tbBase[ir.numRanks]);
        semWaiters.resize(tbs.size());

        // Resolve the dense execution plan: connection indices and
        // flattened send-path constants per thread block.
        int num_channels = std::max(ir.numChannels(), 1);
        std::vector<int> conn_index(
            static_cast<size_t>(ir.numRanks) * ir.numRanks *
                num_channels,
            -1);
        auto conn_of = [&](Rank src, Rank dst, int channel) {
            size_t key =
                (static_cast<size_t>(src) * ir.numRanks + dst) *
                    num_channels +
                channel;
            if (conn_index[key] < 0) {
                conn_index[key] = static_cast<int>(conns.size());
                ConnState conn;
                conn.ring.resize(std::max(proto.slots, 1));
                conns.push_back(std::move(conn));
            }
            return conn_index[key];
        };
        const MachineParams &params = topo.params();
        for (const IrGpu &gpu : ir.gpus) {
            for (const IrThreadBlock &tb : gpu.threadBlocks) {
                int flat = tbBase[gpu.rank] + tb.id;
                TbState &state = tbs[flat];
                state.tb = &tb;
                state.rank = gpu.rank;
                state.flatId = flat;
                state.numSteps = static_cast<int>(tb.steps.size());
                if (tb.recvPeer >= 0) {
                    state.recvConn =
                        conn_of(tb.recvPeer, gpu.rank, tb.channel);
                }
                if (tb.sendPeer < 0)
                    continue;
                state.sendConn =
                    conn_of(gpu.rank, tb.sendPeer, tb.channel);
                if (!topo.connected(gpu.rank, tb.sendPeer))
                    continue; // route() throws at first send
                state.sendRouted = true;
                const Route &route = topo.route(gpu.rank, tb.sendPeer);
                state.sendResources = &route.resources;
                double scale = params.protocolAlphaScale;
                state.sendAlpha0Ns = usToNs(
                    route.extraLatencyUs +
                    scale * protocolAlphaUs(proto, route.type));
                state.sendAlphaNNs = usToNs(
                    route.extraLatencyUs +
                    scale * proto.perSlotOverheadUs);
                if (route.type == LinkType::InfiniBand) {
                    state.sendCapGBps = params.ibNicBwGBps;
                    // Per-message NIC occupancy: a message ties up
                    // the NIC pipeline independent of its size, and
                    // the cost grows with the number of connections
                    // contending for the NIC's queue pairs
                    // (1 GB/s == 1 byte/ns == 1000 bytes/us).
                    int nic_conns = 1;
                    if (!route.resources.empty()) {
                        nic_conns = std::max(
                            1, nic_connections[route.resources.front()]);
                    }
                    double per_message = params.ibPerMessageUs +
                        params.ibQpPenaltyUs * (nic_conns - 1);
                    state.sendPerMessageWireBytes =
                        per_message * params.ibNicBwGBps * 1000.0;
                } else {
                    state.sendCapGBps = params.tbNvlinkBwGBps;
                }
            }
        }
    }

    int
    flatOf(Rank rank, int tb_id) const
    {
        return tbBase[rank] + tb_id;
    }

    // ------------------------------------------------------------------
    // Ring inboxes and the pooled send arena.

    Message
    popInbox(ConnState &conn)
    {
        Message msg = std::move(conn.ring[conn.head]);
        conn.head++;
        if (conn.head == static_cast<int>(conn.ring.size()))
            conn.head = 0;
        conn.count--;
        return msg;
    }

    void
    pushInbox(ConnState &conn, Message &&msg)
    {
        if (conn.count == static_cast<int>(conn.ring.size()))
            throw RuntimeError("interpreter: inbox ring overflow "
                               "(FIFO accounting bug)");
        int pos = conn.head + conn.count;
        if (pos >= static_cast<int>(conn.ring.size()))
            pos -= static_cast<int>(conn.ring.size());
        conn.ring[pos] = std::move(msg);
        conn.count++;
    }

    int
    allocSendOp()
    {
        if (freeSend >= 0) {
            int idx = freeSend;
            freeSend = sendPool[idx].nextFree;
            return idx;
        }
        sendPool.emplace_back();
        return static_cast<int>(sendPool.size()) - 1;
    }

    void
    freeSendOp(int idx)
    {
        SendOp &op = sendPool[idx];
        op.msg.bytes = 0;
        op.msg.data.clear(); // keeps capacity warm for data mode
        op.nextFree = freeSend;
        freeSend = idx;
    }

    /**
     * Per-chunk byte range of (instance, tile), within a chunk. The
     * instance owns [i/n, (i+1)/n) of the chunk; the pipeline loop
     * then walks that range in numTiles sub-ranges.
     */
    std::pair<std::uint64_t, std::uint64_t>
    tileRangeBytes(const IrInstruction &instr, int tile) const
    {
        std::uint64_t ilo =
            chunkBytes * instr.splitIdx / instr.splitCount;
        std::uint64_t ihi =
            chunkBytes * (instr.splitIdx + 1) / instr.splitCount;
        std::uint64_t span = ihi - ilo;
        std::uint64_t lo = ilo + span * tile / numTiles;
        std::uint64_t hi = ilo + span * (tile + 1) / numTiles;
        return { lo, hi };
    }

    /** Element range analogue for data mode. */
    std::pair<std::uint64_t, std::uint64_t>
    tileRangeElems(const IrInstruction &instr, int tile) const
    {
        std::uint64_t ilo =
            chunkElems * instr.splitIdx / instr.splitCount;
        std::uint64_t ihi =
            chunkElems * (instr.splitIdx + 1) / instr.splitCount;
        std::uint64_t span = ihi - ilo;
        std::uint64_t lo = ilo + span * tile / numTiles;
        std::uint64_t hi = ilo + span * (tile + 1) / numTiles;
        return { lo, hi };
    }

    std::uint64_t
    payloadBytes(const IrInstruction &instr, int tile) const
    {
        auto [lo, hi] = tileRangeBytes(instr, tile);
        return (hi - lo) * static_cast<std::uint64_t>(instr.count);
    }

    // ------------------------------------------------------------------
    // Data-mode helpers.

    std::vector<float> &
    bufferOf(Rank rank, BufferKind kind)
    {
        return data->buffer(rank, kind, ir.inPlace);
    }

    std::vector<float>
    readSpan(Rank rank, BufferKind buf, int off,
             const IrInstruction &instr, int tile)
    {
        auto [lo, hi] = tileRangeElems(instr, tile);
        std::vector<float> out;
        out.reserve((hi - lo) * instr.count);
        std::vector<float> &storage = bufferOf(rank, buf);
        for (int k = 0; k < instr.count; k++) {
            std::uint64_t base =
                static_cast<std::uint64_t>(off + k) * chunkElems;
            if (base + hi > storage.size())
                throw RuntimeError(strprintf(
                    "interpreter: rank %d %s read out of bounds", rank,
                    bufferKindName(buf)));
            out.insert(out.end(), storage.begin() + base + lo,
                       storage.begin() + base + hi);
        }
        return out;
    }

    void
    writeSpan(Rank rank, BufferKind buf, int off,
              const IrInstruction &instr, int tile,
              const std::vector<float> &values)
    {
        auto [lo, hi] = tileRangeElems(instr, tile);
        std::uint64_t per_chunk = hi - lo;
        if (values.size() != per_chunk * instr.count)
            throw RuntimeError("interpreter: message size mismatch");
        std::vector<float> &storage = bufferOf(rank, buf);
        for (int k = 0; k < instr.count; k++) {
            std::uint64_t base =
                static_cast<std::uint64_t>(off + k) * chunkElems;
            if (base + hi > storage.size())
                throw RuntimeError(strprintf(
                    "interpreter: rank %d %s write out of bounds", rank,
                    bufferKindName(buf)));
            std::copy(values.begin() + k * per_chunk,
                      values.begin() + (k + 1) * per_chunk,
                      storage.begin() + base + lo);
        }
    }

    // ------------------------------------------------------------------
    // Cost model.

    double
    localCostUs(const IrInstruction &instr, std::uint64_t payload,
                int tile) const
    {
        if (payload == 0)
            return 0.01; // skipped tile: decode only
        const MachineParams &params = topology.params();
        // Steady-state tiles ride the warp pipeline; only the first
        // pays full instruction issue.
        double us = tile == 0 ? params.instrOverheadUs
                              : proto.perSlotOverheadUs;
        if (instr.hasDep)
            us += 0.2; // __threadfence + semaphore publish
        double gb = static_cast<double>(payload);
        switch (instr.op) {
          case IrOp::Copy:
          case IrOp::Recv:
          case IrOp::RecvCopySend:
            us += gb / params.tbCopyBwGBps / 1000.0;
            break;
          case IrOp::Reduce:
          case IrOp::RecvReduceCopy:
            us += gb / params.tbReduceBwGBps / 1000.0;
            break;
          default:
            break;
        }
        return us;
    }

    // ------------------------------------------------------------------
    // Executor state machine.

    void
    start(std::function<void(const ExecStats &)> cb)
    {
        onComplete = std::move(cb);
        stats.startNs = events.now();
        TimeNs launch = usToNs(options.launchOverheadUs);
        if (options.watchdogTimeoutUs > 0.0) {
            watchdogAbsEvent = events.scheduleAfter(
                launch + usToNs(options.watchdogTimeoutUs), [this] {
                    watchdogAbsEvent = 0;
                    abort(strprintf("watchdog: kernel exceeded %.1fus",
                                    options.watchdogTimeoutUs));
                });
        }
        if (options.watchdogNoProgressUs > 0.0) {
            watchdogTickEvent = events.scheduleAfter(
                launch + usToNs(options.watchdogNoProgressUs),
                [this] { watchdogTick(); });
        }
        events.scheduleAfter(launch, [this] {
            if (tbs.empty()) {
                finishAll();
                return;
            }
            for (TbState &tb : tbs)
                tryAdvance(tb.flatId);
        });
    }

    void
    watchdogTick()
    {
        watchdogTickEvent = 0;
        if (done)
            return;
        if (progress == lastProgress) {
            abort(strprintf("watchdog: no progress for %.1fus",
                            options.watchdogNoProgressUs));
            return;
        }
        lastProgress = progress;
        watchdogTickEvent = events.scheduleAfter(
            usToNs(options.watchdogNoProgressUs),
            [this] { watchdogTick(); });
    }

    /**
     * Clean watchdog abort: no further instruction makes progress,
     * in-flight pooled sends drain back to the arena as their events
     * fire, the trace file is flushed, and the completion callback
     * receives aborted stats carrying the blocked-set diagnosis.
     * DataStore contents are whatever the executed prefix wrote —
     * rollback is the caller's policy (see Communicator::run).
     */
    void
    abort(const std::string &why)
    {
        if (done)
            return;
        aborted = true;
        stats.aborted = true;
        stats.abortReason = why + ":\n" + blockedReport();
        stats.blockedLinks = blockedLinks();
        finishAll();
    }

    /**
     * Attributes every unfinished thread block to the connection's
     * link it is waiting on (the same conditions blockedReport
     * prints, minus the dependency-only waits, which have no link).
     */
    std::vector<Link>
    blockedLinks() const
    {
        std::vector<Link> links;
        for (const TbState &tb : tbs) {
            if (tb.finished || tb.numSteps == 0)
                continue;
            const IrInstruction &instr = tb.tb->steps[tb.step];
            if (tb.busy) {
                if (irOpSends(instr.op) && tb.tb->sendPeer >= 0)
                    links.push_back(Link{ tb.rank, tb.tb->sendPeer });
            } else if (irOpReceives(instr.op) && tb.recvConn >= 0 &&
                       conns[tb.recvConn].count == 0) {
                links.push_back(Link{ tb.tb->recvPeer, tb.rank });
            } else if (irOpSends(instr.op) && tb.sendConn >= 0 &&
                       conns[tb.sendConn].occupied >= proto.slots) {
                links.push_back(Link{ tb.rank, tb.tb->sendPeer });
            }
        }
        std::sort(links.begin(), links.end());
        links.erase(std::unique(links.begin(), links.end()),
                    links.end());
        return links;
    }

    /** The runtime twin of the verifier's deadlock report. */
    std::string
    blockedReport() const
    {
        std::string report;
        for (const TbState &tb : tbs) {
            if (tb.finished || tb.numSteps == 0)
                continue;
            const IrInstruction &instr = tb.tb->steps[tb.step];
            std::string reason;
            if (tb.busy) {
                if (irOpSends(instr.op) && tb.tb->sendPeer >= 0) {
                    reason = strprintf(
                        "send to rank %d ch %d to drain (in flight, "
                        "occupied=%d)", tb.tb->sendPeer,
                        tb.tb->channel, conns[tb.sendConn].occupied);
                } else {
                    reason = "local work to complete (in flight)";
                }
            } else if (irOpReceives(instr.op) && tb.recvConn >= 0 &&
                       conns[tb.recvConn].count == 0) {
                reason = strprintf(
                    "data from rank %d ch %d (inbox empty)",
                    tb.tb->recvPeer, tb.tb->channel);
            } else if (irOpSends(instr.op) && tb.sendConn >= 0 &&
                       conns[tb.sendConn].occupied >= proto.slots) {
                reason = strprintf(
                    "FIFO slot to rank %d ch %d (occupied=%d)",
                    tb.tb->sendPeer, tb.tb->channel,
                    conns[tb.sendConn].occupied);
            } else {
                reason = "dependency";
                for (const IrDep &dep : instr.deps) {
                    int dep_flat = flatOf(tb.rank, dep.tb);
                    long needed = static_cast<long>(tb.tile) *
                        static_cast<long>(tbs[dep_flat].numSteps) +
                        dep.step + 1;
                    if (tbs[dep_flat].units < needed) {
                        reason = strprintf(
                            "tb %d step %d (units=%ld, needed=%ld)",
                            dep.tb, dep.step, tbs[dep_flat].units,
                            needed);
                        break;
                    }
                }
            }
            report += formatBlockedThreadBlock(tb.rank, tb.tb->id,
                                               tb.step, instr, reason);
        }
        return report;
    }

    void
    finishAll()
    {
        done = true;
        if (watchdogAbsEvent != 0) {
            events.cancel(watchdogAbsEvent);
            watchdogAbsEvent = 0;
        }
        if (watchdogTickEvent != 0) {
            events.cancel(watchdogTickEvent);
            watchdogTickEvent = 0;
        }
        stats.endNs = events.now();
        stats.faultsSeen = network.faultsFired();
        stats.firedFaults = network.firedFaults();
        if (!options.traceFile.empty())
            writeTrace();
        if (onComplete)
            onComplete(stats);
    }

    /**
     * Emits the chrome://tracing JSON timeline. Rows are sorted into
     * canonical (rank, tb, tile, step) order so the file content is
     * a pure function of the simulated schedule — same-time
     * completion callbacks may execute in different orders across
     * simulator versions without perturbing the trace.
     */
    void
    writeTrace()
    {
        std::sort(trace.begin(), trace.end(),
                  [](const TraceEvent &a, const TraceEvent &b) {
                      return std::tie(a.rank, a.tb, a.tile, a.step) <
                          std::tie(b.rank, b.tb, b.tile, b.step);
                  });
        std::FILE *file = std::fopen(options.traceFile.c_str(), "w");
        if (file == nullptr) {
            throw RuntimeError("interpreter: cannot write trace to " +
                               options.traceFile);
        }
        std::fputs("[\n", file);
        for (size_t i = 0; i < trace.size(); i++) {
            const TraceEvent &ev = trace[i];
            double ts = static_cast<double>(ev.startNs) / 1000.0;
            double dur =
                static_cast<double>(ev.endNs - ev.startNs) / 1000.0;
            std::fprintf(file,
                "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"tile\":%d,\"step\":%d}}%s\n",
                irOpName(ev.op), ev.rank, ev.tb, ts, dur, ev.tile,
                ev.step, i + 1 < trace.size() ? "," : "");
        }
        std::fputs("]\n", file);
        std::fclose(file);
    }

    void
    wake(int &slot_ref)
    {
        int id = slot_ref;
        slot_ref = -1;
        if (id >= 0)
            tryAdvance(id);
    }

    /** Semaphore waiters are same-rank by construction (IrDep names
     *  a thread block on the publishing rank). */
    void
    bumpUnits(TbState &tb)
    {
        tb.units++;
        std::vector<std::pair<long, int>> &waiters =
            semWaiters[tb.flatId];
        for (size_t i = 0; i < waiters.size();) {
            if (waiters[i].first <= tb.units) {
                int waiter = waiters[i].second;
                waiters[i] = waiters.back();
                waiters.pop_back();
                tryAdvance(waiter);
            } else {
                i++;
            }
        }
    }

    void
    tryAdvance(int flat)
    {
        if (aborted)
            return;
        TbState &tb = tbs[flat];
        if (tb.busy || tb.finished)
            return;
        for (;;) {
            if (tb.numSteps == 0 || tb.tile >= numTiles) {
                tb.finished = true;
                if (++finishedTbs == static_cast<int>(tbs.size()))
                    finishAll();
                return;
            }
            const IrInstruction &instr = tb.tb->steps[tb.step];

            // Cross thread block dependencies (same rank).
            for (const IrDep &dep : instr.deps) {
                int dep_flat = flatOf(tb.rank, dep.tb);
                long needed = static_cast<long>(tb.tile) *
                    static_cast<long>(tbs[dep_flat].numSteps) +
                    dep.step + 1;
                if (tbs[dep_flat].units < needed) {
                    semWaiters[dep_flat].emplace_back(needed, flat);
                    return;
                }
            }

            std::uint64_t payload;
            if (tb.cachedTile == tb.tile && tb.cachedStep == tb.step) {
                payload = tb.cachedPayload;
            } else {
                payload = payloadBytes(instr, tb.tile);
                tb.cachedPayload = payload;
                tb.cachedTile = tb.tile;
                tb.cachedStep = tb.step;
            }
            bool receives = irOpReceives(instr.op) && payload > 0;
            bool sends = irOpSends(instr.op) && payload > 0;

            if (receives) {
                if (tb.recvConn < 0)
                    return; // no peer: wedges, as diagnosed by runIr
                ConnState &in = conns[tb.recvConn];
                if (in.count == 0) {
                    in.waitingReceiver = flat;
                    return;
                }
            }
            if (sends) {
                ConnState &out = conns[tb.sendConn];
                if (out.occupied >= proto.slots) {
                    out.waitingSender = flat;
                    return;
                }
            }

            execute(tb, instr, payload, receives, sends);
            return;
        }
    }

    void
    execute(TbState &tb, const IrInstruction &instr,
            std::uint64_t payload, bool receives, bool sends)
    {
        tb.busy = true;
        tb.busyStartNs = events.now();

        Message incoming;
        if (receives) {
            incoming = popInbox(conns[tb.recvConn]);
            if (incoming.bytes != payload) {
                throw RuntimeError(strprintf(
                    "interpreter: rank %d tb %d: message of %llu bytes "
                    "does not match expected %llu (FIFO mismatch)",
                    tb.rank, tb.tb->id,
                    static_cast<unsigned long long>(incoming.bytes),
                    static_cast<unsigned long long>(payload)));
            }
        }

        // Functional effect (data mode) happens atomically here; the
        // event schedule below models when it becomes visible.
        Message outgoing;
        outgoing.bytes = payload;
        if (options.dataMode)
            applyData(tb, instr, incoming, outgoing);

        if (sends) {
            if (!tb.sendRouted) {
                // Throws the canonical "no route" error.
                topology.route(tb.rank, tb.tb->sendPeer);
            }
            conns[tb.sendConn].occupied++;
            // Time the thread block itself is occupied before the
            // data starts streaming: instruction issue, semaphore
            // publication, and the per-slot flag synchronization for
            // tiles spanning multiple FIFO slots (tile-count capping,
            // see ExecOptions).
            double issue_us = tb.tile == 0
                ? topology.params().instrOverheadUs
                : proto.perSlotOverheadUs;
            if (instr.hasDep)
                issue_us += 0.2;
            std::uint64_t slot_crossings =
                (payload + proto.slotBytes - 1) / proto.slotBytes;
            if (slot_crossings > 1)
                issue_us += proto.perSlotOverheadUs *
                    static_cast<double>(slot_crossings - 1);

            double wire_bytes =
                static_cast<double>(payload) / proto.efficiency;
            wire_bytes += tb.sendPerMessageWireBytes;
            // Link latency is NOT thread block occupancy: the sender
            // moves on once its last byte is in the FIFO, while the
            // message only becomes visible to the receiver a
            // protocol+link alpha later. Protocols stream: only the
            // first tile of a chunk pays the full protocol alpha;
            // later tiles ride the established slot pipeline.
            TimeNs alpha_ns =
                tb.tile == 0 ? tb.sendAlpha0Ns : tb.sendAlphaNNs;

            stats.messages++;
            stats.wireBytes += wire_bytes;

            int idx = allocSendOp();
            SendOp &op = sendPool[idx];
            op.msg = std::move(outgoing);
            op.flat = tb.flatId;
            op.conn = tb.sendConn;
            op.receives = receives;
            op.alphaNs = alpha_ns;
            op.wireBytes = wire_bytes;
            op.capGBps = tb.sendCapGBps;
            op.resources = tb.sendResources;
            events.scheduleAfter(usToNs(issue_us),
                                 [this, idx] { launchFlow(idx); });
        } else {
            double cost_us = localCostUs(instr, payload, tb.tile);
            int flat = tb.flatId;
            events.scheduleAfter(usToNs(cost_us),
                                 [this, flat, receives] {
                                     completeInstr(flat, receives);
                                 });
        }
    }

    /** Issue done: the send's flow enters the network. */
    void
    launchFlow(int idx)
    {
        if (aborted) {
            freeSendOp(idx); // drain the arena on abort
            return;
        }
        SendOp &op = sendPool[idx];
        network.startFlow(*op.resources, op.capGBps, op.wireBytes,
                          [this, idx] { flowDrained(idx); });
    }

    /** The wire drained: release the sender, deliver alpha later. */
    void
    flowDrained(int idx)
    {
        if (aborted) {
            freeSendOp(idx);
            return;
        }
        SendOp &op = sendPool[idx];
        completeInstr(op.flat, op.receives);
        events.scheduleAfter(sendPool[idx].alphaNs,
                             [this, idx] { deliver(idx); });
    }

    /** A sent tile arrived at the destination rank. */
    void
    deliver(int idx)
    {
        if (aborted) {
            freeSendOp(idx);
            return;
        }
        SendOp &op = sendPool[idx];
        ConnState &conn = conns[op.conn];
        pushInbox(conn, std::move(op.msg));
        freeSendOp(idx);
        progress++;
        wake(conn.waitingReceiver);
    }

    /** Wraps up the current instruction of a thread block. */
    void
    completeInstr(int flat, bool received)
    {
        if (aborted)
            return;
        progress++;
        TbState &tb = tbs[flat];
        if (traceEnabled) {
            trace.push_back(TraceEvent{ tb.rank, tb.tb->id, tb.tile,
                                        tb.step,
                                        tb.tb->steps[tb.step].op,
                                        tb.busyStartNs, events.now() });
        }
        if (debugLog) {
            logDebug(strprintf(
                "t=%8.2fus rank %d tb %d tile %d step %d done: %s",
                static_cast<double>(events.now()) / 1000.0, tb.rank,
                tb.tb->id, tb.tile, tb.step,
                tb.tb->steps[tb.step].toString().c_str()));
        }
        if (received) {
            // Consuming the message frees the sender's FIFO slot.
            ConnState &in = conns[tb.recvConn];
            in.occupied--;
            wake(in.waitingSender);
        }
        bumpUnits(tb);
        tb.busy = false;
        tb.step++;
        if (tb.step >= tb.numSteps) {
            tb.step = 0;
            tb.tile++;
        }
        tryAdvance(flat);
    }

    /** Applies the instruction's data transformation (data mode). */
    void
    applyData(TbState &tb, const IrInstruction &instr,
              Message &incoming, Message &outgoing)
    {
        switch (instr.op) {
          case IrOp::Nop:
            break;
          case IrOp::Send:
            outgoing.data = readSpan(tb.rank, instr.srcBuf,
                                     instr.srcOff, instr, tb.tile);
            break;
          case IrOp::Recv:
            writeSpan(tb.rank, instr.dstBuf, instr.dstOff, instr,
                      tb.tile, incoming.data);
            break;
          case IrOp::Copy: {
            std::vector<float> values = readSpan(
                tb.rank, instr.srcBuf, instr.srcOff, instr, tb.tile);
            writeSpan(tb.rank, instr.dstBuf, instr.dstOff, instr,
                      tb.tile, values);
            break;
          }
          case IrOp::Reduce: {
            std::vector<float> src = readSpan(
                tb.rank, instr.srcBuf, instr.srcOff, instr, tb.tile);
            std::vector<float> dst = readSpan(
                tb.rank, instr.dstBuf, instr.dstOff, instr, tb.tile);
            for (size_t i = 0; i < dst.size(); i++)
                dst[i] = applyReduce(ir.reduceOp, src[i], dst[i]);
            writeSpan(tb.rank, instr.dstBuf, instr.dstOff, instr,
                      tb.tile, dst);
            break;
          }
          case IrOp::RecvReduceCopy:
          case IrOp::RecvReduceSend:
          case IrOp::RecvReduceCopySend: {
            std::vector<float> local = readSpan(
                tb.rank, instr.srcBuf, instr.srcOff, instr, tb.tile);
            if (incoming.data.size() != local.size())
                throw RuntimeError("interpreter: rrc size mismatch");
            for (size_t i = 0; i < local.size(); i++) {
                local[i] = applyReduce(ir.reduceOp, local[i],
                                       incoming.data[i]);
            }
            if (irOpWritesDst(instr.op)) {
                writeSpan(tb.rank, instr.dstBuf, instr.dstOff, instr,
                          tb.tile, local);
            }
            if (irOpSends(instr.op))
                outgoing.data = std::move(local);
            break;
          }
          case IrOp::RecvCopySend:
            writeSpan(tb.rank, instr.dstBuf, instr.dstOff, instr,
                      tb.tile, incoming.data);
            outgoing.data = std::move(incoming.data);
            break;
        }
    }
};

IrExecution::IrExecution(const Topology &topology, const IrProgram &ir,
                         EventQueue &events, FlowNetwork &network,
                         ExecOptions options, DataStore *data)
    : impl_(std::make_unique<Impl>(topology, ir, events, network,
                                   options, data))
{
}

IrExecution::~IrExecution() = default;

void
IrExecution::start(std::function<void(const ExecStats &)> on_complete)
{
    impl_->start(std::move(on_complete));
}

std::string
IrExecution::blockedReport() const
{
    return impl_->blockedReport();
}

ExecStats
runIr(const Topology &topology, const IrProgram &ir,
      const ExecOptions &options, DataStore *data)
{
    EventQueue events;
    FlowNetwork network(topology, events);
    // The explicit knob is honored as-is (timings are bit-identical
    // at any value). Callers that spawn simulations from their own
    // worker threads — the tuner sweep — size simThreads from the
    // process-wide SimThreadBudget instead of passing a raw request.
    network.setThreads(options.simThreads);
    events.setProfile(options.profile);
    network.setProfile(options.profile);
    const FaultSchedule &faults =
        options.faults != nullptr ? *options.faults
                                  : topology.faultSchedule();
    if (!faults.empty())
        network.injectFaults(faults);
    if (options.dataMode && data != nullptr)
        data->configure(ir, options.bytesPerRank);
    IrExecution exec(topology, ir, events, network, options, data);
    ExecStats result;
    bool done = false;
    exec.start([&](const ExecStats &stats) {
        result = stats;
        done = true;
    });
    events.run();
    if (!done)
        throw RuntimeError(
            "interpreter: execution wedged (runtime deadlock):\n" +
            exec.blockedReport());
    return result;
}

} // namespace mscclang
