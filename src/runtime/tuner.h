/**
 * @file
 * Automatic per-size algorithm selection (paper §6: "the runtime
 * dynamically selects the right algorithm to invoke based on user
 * configurable size ranges ... this allows a user to hyper-optimize
 * MSCCLang programs to a specific use case"). The tuner automates
 * building those size ranges: it times every candidate across a
 * geometric size sweep on the simulated machine and emits the
 * minimal set of windows where each candidate wins, ready to
 * register with a Communicator.
 */

#ifndef MSCCLANG_RUNTIME_TUNER_H_
#define MSCCLANG_RUNTIME_TUNER_H_

#include <string>
#include <vector>

#include "runtime/communicator.h"

namespace mscclang {

/** One tuned selection window. */
struct TunedWindow
{
    std::uint64_t minBytes = 0;
    std::uint64_t maxBytes = 0;
    /** Index into the candidate list. */
    int candidate = -1;
    /** Winning time at the window's first sweep point, microsec. */
    double timeUs = 0.0;
};

/** Tuning parameters. */
struct TuneOptions
{
    std::uint64_t fromBytes = 1 << 10;
    std::uint64_t toBytes = 64 << 20;
    int maxTilesPerChunk = 16;
    /**
     * Worker threads for the sweep; 0 means one per hardware thread.
     * The tuned windows are identical for any thread count: each
     * (candidate, size) point is an independent simulation on the
     * immutable topology, and the winner merge runs serially over
     * the completed result matrix.
     *
     * Both this and simThreads are *requests*: the sweep leases the
     * actual thread count from the process-wide SimThreadBudget, so
     * sweep workers times per-simulation workers never exceeds the
     * hardware concurrency (sweep workers get priority; leftover
     * tokens become per-simulation threads).
     */
    int threads = 0;
    /** Requested flow-network threads inside each simulation. */
    int simThreads = 1;
    /** No-op: kept only because the frozen perfbench harness sets it
     *  (the rank-batched interpreter engine is deleted). */
    bool parallelInterp = false;
};

/**
 * The tuner's sweep points: every power-of-two multiple of
 * @p from_bytes up to @p to_bytes, with @p to_bytes itself always
 * the (measured) last point even when it is not a doubling point,
 * and endpoints in the top bit range clamped instead of wrapping.
 * @throws RuntimeError when from_bytes is 0 or exceeds to_bytes.
 */
std::vector<std::uint64_t> tuneSweepSizes(std::uint64_t from_bytes,
                                          std::uint64_t to_bytes);

/**
 * Times every (candidate, size) point on the simulated machine and
 * returns the matrix indexed [candidate][size]. The points are
 * independent simulations fanned out over worker threads leased from
 * the process-wide SimThreadBudget (options.threads sweep workers
 * first, leftovers becoming per-simulation simThreads), via an RAII
 * lease so the tokens return even when a simulation throws; the
 * filled matrix is identical for every thread count.
 * options.fromBytes/toBytes are ignored — @p sizes is the sweep.
 */
std::vector<std::vector<double>> sweepCandidateTimesUs(
    const Topology &topology,
    const std::vector<const IrProgram *> &candidates,
    const std::vector<std::uint64_t> &sizes,
    const TuneOptions &options = {});

/**
 * Merges a completed (candidate x size) timing matrix into the
 * minimal window set of per-size winners. Windows tile all of
 * [0, max std::uint64_t] contiguously: window k covers from its
 * sweep point up to just below the next one, the first window
 * extends down to 0, and the last is open-ended. Ties at a sweep
 * point go to the lowest candidate index; adjacent sweep points won
 * by the same candidate coalesce into one window. Degenerate inputs
 * are handled explicitly: a single sweep point yields the single
 * all-covering window, and an empty candidate list, empty sweep, or
 * ragged matrix throws RuntimeError instead of corrupting the
 * window table.
 */
std::vector<TunedWindow> mergeTunedWindows(
    const std::vector<std::uint64_t> &sizes,
    const std::vector<std::vector<double>> &times_us);

/**
 * Times every candidate at each power-of-two multiple of fromBytes
 * up to and including toBytes (toBytes is always measured, even when
 * it is not a doubling point) and returns the merged windows of
 * winners — tuneSweepSizes + sweepCandidateTimesUs +
 * mergeTunedWindows, with structurally identical candidates
 * simulated once.
 */
std::vector<TunedWindow> tuneWindows(
    const Topology &topology, const std::vector<IrProgram> &candidates,
    const TuneOptions &options = {});

/**
 * Registers the tuned windows with @p comm so Communicator::run
 * picks the per-size winner automatically.
 */
void registerTuned(Communicator &comm,
                   const std::vector<IrProgram> &candidates,
                   const std::vector<TunedWindow> &windows);

/**
 * As above, and additionally installs the communicator's retune
 * hook: whenever the link-health monitor changes the quarantined
 * set, the previously tuned windows (measured on the full machine)
 * are dropped and the candidates that avoid the quarantined links
 * are re-tuned against Topology::degraded() with the same
 * @p options. When every candidate crosses a quarantined link the
 * windows stay cleared and runs recover via replan or fallback.
 */
void registerTuned(Communicator &comm,
                   const std::vector<IrProgram> &candidates,
                   const std::vector<TunedWindow> &windows,
                   const TuneOptions &options);

} // namespace mscclang

#endif // MSCCLANG_RUNTIME_TUNER_H_
