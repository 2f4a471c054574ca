/**
 * @file
 * Static verification of MSCCL-IR (paper §1: "MSCCLang can
 * automatically check whether an implementation properly implements a
 * collective before running on hardware", and §5.2's deadlock/data
 * race guarantees).
 *
 * The verifier abstractly interprets the IR: buffer locations hold
 * symbolic chunk values (at sub-chunk fraction precision so
 * parallelized instances compose), connections are FIFO queues with a
 * bounded slot count, cross thread block dependencies are honored,
 * and thread blocks execute their instruction lists in order. The
 * interpretation either reaches completion — at which point the
 * output buffers are compared against the collective postcondition —
 * or wedges, which is reported as a deadlock with the set of blocked
 * thread blocks.
 */

#ifndef MSCCLANG_COMPILER_VERIFIER_H_
#define MSCCLANG_COMPILER_VERIFIER_H_

#include <memory>
#include <string>

#include "dsl/collective.h"
#include "ir/ir.h"

namespace mscclang {

/** Verification knobs. */
struct VerifyOptions
{
    /**
     * FIFO slots per connection assumed for deadlock detection. The
     * default 0 means "the runtime's actual FIFO depth"
     * (kFifoSlotsPerConnection, the same constant the interpreter's
     * ring inboxes are sized from) — overriding it voids the
     * verifier's deadlock-freedom guarantee for the runtime, so only
     * do so to model hypothetical hardware.
     */
    int slots = 0;
    /**
     * When false, the postcondition check is skipped and only
     * progress/consistency properties are verified (useful for
     * hand-built IR without a collective definition).
     */
    bool checkPostcondition = true;
};

/**
 * Verifies @p ir against @p collective.
 * @throws VerificationError describing the first violated property.
 */
void verifyIr(const IrProgram &ir, const Collective &collective,
              const VerifyOptions &options = {});

/**
 * Structural data-race check (paper §5.2: processing edges between
 * thread blocks must be preserved as explicit dependencies): builds
 * the happens-before relation from thread block program order, cross
 * thread block dependencies, and FIFO-matched communication edges,
 * then demands every pair of conflicting accesses (same location,
 * overlapping byte fractions, at least one write) be ordered.
 *
 * Conflicting accesses always live on one rank. Each rank's pairs
 * first meet a rank-local phase: one clock per thread block, swept
 * over the rank's program order and cross thread block dependencies.
 * That orders every conflict the compiler emits. Pairs it leaves
 * open fall back to an exact ancestor-bitset sweep over the whole
 * graph. Cost: O(instructions × thread blocks per rank), plus the
 * fallback on unresolved ranks only. The lowest failing rank's first
 * unordered pair is reported.
 *
 * @param threads ignored: the check runs on the calling thread. Kept
 *        so existing callers compile; every value gives the same
 *        verdict.
 * @throws VerificationError naming the first unordered conflict.
 */
void verifyRaceFree(const IrProgram &ir, int threads = 0);

} // namespace mscclang

#endif // MSCCLANG_COMPILER_VERIFIER_H_
