/**
 * @file
 * Control-relevance analysis (backward slicing) over kernel binaries.
 *
 * The paper's applications average 308 billion dynamic instructions;
 * interpreting every lane of every instruction of a scaled-down suite
 * would still dominate experiment time. The executor therefore offers
 * a *fast* mode that fully evaluates only the instructions whose
 * results can influence control flow (loop counters, compares, the
 * chains feeding them) or that must execute for profiling
 * (instrumentation pseudo-ops), and merely counts the rest at basic-
 * block granularity. This analysis computes that set.
 *
 * The analysis is a conservative, flow-insensitive backward slice:
 * roots are all control instructions, all flag-writing compares, and
 * any registers read by instrumentation ops; any instruction writing
 * a register in the transitive use-set of a root is relevant. If a
 * memory load ends up relevant (data-dependent control flow), the
 * binary is flagged as requiring full execution, since fast mode does
 * not model memory contents.
 */

#ifndef GT_ISA_SLICE_HH
#define GT_ISA_SLICE_HH

#include <vector>

#include "isa/kernel.hh"

namespace gt::isa
{

/** Result of the control-relevance analysis for one binary. */
struct Relevance
{
    /** relevant[block][instr]: must this instruction be evaluated? */
    std::vector<std::vector<bool>> relevant;

    /**
     * True if control flow depends on loaded data, so fast mode is
     * unsound and the executor must fall back to full evaluation.
     */
    bool needsFullExec = false;

    /**
     * True if control flow can differ across hardware threads (the
     * slice reaches r0/r1, the per-thread id registers). When false,
     * every thread of a dispatch executes identically and the
     * executor runs one representative thread, scaling counts by the
     * thread count.
     */
    bool threadDependent = false;

    /** Number of relevant instructions (diagnostics). */
    uint64_t relevantCount = 0;

    /** Total instructions analyzed. */
    uint64_t totalCount = 0;
};

/** Run the analysis on @p bin. */
Relevance analyzeRelevance(const KernelBinary &bin);

} // namespace gt::isa

#endif // GT_ISA_SLICE_HH
