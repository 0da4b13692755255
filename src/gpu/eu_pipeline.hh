/**
 * @file
 * The detailed simulator's EU pipeline core.
 *
 * One in-order, scoreboarded SMT execution unit: a set of hardware
 * thread contexts replays a recorded basic-block trace against a
 * register/flag scoreboard, a round-robin issue port, per-opcode-class
 * dependent-use latencies, and a shared memory bandwidth queue. This
 * is the innermost layer of the detailed-simulation stack — a pure
 * function of (binary, trace, context count, machine parameters) with
 * no executor, driver, or threading dependencies. The machine layer
 * (detailed_sim.hh) owns wave scaling, frequency conversion, and
 * parallel fan-out; the artifact layer (detailed_checkpoint.hh) owns
 * the functional inputs.
 *
 * The walk is event-cached: a context's next-issue time,
 * max(ready, operands ready), depends only on its own scoreboard and
 * its next instruction, which change only when that context issues.
 * So each context's time is recomputed after it issues and the
 * round-robin scan only compares cached doubles. Each instruction's
 * static facts (issue cycles, latency class, scoreboard slots, send
 * transfer cycles) are decoded once per call. A step-by-step
 * reference lives in tests/eu_reference.hh.
 */

#ifndef GT_GPU_EU_PIPELINE_HH
#define GT_GPU_EU_PIPELINE_HH

#include <cstdint>
#include <vector>

#include "isa/kernel.hh"

namespace gt::gpu
{

/** Machine parameters of one EU, all in cycles or bytes/cycle. */
struct EuParams
{
    double aluLatency = 2.0;       //!< dependent-use ALU latency
    double mathLatency = 8.0;      //!< transcendental/divide latency
    uint32_t fpuLanes = 4;         //!< FPU lanes (issue-cycle cost)
    double bwBytesPerCycle = 0.0;  //!< this EU's bandwidth share
    double memLatCycles = 0.0;     //!< memory round-trip latency
};

/** Outcome of replaying one trace on one EU. */
struct EuResult
{
    double cycles = 0.0;      //!< busy cycles until the last write
    uint64_t issued = 0;      //!< instructions issued (all contexts)
};

/**
 * Replay @p trace (a sequence of basic-block indices into @p bin)
 * on one EU with @p num_ctx SMT contexts, each walking the same
 * homogeneous trace. Deterministic: the result depends only on the
 * arguments, never on threading or global state, so the machine
 * layer may evaluate independent replays concurrently.
 */
EuResult simulateEu(const isa::KernelBinary &bin,
                    const std::vector<uint32_t> &trace,
                    uint32_t num_ctx, const EuParams &params);

} // namespace gt::gpu

#endif // GT_GPU_EU_PIPELINE_HH
