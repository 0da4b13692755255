/**
 * @file
 * Cycle-level detailed GPU simulator — the machine layer.
 *
 * This is the expensive tool the paper's methodology exists to avoid
 * running on whole programs: an in-order, scoreboarded SMT EU model
 * that walks every dynamic instruction of a dispatch, tracking
 * register/flag dependences, issue-port occupancy, memory latency,
 * and a shared bandwidth queue. Architects would run thousands of
 * design points through something like this; the subset-selection
 * pipeline makes that affordable by simulating only representative
 * kernel invocations and extrapolating.
 *
 * The subsystem is layered (see DESIGN.md §3.5):
 *
 *  - **artifact layer** (gpu/detailed_checkpoint.hh): per-dispatch
 *    DetailedCheckpoints — block trace + Fast-mode profile facts +
 *    truncation scaling — built once via Executor::checkpoint() and
 *    valid for every design point;
 *  - **EU core** (gpu/eu_pipeline.hh): the scoreboard/SMT-context/
 *    bandwidth pipeline, a pure function of (binary, trace, contexts,
 *    machine parameters);
 *  - **machine layer** (this file): wave scaling and frequency
 *    conversion per replay cell, and the partitioning of independent
 *    replay cells — (design point, interval, dispatch) units, each an
 *    EU-homogeneous wave replay — across the sched::ThreadPool.
 *
 * The model simulates one EU's SMT thread contexts explicitly (they
 * replay the dispatch's recorded control-flow trace) and scales to
 * the full machine by waves, which is sound because dispatch threads
 * are homogeneous in our workloads and EUs are identical. That same
 * homogeneity makes the replay *cell* the parallel partition grain:
 * every EU/sub-slice of a cell computes identical cycles, so
 * partitioning cells across workers covers the machine's EUs with no
 * redundant work. simulateBatch() runs cells in parallel by default;
 * Backend::Serial, passed explicitly, is the bitwise reference —
 * cells are pure functions of their checkpoint and design point, and
 * aggregation order is fixed, so results are identical at any thread
 * count.
 */

#ifndef GT_GPU_DETAILED_SIM_HH
#define GT_GPU_DETAILED_SIM_HH

#include "gpu/detailed_checkpoint.hh"
#include "gpu/executor.hh"
#include "gpu/timing.hh"

namespace gt::sched
{
class ThreadPool;
}

namespace gt::gpu
{

/** Outcome of detail-simulating one dispatch. */
struct DetailedResult
{
    double cycles = 0.0;           //!< modeled GPU cycles, full dispatch
    double seconds = 0.0;          //!< modeled wall time
    uint64_t simulatedInstrs = 0;  //!< dynamic instructions walked
    double spi = 0.0;              //!< seconds per (application) instr
};

/** In-order SMT EU machine model over checkpointed dispatches. */
class DetailedSimulator
{
  public:
    /** Machine-layer execution strategy for simulateBatch(). */
    enum class Backend { Serial, Parallel };

    /**
     * @param config   design point to simulate
     * @param freq_mhz clock (0 = the design's maximum)
     */
    explicit DetailedSimulator(const DeviceConfig &config,
                               double freq_mhz = 0.0);

    /**
     * Simulate @p dispatch in detail, building a fresh checkpoint
     * through @p executor (its device memory is untouched). One-shot
     * convenience — sweeps should checkpoint once and call the
     * overload below per design point.
     */
    DetailedResult simulate(Executor &executor,
                            const Dispatch &dispatch);

    /** Simulate one checkpointed dispatch (one replay cell). Pure:
     * depends only on the checkpoint and this design point. */
    DetailedResult simulate(const DetailedCheckpoint &cp) const;

    /**
     * Simulate a batch of independent replay cells. Serial backend:
     * one cell at a time, in index order, on the calling thread —
     * the bitwise oracle. Parallel backend: cells partition across
     * @p pool (null = the process-wide pool) with per-index result
     * slots, so the outcome is bitwise identical to serial at any
     * thread count. Null cells yield default-constructed results.
     */
    std::vector<DetailedResult>
    simulateBatch(const std::vector<const DetailedCheckpoint *> &cells,
                  Backend backend = Backend::Parallel,
                  sched::ThreadPool *pool = nullptr) const;

    /** Dependent-use latencies per opcode class, in cycles. */
    void setAluLatency(double cycles) { aluLatency = cycles; }
    void setMathLatency(double cycles) { mathLatency = cycles; }

    /**
     * The production backend, Parallel. Kept only because the
     * end-to-end benchmark (perfbench/flows.cc) names it; retire it
     * with that call.
     */
    static Backend defaultBackend() { return Backend::Parallel; }

  private:
    const DeviceConfig config;
    double freq;
    double aluLatency = 2.0;
    double mathLatency = 8.0;
};

} // namespace gt::gpu

#endif // GT_GPU_DETAILED_SIM_HH
