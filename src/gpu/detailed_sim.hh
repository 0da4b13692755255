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
 *    conversion per replay cell — a (design point, dispatch) unit —
 *    and the fan-out of EU walks across the sched::ThreadPool.
 *
 * The model simulates one EU's SMT thread contexts explicitly (they
 * replay the dispatch's recorded control-flow trace) and scales to
 * the full machine by waves, which is sound because dispatch threads
 * are homogeneous in our workloads and EUs are identical. A cell's
 * EU walk is a pure function of (binary, trace, context count) at a
 * design point, and checkpoints that differ only in buffer addresses
 * or grid size share it, so simulateBatch() walks each distinct
 * input once and lets every cell scale that walk by its own waves,
 * truncation and instruction count. Walks run in parallel by default;
 * Backend::Serial, passed explicitly, runs them in order on the
 * calling thread. Walks land in per-index slots and cells are scaled
 * in index order, so results are identical at any thread count.
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

struct EuParams;
struct EuResult;

/** Outcome of detail-simulating one dispatch. */
struct DetailedResult
{
    double cycles = 0.0;           //!< modeled GPU cycles, full dispatch
    double seconds = 0.0;          //!< modeled wall time
    uint64_t simulatedInstrs = 0;  //!< instructions one EU issues
                                   //!< replaying this dispatch
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
     * Simulate a batch of independent replay cells, bitwise equal to
     * simulate() on each. Cells sharing an EU input (binary, trace
     * contents, contexts) share one walk. Serial backend: walks run
     * in order on the calling thread. Parallel backend: walks
     * partition across @p pool (null = the process-wide pool), unless
     * the batch has fewer than three distinct walks, which run
     * inline like the serial backend's. Null
     * cells yield default-constructed results. If @p eu_walks is
     * given, it receives the number of distinct walks run.
     */
    std::vector<DetailedResult>
    simulateBatch(const std::vector<const DetailedCheckpoint *> &cells,
                  Backend backend = Backend::Parallel,
                  sched::ThreadPool *pool = nullptr,
                  uint64_t *eu_walks = nullptr) const;

    /** Dependent-use latencies per opcode class, in cycles. */
    void setAluLatency(double cycles) { aluLatency = cycles; }
    void setMathLatency(double cycles) { mathLatency = cycles; }

    /** The EU pipeline's parameters at this design point. */
    EuParams euParams() const;

    /**
     * The production backend, Parallel. Kept only because the
     * end-to-end benchmark (perfbench/flows.cc) names it; retire it
     * with that call.
     */
    static Backend defaultBackend() { return Backend::Parallel; }

  private:
    /** SMT contexts one EU runs for @p cp. */
    uint32_t contexts(const DetailedCheckpoint &cp) const;
    /** One EU's walk @p eu scaled to @p cp's whole dispatch. */
    DetailedResult scale(const DetailedCheckpoint &cp,
                         const EuResult &eu) const;

    const DeviceConfig config;
    double freq;
    double aluLatency = 2.0;
    double mathLatency = 8.0;
};

} // namespace gt::gpu

#endif // GT_GPU_DETAILED_SIM_HH
