/**
 * @file
 * Detailed-simulation validation driver.
 *
 * The top layer of the detailed stack (DESIGN.md §3.5): given one
 * profiled application, detail-validate any number of subset
 * selections against any number of machine design points — the
 * cross-check of Fig. 6, the replay-matrix spot checks of Fig. 8,
 * and the 30-configuration sweep of bench/detailed_validate.
 *
 * The validator owns a private driver/runtime stack, replays the
 * application's recording once to materialize kernels and device
 * memory, and then reuses two memo layers across every validate()
 * call:
 *
 *  - **checkpoints** (design-point independent): one Fast-mode
 *    functional pre-pass per *distinct dispatch*, shared by all
 *    design points via GpuDriver::checkpoint() — the fast-forward
 *    that replaces the old per-(config, dispatch) re-profiling;
 *  - **replay cells** (per design point): one cycle-level result
 *    per (design point, distinct checkpoint), cached so 30
 *    selections over the same design point pay the machine layer
 *    once. Checkpoints that share an EU input share one EU walk
 *    (DetailedSimulator::simulateBatch), fanned out across the
 *    sched::ThreadPool under the default Parallel backend.
 *
 * The Serial backend, passed explicitly, runs the walks in order on
 * the calling thread. Both are bitwise identical at any thread count:
 * walks are pure functions of their input and design point, results
 * land in per-index slots, and every aggregation walks dispatches in
 * ascending order.
 */

#ifndef GT_CORE_DETAILED_VALIDATOR_HH
#define GT_CORE_DETAILED_VALIDATOR_HH

#include <map>
#include <memory>

#include "core/pipeline.hh"
#include "ocl/runtime.hh"
#include "workloads/templates.hh"

namespace gt::core
{

/** One machine design point to detail-validate under. */
struct DesignPoint
{
    gpu::DeviceConfig config = gpu::DeviceConfig::hd4000();
    double freqMhz = 0.0;  //!< clock (0 = the design's maximum)
};

/** Validates selections against cycle-level simulation. */
class DetailedValidator
{
  public:
    using Backend = gpu::DetailedSimulator::Backend;

    /**
     * @param app     the profiled application (recording + database)
     * @param backend machine-layer strategy (Serial is the reference)
     * @param pool    worker pool for the parallel backend (null =
     *                the process-wide pool)
     */
    explicit DetailedValidator(
        const ProfiledApp &app,
        Backend backend = Backend::Parallel,
        sched::ThreadPool *pool = nullptr);

    /** Outcome of detail-validating one selection. */
    struct Report
    {
        double fullSpi = 0.0;       //!< detailed SPI, whole program
        double projectedSpi = 0.0;  //!< ratio-weighted subset SPI
        double errorPct = 0.0;      //!< |proj - full| / full * 100
        uint64_t fullWalked = 0;    //!< instrs walked, whole program
        uint64_t subsetWalked = 0;  //!< instrs walked, subset only

        /** Detailed-simulation work avoided by subsetting. */
        double
        workReduction() const
        {
            return (double)fullWalked /
                   (double)std::max<uint64_t>(1, subsetWalked);
        }
    };

    /**
     * Detail-validate @p sel at @p dp: simulate the selected
     * intervals cycle-by-cycle, extrapolate via the selection
     * ratios, and compare against detailed simulation of every
     * dispatch. Not thread-safe (the parallelism is internal).
     */
    Report validate(const SubsetSelection &sel,
                    const DesignPoint &dp = {});

    /** Functional pre-passes executed (distinct dispatches). */
    uint64_t checkpointBuilds() const;

    /** Cycle-level replay cells executed across all validate()s. */
    uint64_t cellSims() const { return cellCount; }

    /** Distinct EU walks those cells took (<= cellSims()). */
    uint64_t euWalks() const { return walkCount; }

  private:
    /** Per-design-point cell cache, keyed by the machine parameters
     * the cycle model reads. */
    struct PointKey
    {
        uint32_t numEus, threadsPerEu, fpuLanes;
        double freqMhz, bwGBs, latNs, overheadUs;
        bool operator<(const PointKey &o) const;
    };
    struct PointCells
    {
        std::vector<gpu::DetailedResult> results;
        bool simulated = false;
    };

    const PointCells &cells(const DesignPoint &dp);

    const ProfiledApp &app;
    Backend backend;
    sched::ThreadPool *pool;
    workloads::TemplateJit jit;
    std::unique_ptr<ocl::GpuDriver> driver;
    std::unique_ptr<ocl::ClRuntime> runtime;
    std::map<PointKey, PointCells> pointCache;
    uint64_t cellCount = 0;
    uint64_t walkCount = 0;
};

} // namespace gt::core

#endif // GT_CORE_DETAILED_VALIDATOR_HH
