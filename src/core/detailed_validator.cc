#include "core/detailed_validator.hh"

#include <cmath>
#include <tuple>

#include "common/logging.hh"

namespace gt::core
{

bool
DetailedValidator::PointKey::operator<(const PointKey &o) const
{
    return std::tie(numEus, threadsPerEu, fpuLanes, freqMhz, bwGBs,
                    latNs, overheadUs) <
           std::tie(o.numEus, o.threadsPerEu, o.fpuLanes, o.freqMhz,
                    o.bwGBs, o.latNs, o.overheadUs);
}

DetailedValidator::DetailedValidator(const ProfiledApp &app_,
                                     Backend backend_,
                                     sched::ThreadPool *pool_)
    : app(app_), backend(backend_), pool(pool_)
{
    // The functional stack replays on the profiling platform; the
    // machine layer is parameterized per design point instead, so
    // one replayed device serves every validate() call.
    gpu::TrialConfig trial;
    trial.noiseSigma = 0.0;
    driver = std::make_unique<ocl::GpuDriver>(
        gpu::DeviceConfig::hd4000(), jit, trial);
    runtime = std::make_unique<ocl::ClRuntime>(*driver);
    cfl::replay(app.recording, *runtime);
}

const DetailedValidator::PointCells &
DetailedValidator::cells(const DesignPoint &dp)
{
    const gpu::DeviceConfig &c = dp.config;
    PointKey key;
    key.numEus = c.numEus;
    key.threadsPerEu = c.threadsPerEu;
    key.fpuLanes = c.fpuLanesPerEu;
    key.freqMhz = dp.freqMhz > 0.0 ? dp.freqMhz : c.maxFreqMhz;
    key.bwGBs = c.memBandwidthGBs;
    key.latNs = c.memLatencyNs;
    key.overheadUs = c.dispatchOverheadUs;

    PointCells &pc = pointCache[key];
    if (pc.simulated)
        return pc;

    // Fast-forward: warm the checkpoint store serially (builds go
    // through the stateful executor). First design point pays one
    // functional pre-pass per distinct dispatch; later points hit
    // the memo table outright. Dispatches sharing a checkpoint also
    // share one replay cell — simulate() is a pure function of
    // (checkpoint, design point) — so repeated invocations of the
    // same kernel/shape/args cost one cycle-level walk, not many.
    const uint64_t num = app.db.numDispatches();
    std::map<const gpu::DetailedCheckpoint *, size_t> uniq;
    std::vector<const gpu::DetailedCheckpoint *> cps;
    std::vector<size_t> cell_of(num);
    for (size_t d = 0; d < num; ++d) {
        const gtpin::DispatchProfile &rec = app.db.profileAt(d);
        const gpu::DetailedCheckpoint *cp = &driver->checkpoint(
            rec.kernelId, rec.globalWorkSize, 16, rec.args);
        auto [it, fresh] = uniq.emplace(cp, cps.size());
        if (fresh)
            cps.push_back(cp);
        cell_of[d] = it->second;
    }

    // The machine layer: one replay cell per distinct dispatch, one
    // EU walk per distinct EU input, then scattered back to dispatch
    // order.
    gpu::DetailedSimulator sim(dp.config, dp.freqMhz);
    uint64_t walks = 0;
    std::vector<gpu::DetailedResult> cell_results =
        sim.simulateBatch(cps, backend, pool, &walks);
    cellCount += cps.size();
    walkCount += walks;
    pc.results.resize(num);
    for (size_t d = 0; d < num; ++d)
        pc.results[d] = cell_results[cell_of[d]];
    pc.simulated = true;
    return pc;
}

DetailedValidator::Report
DetailedValidator::validate(const SubsetSelection &sel,
                            const DesignPoint &dp)
{
    const uint64_t num = app.db.numDispatches();
    GT_ASSERT(num > 0, app.name, ": empty database");
    GT_ASSERT(!sel.selected.empty(), app.name,
              ": projection from empty selection");
    GT_ASSERT(sel.selected.size() == sel.ratios.size(), app.name,
              ": selection/ratio size mismatch (", sel.selected.size(),
              " intervals, ", sel.ratios.size(), " ratios)");
    const PointCells &pc = cells(dp);

    Report r;
    // Whole-program detailed SPI, accumulated in dispatch order
    // (fixed order keeps serial and parallel backends bitwise
    // identical).
    uint64_t full_instrs = 0;
    double full_seconds = 0.0;
    for (size_t d = 0; d < num; ++d) {
        full_instrs += app.db.profileAt(d).instrs;
        full_seconds += pc.results[d].seconds;
        r.fullWalked += pc.results[d].simulatedInstrs;
    }
    r.fullSpi = full_seconds / (double)full_instrs;

    // Selection-only detailed simulation + extrapolation (Eq. 1's
    // ratio-weighted sum over per-interval SPI).
    for (size_t c = 0; c < sel.selected.size(); ++c) {
        GT_ASSERT(sel.selected[c] < sel.intervals.size(), app.name,
                  ": selected interval ", sel.selected[c],
                  " out of range");
        const Interval &iv = sel.intervals[sel.selected[c]];
        GT_ASSERT(iv.lastDispatch < num, app.name,
                  ": selection does not match this database");
        uint64_t instrs = 0;
        double seconds = 0.0;
        for (uint64_t d = iv.firstDispatch; d <= iv.lastDispatch;
             ++d) {
            instrs += app.db.profileAt(d).instrs;
            seconds += pc.results[d].seconds;
            r.subsetWalked += pc.results[d].simulatedInstrs;
        }
        GT_ASSERT(instrs > 0, app.name, ": selected interval ",
                  sel.selected[c], " (dispatches ", iv.firstDispatch,
                  "-", iv.lastDispatch, ") has no instructions");
        r.projectedSpi += sel.ratios[c] * (seconds / (double)instrs);
    }

    r.errorPct =
        std::abs(r.projectedSpi - r.fullSpi) / r.fullSpi * 100.0;
    return r;
}

uint64_t
DetailedValidator::checkpointBuilds() const
{
    return driver->checkpoints().builds();
}

} // namespace gt::core
