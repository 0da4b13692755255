/**
 * @file
 * Detailed-validation stack benchmark: the legacy per-call path vs.
 * the checkpointed stack, serial and parallel.
 *
 * For each (small) application, all 30 configurations of its
 * exploration are detail-validated — every selection's intervals are
 * simulated cycle-by-cycle, extrapolated, and compared against
 * detailed simulation of the whole program — three ways:
 *
 *  - **legacy**: the pre-refactor shape. One whole-program walk plus
 *    one subset walk per selection, each simulate() call re-running
 *    the functional pre-pass (block trace + Fast-mode profile)
 *    through the executor;
 *  - **serial**: core::DetailedValidator with the serial machine
 *    layer — one checkpoint and one replay cell per distinct
 *    dispatch, one EU walk per distinct EU input, every selection
 *    served from the caches;
 *  - **parallel**: the same validator with its default parallel
 *    machine layer, EU walks fanned across the thread pool.
 *
 * All three must agree bit for bit (the parallel backend is
 * additionally checked at 1, 4, and hardware-width pools), and the
 * paired wall clocks land in BENCH_detailed.json.
 *
 * The legacy path shares the machine layer's EU walk, so its speedup
 * gate cannot see a regression there. A second gate therefore times
 * the production gpu::simulateEu() against the step-by-step
 * reference walk (tests/eu_reference.hh) on every distinct checkpoint
 * of each application, requiring equal results and a minimum
 * geometric-mean walk speedup:
 *
 *     cd /path/to/repo && build/bench/detailed_validate
 *
 * Pass --smoke for the single-application CI variant.
 */

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>

#include "bench/harness.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/detailed_validator.hh"
#include "tests/eu_reference.hh"

using namespace gt;
using Backend = core::DetailedValidator::Backend;
using Report = core::DetailedValidator::Report;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** The pre-refactor stack: a fresh functional pre-pass inside every
 * simulate() call, no checkpoint or cell reuse anywhere. */
struct LegacyStack
{
    explicit LegacyStack(const core::ProfiledApp &app_) : app(app_)
    {
        gpu::TrialConfig trial;
        trial.noiseSigma = 0.0;
        driver = std::make_unique<ocl::GpuDriver>(
            gpu::DeviceConfig::hd4000(), jit, trial);
        runtime = std::make_unique<ocl::ClRuntime>(*driver);
        cfl::replay(app.recording, *runtime);
        sim = std::make_unique<gpu::DetailedSimulator>(
            driver->config());
    }

    void
    walkRange(uint64_t first, uint64_t last, uint64_t &instrs,
              double &seconds, uint64_t &walked)
    {
        for (uint64_t d = first; d <= last; ++d) {
            const auto &rec = app.db.profileAt(d);
            gpu::Dispatch dispatch;
            dispatch.binary = &driver->binary(rec.kernelId);
            dispatch.globalSize = rec.globalWorkSize;
            dispatch.simdWidth = 16;
            dispatch.args = rec.args;
            gpu::DetailedResult r =
                sim->simulate(driver->executor(), dispatch);
            instrs += rec.instrs;
            seconds += r.seconds;
            walked += r.simulatedInstrs;
        }
    }

    /** Whole-program SPI, paid once and reused by every selection
     * (the legacy benches did the same). */
    void
    walkFull()
    {
        walkRange(0, app.db.numDispatches() - 1, fullInstrs,
                  fullSeconds, fullWalked);
    }

    Report
    validate(const core::SubsetSelection &sel)
    {
        Report r;
        r.fullSpi = fullSeconds / (double)fullInstrs;
        r.fullWalked = fullWalked;
        for (size_t c = 0; c < sel.selected.size(); ++c) {
            const core::Interval &iv =
                sel.intervals[sel.selected[c]];
            uint64_t instrs = 0;
            double seconds = 0.0;
            walkRange(iv.firstDispatch, iv.lastDispatch, instrs,
                      seconds, r.subsetWalked);
            r.projectedSpi +=
                sel.ratios[c] * (seconds / (double)instrs);
        }
        r.errorPct =
            std::abs(r.projectedSpi - r.fullSpi) / r.fullSpi * 100.0;
        return r;
    }

    /** Every distinct checkpoint the application's dispatches use,
     * in first-use order. */
    std::vector<const gpu::DetailedCheckpoint *>
    checkpoints()
    {
        std::vector<const gpu::DetailedCheckpoint *> out;
        for (uint64_t d = 0; d < app.db.numDispatches(); ++d) {
            const auto &rec = app.db.profileAt(d);
            const gpu::DetailedCheckpoint *cp = &driver->checkpoint(
                rec.kernelId, rec.globalWorkSize, 16, rec.args);
            if (std::find(out.begin(), out.end(), cp) == out.end())
                out.push_back(cp);
        }
        return out;
    }

    const core::ProfiledApp &app;
    workloads::TemplateJit jit;
    std::unique_ptr<ocl::GpuDriver> driver;
    std::unique_ptr<ocl::ClRuntime> runtime;
    std::unique_ptr<gpu::DetailedSimulator> sim;
    uint64_t fullInstrs = 0, fullWalked = 0;
    double fullSeconds = 0.0;
};

/** Minimum geometric-mean speedup of the production EU walk over
 * the step-by-step reference (set from a full run; see CHANGES.md). */
constexpr double euWalkGate = 3.0;

/** Timed passes per EU-walk side; the best one is reported. */
constexpr int euWalkReps = 3;

/** Best of euWalkReps timings of @p walk over every checkpoint in
 * @p cps (one EU per checkpoint, at min(@p threads_per_eu, its
 * threads) contexts); the last pass's results are left in @p out. */
template <typename Walk>
double
timeWalks(const std::vector<const gpu::DetailedCheckpoint *> &cps,
          const gpu::EuParams &params, uint32_t threads_per_eu,
          Walk &&walk, std::vector<gpu::EuResult> &out)
{
    double best = 0.0;
    for (int rep = 0; rep < euWalkReps; ++rep) {
        out.clear();
        auto t0 = std::chrono::steady_clock::now();
        for (const gpu::DetailedCheckpoint *cp : cps) {
            auto ctx = (uint32_t)std::min<uint64_t>(threads_per_eu,
                                                    cp->numThreads);
            out.push_back(walk(*cp->binary, cp->trace, ctx, params));
        }
        double s = secondsSince(t0);
        best = rep == 0 ? s : std::min(best, s);
    }
    return best;
}

bool
sameReport(const Report &a, const Report &b)
{
    return a.fullSpi == b.fullSpi &&
           a.projectedSpi == b.projectedSpi &&
           a.errorPct == b.errorPct && a.fullWalked == b.fullWalked &&
           a.subsetWalked == b.subsetWalked;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    const bool smoke = bench::stripSmokeFlag(argc, argv);

    // Whole-program detailed simulation bounds the choice to the
    // smallest applications of the suite.
    std::vector<std::string> names{"cb-gaussian-image"};
    if (!smoke) {
        names.push_back("cb-gaussian-buffer");
        names.push_back("cb-histogram-image");
    }

    struct Row
    {
        std::string app;
        uint64_t dispatches = 0, selections = 0, cells = 0, walks = 0;
        uint64_t checkpoints = 0;
        double legacyS = 0.0, serialS = 0.0, parallelS = 0.0;
        double euReferenceS = 0.0, euWalkS = 0.0;
    };
    std::vector<Row> rows;

    for (const std::string &name : names) {
        const core::ProfiledApp &app = bench::profiledApp(name);
        const core::Exploration &ex = bench::exploration(name);

        Row row;
        row.app = name;
        row.dispatches = app.db.numDispatches();
        row.selections = ex.results.size();

        // Legacy: whole-program walk once, then a per-call subset
        // walk per selection — every walk re-runs the functional
        // pre-pass for each dispatch it touches.
        auto t0 = std::chrono::steady_clock::now();
        LegacyStack legacy(app);
        legacy.walkFull();
        std::vector<Report> legacy_reps;
        for (const core::ConfigResult &cr : ex.results)
            legacy_reps.push_back(legacy.validate(cr.selection));
        row.legacyS = secondsSince(t0);

        // The EU walk alone: production against the step-by-step
        // reference, on the same checkpoints at the profiling clock.
        const auto cps = legacy.checkpoints();
        const gpu::EuParams params = legacy.sim->euParams();
        const uint32_t threads = legacy.driver->config().threadsPerEu;
        std::vector<gpu::EuResult> ref_walks, walks;
        row.checkpoints = cps.size();
        row.euReferenceS = timeWalks(cps, params, threads,
                                     gpu::reference::simulateEu, ref_walks);
        row.euWalkS = timeWalks(
            cps, params, threads,
            [](const isa::KernelBinary &bin,
               const std::vector<uint32_t> &trace, uint32_t ctx,
               const gpu::EuParams &p) {
                return gpu::simulateEu(bin, trace, ctx, p);
            },
            walks);
        for (size_t i = 0; i < cps.size(); ++i) {
            GT_ASSERT(ref_walks[i].cycles == walks[i].cycles &&
                          ref_walks[i].issued == walks[i].issued,
                      name, ": EU walk differs from the reference on ",
                      cps[i]->binary->name);
        }

        // Checkpointed stack, serial oracle.
        t0 = std::chrono::steady_clock::now();
        core::DetailedValidator serial_v(app, Backend::Serial);
        std::vector<Report> serial_reps;
        for (const core::ConfigResult &cr : ex.results)
            serial_reps.push_back(serial_v.validate(cr.selection));
        row.serialS = secondsSince(t0);
        row.cells = serial_v.cellSims();
        row.walks = serial_v.euWalks();

        // Checkpointed stack, parallel machine layer.
        t0 = std::chrono::steady_clock::now();
        core::DetailedValidator parallel_v(app, Backend::Parallel);
        std::vector<Report> parallel_reps;
        for (const core::ConfigResult &cr : ex.results)
            parallel_reps.push_back(parallel_v.validate(cr.selection));
        row.parallelS = secondsSince(t0);

        for (size_t i = 0; i < serial_reps.size(); ++i) {
            GT_ASSERT(sameReport(legacy_reps[i], serial_reps[i]),
                      name, ": legacy/serial divergence at config ",
                      i);
            GT_ASSERT(sameReport(serial_reps[i], parallel_reps[i]),
                      name,
                      ": serial/parallel divergence at config ", i);
        }

        // The parallel backend must be thread-count-invariant:
        // re-validate one selection at 1, 4, and hardware width.
        const core::SubsetSelection &probe =
            core::pickMinError(ex).selection;
        Report want = serial_v.validate(probe);
        sched::ThreadPool pool1(1), pool4(4);
        sched::ThreadPool *pools[] = {&pool1, &pool4,
                                      &sched::ThreadPool::global()};
        for (sched::ThreadPool *pool : pools) {
            core::DetailedValidator v(app, Backend::Parallel, pool);
            GT_ASSERT(sameReport(v.validate(probe), want), name,
                      ": parallel result varies with pool width ",
                      pool->threadCount());
        }

        rows.push_back(row);
        std::cout << name << ": " << row.selections
                  << " selections over " << row.dispatches
                  << " dispatches, " << row.cells << " replay cells, "
                  << row.walks << " EU walks\n"
                  << "  legacy    " << fixed(row.legacyS, 3)
                  << " s\n"
                  << "  serial    " << fixed(row.serialS, 3)
                  << " s  (" << fixed(row.legacyS / row.serialS, 1)
                  << "x, checkpointed)\n"
                  << "  parallel  " << fixed(row.parallelS, 3)
                  << " s  ("
                  << fixed(row.legacyS / row.parallelS, 1)
                  << "x, bit-identical at 1/4/hw threads)\n"
                  << "  EU walk   " << fixed(row.euWalkS * 1e3, 2)
                  << " ms over " << row.checkpoints
                  << " checkpoints  ("
                  << fixed(row.euReferenceS / row.euWalkS, 1)
                  << "x the step-by-step reference, "
                  << fixed(row.euReferenceS * 1e3, 2) << " ms)\n";
    }

    bench::GeoMean geomean, eu_geomean;
    for (const Row &r : rows) {
        geomean.add(r.legacyS / r.parallelS);
        eu_geomean.add(r.euReferenceS / r.euWalkS);
    }
    std::cout << "\ngeomean speedup (checkpointed parallel vs "
                 "legacy): "
              << fixed(geomean.value(), 1) << "x\n"
              << "geomean EU walk speedup (production vs step-by-step "
                 "reference): "
              << fixed(eu_geomean.value(), 1) << "x\n";

    bench::BenchReport report("BENCH_detailed.json", smoke);
    for (const Row &r : rows) {
        report.addRow()
            .field("app", r.app)
            .field("selections", r.selections)
            .field("dispatches", r.dispatches)
            .field("cells", r.cells)
            .field("eu_walks", r.walks)
            .field("legacy_s", r.legacyS)
            .field("serial_s", r.serialS)
            .field("parallel_s", r.parallelS)
            .field("speedup", r.legacyS / r.parallelS)
            .field("checkpoints", r.checkpoints)
            .field("eu_reference_s", r.euReferenceS)
            .field("eu_walk_s", r.euWalkS)
            .field("eu_speedup", r.euReferenceS / r.euWalkS);
    }
    report.scalar("geomean_speedup", geomean.value());
    report.scalar("geomean_eu_speedup", eu_geomean.value());
    report.scalar("eu_walk_repetitions", euWalkReps);
    report.gate("speedup_gate", geomean.value() >= 3.0,
                "detailed validation speedup regressed below 3x: " +
                    std::to_string(geomean.value()));
    report.gate("eu_walk_gate", eu_geomean.value() >= euWalkGate || smoke,
                "EU walk speedup over the step-by-step reference "
                "regressed below " +
                    fixed(euWalkGate, 1) + "x: " +
                    std::to_string(eu_geomean.value()));
    return report.finish();
}
