/**
 * @file
 * Reproduces Figure 6: per-application error-minimizing
 * configuration choice.
 *
 * Each application picks, from its own 30-configuration
 * exploration, the configuration with the smallest SPI error; the
 * figure plots error vs. simulation speedup. Paper results: 0.3%
 * average error, 35x average speedup (range 6x-6509x); only 5 of 25
 * applications choose kernel-based features; interval choices split
 * 3 single-kernel / 11 sync / 11 ~100M; memory-based features are
 * chosen by 20 of 25. As a cross-check, the selected intervals of
 * one sample application are run through the detailed cycle-level
 * simulator and the extrapolated SPI is compared against detailed
 * simulation of the full program.
 */

#include <iostream>

#include "bench/harness.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/detailed_validator.hh"

using namespace gt;

int
main()
{
    setLogQuiet(true);

    TextTable table({"application", "intervals", "features",
                     "error", "speedup"});
    RunningStat err, speedup;
    int kernel_features = 0, memory_features = 0;
    int by_scheme[3] = {0, 0, 0};

    for (const std::string &name : bench::paperOrder()) {
        const core::ConfigResult &best =
            core::pickMinError(bench::exploration(name));
        const core::SubsetSelection &sel = best.selection;
        table.addRow({name, core::intervalSchemeName(sel.scheme),
                      core::featureKindName(sel.feature),
                      pct(best.errorPct / 100.0, 2),
                      fixed(sel.speedup(), 0) + "x"});
        err.add(best.errorPct);
        speedup.add(sel.speedup());
        if (!core::isBlockFeature(sel.feature))
            ++kernel_features;
        if (core::hasMemoryFeature(sel.feature))
            ++memory_features;
        ++by_scheme[(int)sel.scheme];
    }

    table.print(std::cout,
                "Fig. 6: per-application error-minimizing "
                "configuration");
    std::cout << "\naverage error " << pct(err.mean() / 100.0, 2)
              << " (worst " << pct(err.max() / 100.0, 2) << ")"
              << ", average speedup " << fixed(speedup.mean(), 0)
              << "x (range " << fixed(speedup.min(), 0) << "x-"
              << fixed(speedup.max(), 0) << "x)\n"
              << "kernel-based features chosen by "
              << kernel_features << "/25"
              << "; memory features by " << memory_features
              << "/25\n"
              << "interval choices: " << by_scheme[0] << " sync, "
              << by_scheme[1] << " approx-n, " << by_scheme[2]
              << " single-kernel\n"
              << "paper: 0.3% avg error (worst 2.1%), 35x avg "
                 "speedup (6x-6509x); 5/25 kernel\n"
                 "features; 20/25 memory features; 11 sync / 11 "
                 "~100M / 3 single-kernel\n\n";

    // Detailed-simulator cross-check on one application: simulate
    // only the selected intervals, extrapolate, and compare against
    // detailed simulation of every dispatch. The validator's
    // checkpoint store runs the functional pre-pass once per
    // distinct dispatch (instead of once per simulate() call) and
    // its parallel machine layer fans EU walks across the pool.
    const std::string sample = "cb-histogram-image";
    std::cout << "Detailed-simulation cross-check (" << sample
              << ")...\n";
    const core::ProfiledApp &app = bench::profiledApp(sample);
    const core::SubsetSelection &sel =
        core::pickMinError(bench::exploration(sample)).selection;

    // Full-program detailed simulation is feasible only because this
    // is one of the smallest applications.
    core::DetailedValidator validator(app);
    core::DetailedValidator::Report rep = validator.validate(sel);

    std::cout << "  full detailed sim: SPI=" << rep.fullSpi
              << " (walked " << humanCount((double)rep.fullWalked)
              << " instrs)\n"
              << "  subset detailed sim: projected SPI="
              << rep.projectedSpi << " (walked "
              << humanCount((double)rep.subsetWalked) << " instrs)\n"
              << "  extrapolation error "
              << pct(rep.errorPct / 100.0, 2)
              << ", detailed-simulation work reduced "
              << fixed(rep.workReduction(), 0) << "x ("
              << validator.checkpointBuilds()
              << " functional pre-passes, "
              << validator.euWalks() << " EU walks for "
              << app.db.numDispatches() << " dispatches)\n";
    return 0;
}
