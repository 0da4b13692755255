/**
 * @file
 * K-means backend benchmark: the Lloyd oracle vs. the
 * triangle-inequality-pruned backend, per workload and end to end.
 *
 * Per-workload cluster cases time the full BIC sweep
 * (clusterPoints: candidate k = 1..10, seeding + Lloyd iterations +
 * distortion) over the SingleKernel interval population — the
 * largest population a selection run feeds the clusterer. The
 * explore cases time the whole 30-configuration exploreConfigs
 * through a prebuilt feature engine, the selection loop's usage
 * model, where profiling shows the wall clock concentrates in
 * k-means on dispatch-heavy workloads.
 *
 * Paired timings yield per-case speedups, geometric means, and the
 * pruned backend's skip rates, written to BENCH_kmeans.json (and
 * summarized on stdout) so the README's perf numbers are
 * reproducible with:
 *
 *     build/bench/simpoint_cluster
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "common/logging.hh"
#include "core/explorer.hh"
#include "core/feature_engine.hh"
#include "core/pipeline.hh"
#include "workloads/workload.hh"

using namespace gt;
using namespace gt::core;

namespace
{

// The dispatch-heavy workloads of the suite (largest clustering
// populations — thousands of SingleKernel intervals): exactly the
// shape where exploreConfigs is k-means-bound.
const std::vector<std::string> benchApps = {
    "sonyvegas-proj-r4",
    "cb-physics-part-sim-32k",
    "cb-graphics-t-rex",
    "sandra-crypt-aes256",
};

struct BenchApp
{
    std::string name;
    ProfiledApp app;
    std::vector<simpoint::Point> points; //!< SingleKernel population
    std::vector<double> weights;
    double clusterPruneRate = 0.0; //!< pruned clusterPoints skip rate
    double explorePruneRate = 0.0; //!< pruned exploreConfigs skip rate
};

std::vector<BenchApp> &
apps()
{
    static std::vector<BenchApp> profiled = [] {
        setLogQuiet(true);
        std::vector<BenchApp> out;
        for (const std::string &name : benchApps) {
            const workloads::Workload *w =
                workloads::findWorkload(name);
            GT_ASSERT(w, "unknown workload ", name);
            BenchApp b;
            b.name = name;
            b.app = profileApp(*w);
            FeatureEngine engine(b.app.db, FeatureBackend::Flat);
            auto intervals = buildIntervals(
                b.app.db, IntervalScheme::SingleKernel);
            b.points = engine.projectAll(intervals, FeatureKind::BB);
            b.weights.reserve(intervals.size());
            for (const Interval &iv : intervals) {
                b.weights.push_back(
                    std::max<double>(1.0, (double)iv.instrs));
            }
            out.push_back(std::move(b));
        }
        return out;
    }();
    return profiled;
}

void
runCluster(benchmark::State &state, BenchApp &b,
           simpoint::KMeansBackend backend)
{
    // One thread: measure the algorithm, not the pool; results are
    // bit-identical at any width (see ClusterOptions::pool).
    sched::ThreadPool pool(1);
    simpoint::ClusterOptions options;
    options.pool = &pool;
    options.backend = backend;
    for (auto _ : state) {
        simpoint::Clustering c =
            simpoint::clusterPoints(b.points, b.weights, options);
        if (backend == simpoint::KMeansBackend::Pruned)
            b.clusterPruneRate = c.stats.pruneRate();
        benchmark::DoNotOptimize(c.assignment.data());
    }
    state.counters["points"] = (double)b.points.size();
}

void
runExplore(benchmark::State &state, BenchApp &b,
           simpoint::KMeansBackend backend)
{
    // Prebuilt engine (the usage model: one lowering per workload
    // shared by every consumer), so the timed region is the
    // selection loop itself — interval building, projection, and
    // above all the 30 BIC sweeps.
    FeatureEngine engine(b.app.db, FeatureBackend::Flat);
    sched::ThreadPool pool(1);
    simpoint::ClusterOptions options;
    options.pool = &pool;
    options.backend = backend;
    for (auto _ : state) {
        Exploration ex =
            exploreConfigs(b.app.db, options, 0, &engine);
        if (backend == simpoint::KMeansBackend::Pruned)
            b.explorePruneRate = ex.clusterStats().pruneRate();
        benchmark::DoNotOptimize(ex.results.data());
    }
}

std::string
caseName(const char *what, const std::string &app,
         simpoint::KMeansBackend backend)
{
    return std::string(what) + "/" + app + "/" +
           (backend == simpoint::KMeansBackend::Lloyd ? "lloyd"
                                                      : "pruned");
}

constexpr simpoint::KMeansBackend bothBackends[] = {
    simpoint::KMeansBackend::Lloyd,
    simpoint::KMeansBackend::Pruned,
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    for (BenchApp &b : apps()) {
        for (simpoint::KMeansBackend backend : bothBackends) {
            benchmark::RegisterBenchmark(
                caseName("cluster", b.name, backend).c_str(),
                [&b, backend](benchmark::State &st) {
                    runCluster(st, b, backend);
                })
                ->MinTime(0.1)
                ->Unit(benchmark::kMillisecond);
            benchmark::RegisterBenchmark(
                caseName("explore", b.name, backend).c_str(),
                [&b, backend](benchmark::State &st) {
                    runExplore(st, b, backend);
                })
                ->MinTime(0.1)
                ->Unit(benchmark::kMillisecond);
        }
    }

    bench::CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    bench::BenchReport report("BENCH_kmeans.json");
    std::cout << "\n";
    const char *sections[] = {"cluster", "explore"};
    for (const char *what : sections) {
        bool explore = what[0] == 'e';
        bench::GeoMean geomean;
        for (const BenchApp &b : apps()) {
            auto ll = reporter.times.find(caseName(
                what, b.name, simpoint::KMeansBackend::Lloyd));
            auto pr = reporter.times.find(caseName(
                what, b.name, simpoint::KMeansBackend::Pruned));
            if (ll == reporter.times.end() ||
                pr == reporter.times.end()) {
                continue;
            }
            double speedup = ll->second / pr->second;
            geomean.add(speedup);
            report.addRow(what)
                .field("app", b.name)
                .field("lloyd_ns", ll->second)
                .field("pruned_ns", pr->second)
                .field("speedup", speedup)
                .field("prune_rate", explore ? b.explorePruneRate
                                             : b.clusterPruneRate);
        }
        if (geomean.count() > 0) {
            report.scalar(std::string("geomean_speedup_") + what,
                          geomean.value());
            std::cout << "geomean speedup ("
                      << (explore ? "end-to-end exploreConfigs"
                                  : "clusterPoints BIC sweep")
                      << ", pruned vs lloyd): " << geomean.value()
                      << "x\n";
        }
    }
    return report.finish();
}
