/**
 * @file
 * K-means backend benchmark: the Lloyd oracle vs. the
 * triangle-inequality-pruned backend, per workload and end to end.
 *
 * Per-workload cluster cases time the full BIC sweep
 * (clusterPoints: candidate k = 1..10, seeding + Lloyd iterations +
 * distortion) over two SingleKernel interval populations — the
 * largest a selection run feeds the clusterer — each with the
 * grouping projectAll() hands over, as selectFromIntervals() does:
 *
 *  - BB: duplicate-heavy (a few dozen distinct points among
 *    thousands), converges in a few iterations — the easy case;
 *  - KN-ARGS: every dispatch has its own argument hash, so nearly
 *    every point is distinct and the heaviest populations hit the
 *    30-iteration cap — the case that dominates explore's clustering.
 *
 * The explore cases time the whole 30-configuration exploreConfigs
 * through a prebuilt feature engine, the selection loop's usage
 * model.
 *
 * Paired timings yield per-case speedups, geometric means, and the
 * pruned backend's skip rates, written to BENCH_kmeans.json (and
 * summarized on stdout) so the README's perf numbers are
 * reproducible with:
 *
 *     build/bench/simpoint_cluster
 */

#include <benchmark/benchmark.h>

#include <cctype>
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

/** The SingleKernel feature kinds the cluster cases time. */
constexpr FeatureKind clusterKinds[] = {FeatureKind::BB,
                                        FeatureKind::KN_ARGS};

/** One SingleKernel population and its projection grouping. */
struct Population
{
    FeatureKind kind = FeatureKind::BB;
    std::vector<simpoint::Point> points;
    simpoint::UniqueIndex groups;
    double prunedRate = 0.0; //!< pruned clusterPoints skip rate
};

struct BenchApp
{
    std::string name;
    ProfiledApp app;
    std::vector<Population> pops; //!< one per clusterKinds entry
    std::vector<double> weights;
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
            FeatureEngine engine(b.app.db);
            auto intervals = buildIntervals(
                b.app.db, IntervalScheme::SingleKernel);
            for (FeatureKind kind : clusterKinds) {
                Population pop;
                pop.kind = kind;
                pop.points =
                    engine.projectAll(intervals, kind, &pop.groups);
                b.pops.push_back(std::move(pop));
            }
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
runCluster(benchmark::State &state, const BenchApp &b,
           Population &pop, simpoint::KMeansBackend backend)
{
    // One thread: measure the algorithm, not the pool; results are
    // bit-identical at any width (see ClusterOptions::pool).
    sched::ThreadPool pool(1);
    simpoint::ClusterOptions options;
    options.pool = &pool;
    options.backend = backend;
    options.uniqueIndex = &pop.groups;
    for (auto _ : state) {
        simpoint::Clustering c =
            simpoint::clusterPoints(pop.points, b.weights, options);
        if (backend == simpoint::KMeansBackend::Pruned)
            pop.prunedRate = c.stats.pruneRate();
        benchmark::DoNotOptimize(c.assignment.data());
    }
    state.counters["points"] = (double)pop.points.size();
    state.counters["groups"] = (double)pop.groups.rep.size();
}

void
runExplore(benchmark::State &state, BenchApp &b,
           simpoint::KMeansBackend backend)
{
    // Prebuilt engine (the usage model: one lowering per workload
    // shared by every consumer), so the timed region is the
    // selection loop itself — interval building, projection, and
    // above all the 30 BIC sweeps.
    FeatureEngine engine(b.app.db);
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

/** "<what>/<app>[/<kind>]/<backend>"; the kind is empty for the
 * explore cases. */
std::string
caseName(const char *what, const std::string &app,
         const std::string &kind, simpoint::KMeansBackend backend)
{
    return std::string(what) + "/" + app + "/" +
           (kind.empty() ? "" : kind + "/") +
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
            for (Population &pop : b.pops) {
                benchmark::RegisterBenchmark(
                    caseName("cluster", b.name,
                             featureKindName(pop.kind), backend)
                        .c_str(),
                    [&b, &pop, backend](benchmark::State &st) {
                        runCluster(st, b, pop, backend);
                    })
                    ->MinTime(1.0)
                    ->Unit(benchmark::kMillisecond);
            }
            benchmark::RegisterBenchmark(
                caseName("explore", b.name, "", backend).c_str(),
                [&b, backend](benchmark::State &st) {
                    runExplore(st, b, backend);
                })
                ->MinTime(1.0)
                ->Unit(benchmark::kMillisecond);
        }
    }

    bench::CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    bench::BenchReport report("BENCH_kmeans.json");
    report.repetitions(reporter.minIterations());
    std::cout << "\n";
    /** One report row per paired case; @return its speedup, or 0
     * when a side is missing (filtered out). */
    auto addPair = [&](const char *what, const BenchApp &b,
                       const std::string &kind, double prune_rate) {
        auto ll = reporter.times.find(caseName(
            what, b.name, kind, simpoint::KMeansBackend::Lloyd));
        auto pr = reporter.times.find(caseName(
            what, b.name, kind, simpoint::KMeansBackend::Pruned));
        if (ll == reporter.times.end() || pr == reporter.times.end())
            return 0.0;
        double speedup = ll->second / pr->second;
        bench::BenchReport::Row &row = report.addRow(what);
        row.field("app", b.name);
        if (!kind.empty())
            row.field("population", kind);
        row.field("lloyd_ms", ll->second)
            .field("pruned_ms", pr->second)
            .field("speedup", speedup)
            .field("prune_rate", prune_rate);
        return speedup;
    };
    auto summarize = [&](const std::string &key, const std::string &what,
                         const bench::GeoMean &geomean) {
        if (geomean.count() == 0)
            return;
        report.scalar("geomean_speedup_" + key, geomean.value());
        std::cout << "geomean speedup (" << what
                  << ", pruned vs lloyd): " << geomean.value() << "x\n";
    };
    for (FeatureKind kind : clusterKinds) {
        bench::GeoMean geomean;
        for (const BenchApp &b : apps()) {
            for (const Population &pop : b.pops) {
                if (pop.kind != kind)
                    continue;
                if (double s = addPair("cluster", b,
                                       featureKindName(kind),
                                       pop.prunedRate)) {
                    geomean.add(s);
                }
            }
        }
        std::string name = featureKindName(kind);
        std::string key = "cluster_" + name;
        for (char &c : key)
            c = c == '-' ? '_' : (char)std::tolower((unsigned char)c);
        summarize(key, "clusterPoints BIC sweep, SingleKernel " + name,
                  geomean);
    }
    bench::GeoMean explore;
    for (const BenchApp &b : apps()) {
        if (double s = addPair("explore", b, "", b.explorePruneRate))
            explore.add(s);
    }
    summarize("explore", "end-to-end exploreConfigs", explore);
    return report.finish();
}
