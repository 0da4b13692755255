/**
 * @file
 * Feature-engine benchmark: the std::map reference extractor
 * (tests/reference, linked from gt_reference) vs. the columnar
 * DispatchFeatureCache, per feature kind, plus the end-to-end
 * 30-configuration exploration both ways.
 *
 * Per-kind cases time extraction over a workload's SingleKernel
 * intervals (the most extraction-bound scheme: one vector per
 * dispatch). The flat cases time extraction through a prebuilt cache
 * — the engine's usage model is one lowering per workload shared by
 * every consumer — while the end-to-end explore cases construct the
 * engine inside the timed region, so its build cost counts against
 * the flat path there.
 *
 * Paired timings yield per-case speedups and geometric means,
 * written to BENCH_features.json (and summarized on stdout) so the
 * README's perf numbers are reproducible with:
 *
 *     build/bench/feature_engine
 *
 * Every case runs for Google Benchmark's default minimum time (0.5 s)
 * unless --benchmark_min_time says otherwise; CI's smoke step passes
 * a short one.
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
#include "tests/reference/map_features.hh"
#include "workloads/workload.hh"

using namespace gt;
using namespace gt::core;

namespace
{

// The extraction-heavy workloads of the suite (largest lowered
// profiles): the engine exists for exactly this shape of input —
// on tiny workloads (tens of block entries) exploreConfigs is
// k-means-bound and both backends tie.
const std::vector<std::string> benchApps = {
    "cb-graphics-t-rex",
    "cb-graphics-provence",
    "cb-vision-facedetect-mobile",
};

struct BenchApp
{
    std::string name;
    ProfiledApp app;
    std::vector<Interval> intervals; //!< SingleKernel division
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
            b.intervals = buildIntervals(
                b.app.db, IntervalScheme::SingleKernel);
            out.push_back(std::move(b));
        }
        return out;
    }();
    return profiled;
}

void
runExtractMap(benchmark::State &state, const BenchApp &b,
              FeatureKind kind)
{
    uint64_t dims = 0;
    for (auto _ : state) {
        for (const Interval &iv : b.intervals) {
            FeatureVector vec =
                reference::extractFeaturesMap(b.app.db, iv, kind);
            dims += vec.dims();
            benchmark::DoNotOptimize(vec);
        }
    }
    state.counters["vectors"] = (double)b.intervals.size();
    benchmark::DoNotOptimize(dims);
}

void
runExtractFlat(benchmark::State &state, const BenchApp &b,
               FeatureKind kind)
{
    DispatchFeatureCache cache(b.app.db);
    DispatchFeatureCache::Scratch scratch;
    uint64_t dims = 0;
    for (auto _ : state) {
        for (const Interval &iv : b.intervals) {
            FeatureVector vec = cache.extract(iv, kind, scratch);
            dims += vec.dims();
            benchmark::DoNotOptimize(vec);
        }
    }
    state.counters["vectors"] = (double)b.intervals.size();
    benchmark::DoNotOptimize(dims);
}

void
runExplore(benchmark::State &state, const BenchApp &b, bool map)
{
    // One thread: measure the engine, not the pool; the fan-out is
    // bit-identical at any width (see exploreConfigs).
    sched::ThreadPool pool(1);
    simpoint::ClusterOptions options;
    options.pool = &pool;
    for (auto _ : state) {
        Exploration ex;
        if (map) {
            ex = reference::exploreConfigsMap(b.app.db, options);
        } else {
            FeatureEngine engine(b.app.db, &pool);
            ex = exploreConfigs(b.app.db, options, 0, &engine);
        }
        benchmark::DoNotOptimize(ex.results.data());
    }
}

std::string
extractCase(const std::string &app, FeatureKind kind,
            const char *backend)
{
    return "extract/" + app + "/" + featureKindName(kind) + "/" +
           backend;
}

std::string
exploreCase(const std::string &app, const char *backend)
{
    return "explore/" + app + "/" + backend;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    for (const BenchApp &b : apps()) {
        for (int k = 0; k < numFeatureKinds; ++k) {
            FeatureKind kind = (FeatureKind)k;
            benchmark::RegisterBenchmark(
                extractCase(b.name, kind, "map").c_str(),
                [&b, kind](benchmark::State &st) {
                    runExtractMap(st, b, kind);
                })
                ->Unit(benchmark::kMicrosecond);
            benchmark::RegisterBenchmark(
                extractCase(b.name, kind, "flat").c_str(),
                [&b, kind](benchmark::State &st) {
                    runExtractFlat(st, b, kind);
                })
                ->Unit(benchmark::kMicrosecond);
        }
        for (const char *backend : {"map", "flat"}) {
            bool map = backend[0] == 'm';
            benchmark::RegisterBenchmark(
                exploreCase(b.name, backend).c_str(),
                [&b, map](benchmark::State &st) {
                    runExplore(st, b, map);
                })
                ->Unit(benchmark::kMillisecond);
        }
    }

    bench::CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    bench::BenchReport report("BENCH_features.json");
    report.repetitions(reporter.minIterations());
    bench::GeoMean extract_geo, explore_geo;
    for (const BenchApp &b : apps()) {
        for (int k = 0; k < numFeatureKinds; ++k) {
            FeatureKind kind = (FeatureKind)k;
            auto mp =
                reporter.times.find(extractCase(b.name, kind, "map"));
            auto fl = reporter.times.find(
                extractCase(b.name, kind, "flat"));
            if (mp == reporter.times.end() ||
                fl == reporter.times.end()) {
                continue;
            }
            double speedup = mp->second / fl->second;
            extract_geo.add(speedup);
            report.addRow("extract")
                .field("app", b.name)
                .field("kind", featureKindName(kind))
                .field("map_us", mp->second)
                .field("flat_us", fl->second)
                .field("speedup", speedup);
        }
    }
    for (const BenchApp &b : apps()) {
        auto mp = reporter.times.find(exploreCase(b.name, "map"));
        auto fl = reporter.times.find(exploreCase(b.name, "flat"));
        if (mp == reporter.times.end() ||
            fl == reporter.times.end()) {
            continue;
        }
        double speedup = mp->second / fl->second;
        explore_geo.add(speedup);
        report.addRow("explore")
            .field("app", b.name)
            .field("map_ms", mp->second)
            .field("flat_ms", fl->second)
            .field("speedup", speedup);
    }
    std::cout << "\n";
    if (extract_geo.count() > 0) {
        report.scalar("geomean_speedup_extract", extract_geo.value());
        std::cout << "geomean speedup (per-kind extract, flat vs "
                     "map): " << extract_geo.value() << "x\n";
    }
    if (explore_geo.count() > 0) {
        report.scalar("geomean_speedup_explore", explore_geo.value());
        std::cout << "geomean speedup (end-to-end exploreConfigs, "
                     "flat vs map): " << explore_geo.value() << "x\n";
    }
    return report.finish();
}
