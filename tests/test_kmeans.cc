/**
 * @file
 * Differential tests for the pruned k-means backend: every result —
 * assignments, centroids, distortion, per-cluster weights, BIC,
 * chosen k, whole explorations — must be bitwise identical to the
 * Lloyd oracle, at every thread count, on real profiled workloads
 * and on adversarial synthetic populations (coincident points,
 * n < maxK, single point, empty clusters forcing the re-seed path).
 */

#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/explorer.hh"
#include "core/feature_engine.hh"
#include "core/pipeline.hh"
#include "workloads/workload.hh"

namespace gt::core
{
namespace
{

using simpoint::Clustering;
using simpoint::ClusterOptions;
using simpoint::KMeansBackend;
using simpoint::KMeansRun;
using simpoint::KMeansStats;
using simpoint::Point;
using simpoint::projectedDims;

/** Synthetic population: @p groups Gaussian blobs of @p per points,
 * deterministically generated. */
std::vector<Point>
makePoints(Rng &rng, int groups, int per, double jitter)
{
    std::vector<Point> points;
    points.reserve((size_t)groups * (size_t)per);
    for (int g = 0; g < groups; ++g) {
        Point center{};
        for (int d = 0; d < projectedDims; ++d)
            center[d] = (double)((g * 7 + d) % 5) - 2.0;
        for (int i = 0; i < per; ++i) {
            Point p = center;
            for (int d = 0; d < projectedDims; ++d)
                p[d] += rng.nextGaussian(0.0, jitter);
            points.push_back(p);
        }
    }
    return points;
}

std::vector<double>
makeWeights(Rng &rng, size_t n)
{
    std::vector<double> weights(n);
    for (double &w : weights)
        w = 1.0 + rng.nextDouble() * 99.0;
    return weights;
}

KMeansRun
runWith(const std::vector<Point> &points,
        const std::vector<double> &weights, int k, uint64_t seed,
        KMeansBackend backend)
{
    Rng rng(seed);
    return simpoint::kmeansRun(points, weights, k, 30, rng, backend);
}

/** Bitwise equality of everything both backends must agree on
 * (stats are the one field allowed to differ). */
void
expectRunsEqual(const KMeansRun &a, const KMeansRun &b)
{
    ASSERT_EQ(a.assignment, b.assignment);
    ASSERT_EQ(a.centroids.size(), b.centroids.size());
    EXPECT_EQ(std::memcmp(a.centroids.data(), b.centroids.data(),
                          a.centroids.size() * sizeof(Point)),
              0);
    EXPECT_EQ(a.distortion, b.distortion); // bitwise
    ASSERT_EQ(a.clusterWeight.size(), b.clusterWeight.size());
    for (size_t c = 0; c < a.clusterWeight.size(); ++c)
        EXPECT_EQ(a.clusterWeight[c], b.clusterWeight[c]);
}

void
expectClusteringsEqual(const Clustering &a, const Clustering &b)
{
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.representative, b.representative);
    ASSERT_EQ(a.weight.size(), b.weight.size());
    for (size_t c = 0; c < a.weight.size(); ++c)
        EXPECT_EQ(a.weight[c], b.weight[c]); // bitwise
    EXPECT_EQ(a.bic, b.bic);                 // bitwise
    EXPECT_EQ(a.distortion, b.distortion);   // bitwise
}

// --- kmeansRun: pruned vs lloyd on synthetic populations ----------

TEST(KMeansDiff, PrunedMatchesLloydAcrossKAndSeeds)
{
    Rng gen(101);
    std::vector<Point> points = makePoints(gen, 5, 40, 0.3);
    std::vector<double> weights = makeWeights(gen, points.size());
    // k up to 13: the pruned full scan computes distances four
    // centroids at a time, so k = 1..13 covers partial blocks, whole
    // blocks and more than the paper's 10.
    for (uint64_t seed : {1ull, 42ull, 0x5eedull}) {
        for (int k = 1; k <= 13; ++k) {
            KMeansRun lloyd = runWith(points, weights, k, seed,
                                      KMeansBackend::Lloyd);
            KMeansRun pruned = runWith(points, weights, k, seed,
                                       KMeansBackend::Pruned);
            SCOPED_TRACE("k=" + std::to_string(k) +
                         " seed=" + std::to_string(seed));
            expectRunsEqual(lloyd, pruned);
        }
    }
}

TEST(KMeansDiff, TightClustersWithOverlap)
{
    // Overlapping blobs keep assignments churning for many
    // iterations — the regime where stale bounds could drift from
    // the oracle if the slack were wrong.
    Rng gen(202);
    std::vector<Point> points = makePoints(gen, 8, 25, 1.5);
    std::vector<double> weights(points.size(), 1.0);
    for (int k : {2, 5, 8}) {
        expectRunsEqual(
            runWith(points, weights, k, 7, KMeansBackend::Lloyd),
            runWith(points, weights, k, 7, KMeansBackend::Pruned));
    }
}

TEST(KMeansDiff, StatsAccountForEveryAssignmentDecision)
{
    Rng gen(303);
    std::vector<Point> points = makePoints(gen, 4, 60, 0.2);
    std::vector<double> weights = makeWeights(gen, points.size());

    KMeansRun lloyd =
        runWith(points, weights, 6, 11, KMeansBackend::Lloyd);
    EXPECT_EQ(lloyd.stats.fullScans, lloyd.stats.assignSteps);
    EXPECT_EQ(lloyd.stats.boundPrunes, 0u);
    EXPECT_EQ(lloyd.stats.tightenPrunes, 0u);
    EXPECT_EQ(lloyd.stats.memoHits, 0u);
    EXPECT_EQ(lloyd.stats.pruneRate(), 0.0);

    KMeansRun pruned =
        runWith(points, weights, 6, 11, KMeansBackend::Pruned);
    EXPECT_EQ(pruned.stats.assignSteps, lloyd.stats.assignSteps);
    EXPECT_EQ(pruned.stats.boundPrunes + pruned.stats.tightenPrunes +
                  pruned.stats.memoHits + pruned.stats.fullScans,
              pruned.stats.assignSteps);
    // Separable blobs converge with most points never rescanned.
    EXPECT_GT(pruned.stats.boundPrunes + pruned.stats.tightenPrunes,
              0u);
    EXPECT_LT(pruned.stats.fullScans, pruned.stats.assignSteps);
    EXPECT_GT(pruned.stats.pruneRate(), 0.0);
    EXPECT_LE(pruned.stats.pruneRate(), 1.0);
}

TEST(KMeansDiff, ThreadCountInvariant)
{
    // Each k-means run is serial; the parallelism left is across
    // candidate k inside clusterPoints, so that is what must not
    // depend on the pool width.
    Rng gen(404);
    std::vector<Point> points = makePoints(gen, 6, 200, 0.5);
    std::vector<double> weights = makeWeights(gen, points.size());

    for (KMeansBackend backend :
         {KMeansBackend::Lloyd, KMeansBackend::Pruned}) {
        sched::ThreadPool serial(1);
        ClusterOptions options;
        options.backend = backend;
        options.maxK = 13;
        options.pool = &serial;
        Clustering base =
            simpoint::clusterPoints(points, weights, options);
        for (unsigned threads :
             {4u, std::max(1u, std::thread::hardware_concurrency())}) {
            sched::ThreadPool pool(threads);
            options.pool = &pool;
            Clustering par =
                simpoint::clusterPoints(points, weights, options);
            expectClusteringsEqual(base, par);
            // The work counters are plain sums — invariant too.
            EXPECT_EQ(base.stats.assignSteps, par.stats.assignSteps);
            EXPECT_EQ(base.stats.boundPrunes, par.stats.boundPrunes);
            EXPECT_EQ(base.stats.tightenPrunes,
                      par.stats.tightenPrunes);
            EXPECT_EQ(base.stats.memoHits, par.stats.memoHits);
            EXPECT_EQ(base.stats.fullScans, par.stats.fullScans);
        }
    }
}

// --- Adversarial populations --------------------------------------

TEST(KMeansDiff, AllCoincidentPointsForceReseedPath)
{
    // Every point identical: seeding degenerates to the duplicate
    // path, ties all resolve to centroid 0, and the k-1 duplicate
    // clusters go empty — exercising the re-seed RNG draws, which
    // must advance identically on both backends.
    std::vector<Point> points(40, Point{});
    for (Point &p : points)
        p.fill(3.25);
    std::vector<double> weights(points.size(), 2.0);
    for (int k : {1, 3, 5}) {
        KMeansRun lloyd =
            runWith(points, weights, k, 99, KMeansBackend::Lloyd);
        KMeansRun pruned =
            runWith(points, weights, k, 99, KMeansBackend::Pruned);
        expectRunsEqual(lloyd, pruned);
        EXPECT_EQ(lloyd.distortion, 0.0);
        // Ties go to the lowest index: one carrier, k-1 empties.
        EXPECT_GT(lloyd.clusterWeight[0], 0.0);
        for (size_t c = 1; c < lloyd.clusterWeight.size(); ++c)
            EXPECT_EQ(lloyd.clusterWeight[c], 0.0);
    }
}

TEST(KMeansDiff, TwoValuePopulationLeavesEmptyClusters)
{
    // Two distinct values but k = 4: at least two clusters must end
    // empty, re-seeding every iteration until convergence.
    std::vector<Point> points;
    for (int i = 0; i < 12; ++i) {
        Point p{};
        p.fill(i < 6 ? -1.0 : 1.0);
        points.push_back(p);
    }
    std::vector<double> weights(points.size(), 1.0);
    KMeansRun lloyd =
        runWith(points, weights, 4, 5, KMeansBackend::Lloyd);
    KMeansRun pruned =
        runWith(points, weights, 4, 5, KMeansBackend::Pruned);
    expectRunsEqual(lloyd, pruned);
    size_t empty = 0;
    for (double w : lloyd.clusterWeight)
        empty += w == 0.0;
    EXPECT_GE(empty, 2u);
}

TEST(KMeansDiff, SinglePoint)
{
    std::vector<Point> points(1, Point{});
    points[0].fill(0.5);
    KMeansRun lloyd = runWith(points, {7.0}, 1, 1,
                              KMeansBackend::Lloyd);
    KMeansRun pruned = runWith(points, {7.0}, 1, 1,
                               KMeansBackend::Pruned);
    expectRunsEqual(lloyd, pruned);
    EXPECT_EQ(lloyd.assignment[0], 0);
    EXPECT_EQ(lloyd.distortion, 0.0);
}

TEST(KMeansDiff, GuardsBadInput)
{
    setLogQuiet(true);
    std::vector<Point> points(3, Point{});
    std::vector<double> weights(3, 1.0);
    Rng rng(1);
    EXPECT_THROW(simpoint::kmeansRun({}, {}, 1, 10, rng),
                 PanicError);
    EXPECT_THROW(simpoint::kmeansRun(points, {1.0}, 1, 10, rng),
                 PanicError);
    EXPECT_THROW(simpoint::kmeansRun(points, weights, 0, 10, rng),
                 PanicError);
    EXPECT_THROW(simpoint::kmeansRun(points, weights, 4, 10, rng),
                 PanicError);
    setLogQuiet(false);
}

/** Squared distance in the same operation order as the library. */
double
dist2(const Point &a, const Point &b)
{
    double acc = 0.0;
    for (int d = 0; d < projectedDims; ++d) {
        double diff = a[d] - b[d];
        acc += diff * diff;
    }
    return acc;
}

TEST(KMeansDiff, DuplicateCentroidsAndExactTiesGoToTheLowestIndex)
{
    // Three values on one axis, O exactly midway between A and B, so
    // centroids on A and B are exactly equidistant from O; k above
    // the number of values leaves clusters empty, and their re-seeds
    // land on existing values as duplicate centroids that tie for
    // every point of that value, across scan blocks of four.
    Point a{}, b{}, o{};
    a[0] = 1.0;
    b[0] = -1.0;
    std::vector<Point> points;
    for (int i = 0; i < 30; ++i)
        points.push_back(i % 3 == 0 ? a : i % 3 == 1 ? b : o);
    std::vector<double> weights(points.size(), 1.0);
    size_t checked = 0;
    for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
        for (int k = 2; k <= 13; ++k) {
            SCOPED_TRACE("k=" + std::to_string(k) +
                         " seed=" + std::to_string(seed));
            KMeansRun lloyd =
                runWith(points, weights, k, seed, KMeansBackend::Lloyd);
            KMeansRun pruned = runWith(points, weights, k, seed,
                                       KMeansBackend::Pruned);
            expectRunsEqual(lloyd, pruned);

            // A run that converged returns the centroids its last
            // assignment step saw: every point must sit with the
            // lowest-index centroid among the nearest.
            Rng longer(seed);
            KMeansRun more = simpoint::kmeansRun(
                points, weights, k, 31, longer, KMeansBackend::Pruned);
            if (std::memcmp(more.centroids.data(),
                            pruned.centroids.data(),
                            (size_t)k * sizeof(Point)) != 0) {
                continue;
            }
            ++checked;
            for (size_t i = 0; i < points.size(); ++i) {
                int want = 0;
                double best = dist2(points[i], pruned.centroids[0]);
                for (int c = 1; c < k; ++c) {
                    double d = dist2(points[i], pruned.centroids[c]);
                    if (d < best) {
                        best = d;
                        want = c;
                    }
                }
                ASSERT_EQ(pruned.assignment[i], want) << "point " << i;
            }
        }
    }
    EXPECT_GT(checked, 40u);
}

TEST(KMeansDiff, OneGroupFlipsPerIteration)
{
    // Two anchors on one axis, a second mass near the left one, and
    // a chain of 13 values in between: after the first assignment,
    // every iteration moves exactly one chain value (one group of 32
    // coincident points) across the boundary. Values are stored
    // value-major, so the 512 points fill two reduce chunks and each
    // flip touches one chunk: the centroid update must refresh that
    // chunk's partial and reuse the other one.
    constexpr int copies = 32;
    std::vector<double> xs = {0.0, 31.322102460056527};
    std::vector<double> ws = {10.734868826718222, 16.919175944156699};
    for (int j = 0; j < 13; ++j) {
        xs.push_back(50.059609010629664 + 1.339664036815821 * j);
        ws.push_back(2.0607806634519621);
    }
    xs.push_back(100.0);
    ws.push_back(32.303808580521981);
    std::vector<Point> points;
    std::vector<double> weights;
    for (size_t v = 0; v < xs.size(); ++v) {
        for (int c = 0; c < copies; ++c) {
            Point p{};
            p[0] = xs[v];
            points.push_back(p);
            weights.push_back(ws[v]);
        }
    }
    constexpr uint64_t seed = 870;

    // Precondition: iterations 2..14 each flip exactly one group,
    // and iteration 15 converges.
    std::vector<std::vector<int>> after;
    for (int iters = 1; iters <= 16; ++iters) {
        Rng rng(seed);
        after.push_back(simpoint::kmeansRun(points, weights, 2, iters,
                                            rng, KMeansBackend::Lloyd)
                            .assignment);
    }
    for (size_t t = 1; t < after.size(); ++t) {
        size_t flips = 0;
        for (size_t i = 0; i < points.size(); ++i)
            flips += after[t][i] != after[t - 1][i];
        ASSERT_EQ(flips, t < 14 ? (size_t)copies : 0u)
            << "iteration " << t + 1;
    }

    // Every intermediate state, not just the converged one.
    for (int iters = 1; iters <= 16; ++iters) {
        SCOPED_TRACE("iterations=" + std::to_string(iters));
        Rng rl(seed), rp(seed);
        expectRunsEqual(
            simpoint::kmeansRun(points, weights, 2, iters, rl,
                                KMeansBackend::Lloyd),
            simpoint::kmeansRun(points, weights, 2, iters, rp,
                                KMeansBackend::Pruned));
    }
}

TEST(KMeansDiff, GroupingWithUnequalMembersTripsAssert)
{
    // A handed-in grouping is trusted for one property only — every
    // member bitwise equal to its group's value — and that is checked.
    setLogQuiet(true);
    std::vector<Point> points(4, Point{});
    points[3][0] = 1.0;
    std::vector<double> weights(points.size(), 1.0);
    simpoint::UniqueIndex groups;
    groups.uid = {0, 0, 0, 0};
    groups.rep = {0};
    groups.count = {4};
    ClusterOptions options;
    options.uniqueIndex = &groups;
    EXPECT_THROW(simpoint::clusterPoints(points, weights, options),
                 PanicError);
    setLogQuiet(false);
}

// --- clusterPoints: the BIC sweep end to end ----------------------

TEST(KMeansDiff, ClusterPointsBackendsMatchBitwise)
{
    Rng gen(505);
    for (int groups : {1, 3, 7}) {
        std::vector<Point> points = makePoints(gen, groups, 30, 0.1);
        std::vector<double> weights =
            makeWeights(gen, points.size());
        ClusterOptions lloyd_opts, pruned_opts;
        lloyd_opts.backend = KMeansBackend::Lloyd;
        pruned_opts.backend = KMeansBackend::Pruned;
        lloyd_opts.maxK = pruned_opts.maxK = 13;
        Clustering lloyd =
            simpoint::clusterPoints(points, weights, lloyd_opts);
        Clustering pruned =
            simpoint::clusterPoints(points, weights, pruned_opts);
        SCOPED_TRACE("groups=" + std::to_string(groups));
        expectClusteringsEqual(lloyd, pruned);
        EXPECT_GT(pruned.stats.pruneRate(), 0.0);
        EXPECT_EQ(lloyd.stats.pruneRate(), 0.0);
        EXPECT_EQ(lloyd.stats.assignSteps, pruned.stats.assignSteps);
    }
}

TEST(KMeansDiff, PopulationSmallerThanMaxK)
{
    // n < maxK clamps the candidate sweep to k <= n.
    Rng gen(606);
    std::vector<Point> points = makePoints(gen, 3, 1, 0.0);
    std::vector<double> weights(points.size(), 1.0);
    ClusterOptions lloyd_opts, pruned_opts;
    lloyd_opts.backend = KMeansBackend::Lloyd;
    pruned_opts.backend = KMeansBackend::Pruned;
    lloyd_opts.maxK = pruned_opts.maxK = 10;
    Clustering lloyd =
        simpoint::clusterPoints(points, weights, lloyd_opts);
    Clustering pruned =
        simpoint::clusterPoints(points, weights, pruned_opts);
    expectClusteringsEqual(lloyd, pruned);
    EXPECT_LE(lloyd.k, 3);
}

// --- Real workloads: full explorations across all 30 configs ------

ProfiledApp
profiled(const char *name)
{
    const workloads::Workload *w = workloads::findWorkload(name);
    GT_ASSERT(w, "unknown workload ", name);
    return profileApp(*w);
}

class KMeansWorkloadTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(KMeansWorkloadTest, ExplorationMatchesLloydBitwise)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    FeatureEngine engine(app.db);

    ClusterOptions lloyd_opts, pruned_opts;
    lloyd_opts.backend = KMeansBackend::Lloyd;
    pruned_opts.backend = KMeansBackend::Pruned;
    Exploration lloyd = exploreConfigs(app.db, lloyd_opts, 0, &engine);
    Exploration pruned =
        exploreConfigs(app.db, pruned_opts, 0, &engine);

    ASSERT_EQ(lloyd.results.size(), pruned.results.size());
    for (size_t i = 0; i < lloyd.results.size(); ++i) {
        const ConfigResult &rl = lloyd.results[i];
        const ConfigResult &rp = pruned.results[i];
        EXPECT_EQ(rl.selection.scheme, rp.selection.scheme);
        EXPECT_EQ(rl.selection.feature, rp.selection.feature);
        EXPECT_EQ(rl.selection.selected, rp.selection.selected);
        EXPECT_EQ(rl.selection.ratios, rp.selection.ratios); // bitwise
        EXPECT_EQ(rl.selection.selectedInstrs,
                  rp.selection.selectedInstrs);
        EXPECT_EQ(rl.errorPct, rp.errorPct); // bitwise
        // Projected SPI re-derives from the same selection; equal
        // selections make it bitwise equal, asserted directly.
        EXPECT_EQ(projectedSpi(app.db, rl.selection),
                  projectedSpi(app.db, rp.selection));
    }

    // Both backends decided the same number of assignments; the
    // pruned one skipped a nonzero share of the k-way scans.
    KMeansStats ls = lloyd.clusterStats();
    KMeansStats ps = pruned.clusterStats();
    EXPECT_EQ(ls.assignSteps, ps.assignSteps);
    EXPECT_EQ(ls.fullScans, ls.assignSteps);
    EXPECT_GT(ps.pruneRate(), 0.0);
    EXPECT_LT(ps.fullScans, ps.assignSteps);
    setLogQuiet(false);
}

TEST_P(KMeansWorkloadTest, PrunedExplorationIsThreadCountInvariant)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    FeatureEngine engine(app.db);

    auto explore_with = [&](unsigned threads) {
        sched::ThreadPool pool(threads);
        ClusterOptions options;
        options.backend = KMeansBackend::Pruned;
        options.pool = &pool;
        return exploreConfigs(app.db, options, 0, &engine);
    };

    Exploration serial = explore_with(1);
    for (unsigned threads :
         {4u, std::max(1u, std::thread::hardware_concurrency())}) {
        Exploration par = explore_with(threads);
        ASSERT_EQ(serial.results.size(), par.results.size());
        for (size_t i = 0; i < serial.results.size(); ++i) {
            EXPECT_EQ(serial.results[i].selection.selected,
                      par.results[i].selection.selected);
            EXPECT_EQ(serial.results[i].selection.ratios,
                      par.results[i].selection.ratios);
            EXPECT_EQ(serial.results[i].errorPct,
                      par.results[i].errorPct);
        }
        KMeansStats a = serial.clusterStats();
        KMeansStats b = par.clusterStats();
        EXPECT_EQ(a.assignSteps, b.assignSteps);
        EXPECT_EQ(a.boundPrunes, b.boundPrunes);
        EXPECT_EQ(a.tightenPrunes, b.tightenPrunes);
        EXPECT_EQ(a.memoHits, b.memoHits);
        EXPECT_EQ(a.fullScans, b.fullScans);
    }
    setLogQuiet(false);
}

TEST_P(KMeansWorkloadTest, ProjectionGroupingMatchesLloydBitwise)
{
    // selectFromIntervals hands the clusterer the grouping projectAll
    // found, which splits a value class whenever two intervals with
    // different contributions project to the same point (SingleKernel
    // KN: every dispatch of one kernel lands on that kernel's row,
    // whatever its instruction count).
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    FeatureEngine engine(app.db);
    size_t split = 0;
    for (int s = 0; s < numIntervalSchemes; ++s) {
        auto intervals = buildIntervals(app.db, (IntervalScheme)s);
        std::vector<double> weights;
        for (const Interval &iv : intervals)
            weights.push_back(std::max<double>(1.0, (double)iv.instrs));
        for (int f = 0; f < numFeatureKinds; ++f) {
            simpoint::UniqueIndex groups;
            std::vector<Point> points =
                engine.projectAll(intervals, (FeatureKind)f, &groups);
            std::vector<double> flat(points.size() * projectedDims);
            std::memcpy(flat.data(), points.data(),
                        points.size() * sizeof(Point));
            simpoint::UniqueIndex byValue =
                simpoint::buildUniqueIndex(flat.data(), points.size());
            ASSERT_GE(groups.rep.size(), byValue.rep.size());
            if (groups.rep.size() == byValue.rep.size())
                continue;
            ++split;
            SCOPED_TRACE(std::string(intervalSchemeName(
                             (IntervalScheme)s)) +
                         " " + featureKindName((FeatureKind)f));
            ClusterOptions lloyd_opts, handed, sorted;
            lloyd_opts.backend = KMeansBackend::Lloyd;
            handed.uniqueIndex = &groups;
            Clustering want =
                simpoint::clusterPoints(points, weights, lloyd_opts);
            expectClusteringsEqual(
                want, simpoint::clusterPoints(points, weights, handed));
            expectClusteringsEqual(
                want, simpoint::clusterPoints(points, weights, sorted));
        }
    }
    EXPECT_GT(split, 0u);
    setLogQuiet(false);
}

INSTANTIATE_TEST_SUITE_P(
    TwoWorkloads, KMeansWorkloadTest,
    ::testing::Values("cb-histogram-buffer", "cb-gaussian-image"),
    [](const auto &info) {
        std::string out;
        for (char c : std::string(info.param))
            out += std::isalnum((unsigned char)c) ? c : '_';
        return out;
    });

} // anonymous namespace
} // namespace gt::core
