/**
 * @file
 * Differential tests for the columnar feature engine: every result
 * — vectors, projections, clusterings, whole explorations — must be
 * bitwise identical to the std::map reference (tests/reference), at
 * every thread count, on real profiled workloads and on adversarial
 * synthetic traces.
 */

#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/explorer.hh"
#include "core/feature_engine.hh"
#include "core/pipeline.hh"
#include "reference/map_features.hh"
#include "workloads/workload.hh"

namespace gt::core
{
namespace
{

using reference::extractFeaturesMap;
using reference::projectAllMap;

std::vector<FeatureKind>
allKinds()
{
    std::vector<FeatureKind> kinds;
    for (int k = 0; k < numFeatureKinds; ++k)
        kinds.push_back((FeatureKind)k);
    return kinds;
}

std::vector<IntervalScheme>
allSchemes()
{
    return {IntervalScheme::SyncBounded,
            IntervalScheme::ApproxInstructions,
            IntervalScheme::SingleKernel};
}

ProfiledApp
profiled(const char *name)
{
    const workloads::Workload *w = workloads::findWorkload(name);
    GT_ASSERT(w, "unknown workload ", name);
    return profileApp(*w);
}

void
expectBitwiseEqual(const FeatureVector &a, const FeatureVector &b)
{
    ASSERT_EQ(a.keys(), b.keys());
    ASSERT_EQ(a.values().size(), b.values().size());
    for (size_t i = 0; i < a.values().size(); ++i)
        ASSERT_EQ(a.values()[i], b.values()[i]) << "dim " << i;
}

bool
samePointBits(const simpoint::Point &a, const simpoint::Point &b)
{
    return std::memcmp(a.data(), b.data(), sizeof(a)) == 0;
}

/** The streaming build: every dispatch through appendDispatch(), in
 * order, then one refresh. */
DispatchFeatureCache
streamingCache(const TraceDatabase &db)
{
    DispatchFeatureCache cache;
    for (uint64_t d = 0; d < db.numDispatches(); ++d)
        cache.appendDispatch(db.profileAt(d), db.kernels());
    cache.refreshColumns();
    return cache;
}

/** The batch build on pools of 1 and 4 workers equals the streaming
 * build member for member (interim ids, block rows, streams, row
 * ids, dedup index). */
void
expectBatchBuildMatchesStreaming(const TraceDatabase &db)
{
    DispatchFeatureCache stream = streamingCache(db);
    for (unsigned threads : {1u, 4u}) {
        sched::ThreadPool pool(threads);
        DispatchFeatureCache batch(db, &pool);
        EXPECT_TRUE(batch == stream)
            << db.numDispatches() << " dispatches, " << threads
            << " threads";
        EXPECT_EQ(batch.memoryBytes(), stream.memoryBytes());
        EXPECT_EQ(batch.numBlockRows(), stream.numBlockRows());
        EXPECT_EQ(batch.uniqueKeys(), stream.uniqueKeys());
    }
}

/** @p groups covers @p points and every group holds bitwise-equal
 * points (simpoint::UniqueIndex's contract). */
void
expectGroupsHoldEqualPoints(const std::vector<simpoint::Point> &points,
                            const simpoint::UniqueIndex &groups)
{
    ASSERT_EQ(groups.uid.size(), points.size());
    ASSERT_EQ(groups.rep.size(), groups.count.size());
    std::vector<uint32_t> members(groups.rep.size(), 0);
    for (size_t i = 0; i < points.size(); ++i) {
        ASSERT_LT(groups.uid[i], groups.rep.size());
        ++members[groups.uid[i]];
        ASSERT_TRUE(samePointBits(points[i],
                                  points[groups.rep[groups.uid[i]]]))
            << "interval " << i;
    }
    EXPECT_EQ(members, groups.count);
}

// --- Flat vs map oracle on real profiled workloads ----------------

class EngineWorkloadTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EngineWorkloadTest, FlatVectorsMatchMapOracleBitwise)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    FeatureEngine flat(app.db);
    for (IntervalScheme scheme : allSchemes()) {
        auto intervals = buildIntervals(app.db, scheme);
        for (FeatureKind kind : allKinds()) {
            for (const Interval &iv : intervals) {
                FeatureVector got = flat.extract(iv, kind);
                FeatureVector want =
                    extractFeaturesMap(app.db, iv, kind);
                expectBitwiseEqual(got, want);
            }
        }
    }
    setLogQuiet(false);
}

TEST_P(EngineWorkloadTest, ProjectionsMatchOnTheFlyBitwise)
{
    // The memoized rows the engine projects with give the bits of
    // on-the-fly coefficients over the engine's own vectors.
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    FeatureEngine flat(app.db);
    for (IntervalScheme scheme : allSchemes()) {
        auto intervals = buildIntervals(app.db, scheme);
        for (FeatureKind kind : allKinds()) {
            auto vectors = flat.extractAll(intervals, kind);
            auto memo = flat.projectAll(intervals, kind);
            ASSERT_EQ(memo.size(), vectors.size());
            for (size_t i = 0; i < vectors.size(); ++i) {
                ASSERT_TRUE(samePointBits(memo[i],
                                          simpoint::project(vectors[i])))
                    << featureKindName(kind) << " interval " << i;
            }
        }
    }
    setLogQuiet(false);
}

TEST_P(EngineWorkloadTest, ExplorationMatchesMapBackendBitwise)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    FeatureEngine flat(app.db);

    Exploration a = exploreConfigs(app.db, {}, 0, &flat);
    Exploration b = reference::exploreConfigsMap(app.db);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t i = 0; i < a.results.size(); ++i) {
        const ConfigResult &ra = a.results[i];
        const ConfigResult &rb = b.results[i];
        EXPECT_EQ(ra.selection.scheme, rb.selection.scheme);
        EXPECT_EQ(ra.selection.feature, rb.selection.feature);
        EXPECT_EQ(ra.selection.selected, rb.selection.selected);
        EXPECT_EQ(ra.selection.ratios, rb.selection.ratios); // bitwise
        EXPECT_EQ(ra.selection.selectedInstrs,
                  rb.selection.selectedInstrs);
        EXPECT_EQ(ra.errorPct, rb.errorPct); // bitwise
    }
    setLogQuiet(false);
}

TEST_P(EngineWorkloadTest, FlatExplorationIsThreadCountInvariant)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    FeatureEngine flat(app.db);

    auto explore_with = [&](unsigned threads) {
        sched::ThreadPool pool(threads);
        simpoint::ClusterOptions options;
        options.pool = &pool;
        return exploreConfigs(app.db, options, 0, &flat);
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
    }
    setLogQuiet(false);
}

TEST_P(EngineWorkloadTest, RangeSumsMatchDispatchLoops)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    const TraceDatabase &db = app.db;
    for (IntervalScheme scheme : allSchemes()) {
        for (const Interval &iv : buildIntervals(db, scheme)) {
            uint64_t instrs = 0;
            double seconds = 0.0;
            for (uint64_t i = iv.firstDispatch;
                 i <= iv.lastDispatch; ++i) {
                instrs += db.profileAt(i).instrs;
                seconds += db.seconds(i);
            }
            EXPECT_EQ(db.rangeInstrs(iv.firstDispatch,
                                     iv.lastDispatch),
                      instrs);
            // Same left-to-right accumulation: bitwise equal.
            EXPECT_EQ(db.rangeSeconds(iv.firstDispatch,
                                      iv.lastDispatch),
                      seconds);
            EXPECT_EQ(iv.instrs, instrs);
            EXPECT_EQ(iv.seconds, seconds);
        }
    }
    setLogQuiet(false);
}

TEST_P(EngineWorkloadTest, ProjectAllMatchesMapBackendBitwise)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    FeatureEngine flat(app.db);
    for (IntervalScheme scheme : allSchemes()) {
        auto intervals = buildIntervals(app.db, scheme);
        for (FeatureKind kind : allKinds()) {
            auto got = flat.projectAll(intervals, kind);
            auto want = projectAllMap(app.db, intervals, kind);
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < got.size(); ++i) {
                ASSERT_TRUE(samePointBits(got[i], want[i]))
                    << featureKindName(kind) << " interval " << i;
            }
        }
    }
    setLogQuiet(false);
}

TEST_P(EngineWorkloadTest, ParallelBuildMatchesStreamingBuild)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    expectBatchBuildMatchesStreaming(app.db);
    setLogQuiet(false);
}

TEST_P(EngineWorkloadTest, ProjectAllIsPoolWidthInvariant)
{
    setLogQuiet(true);
    ProfiledApp app = profiled(GetParam());
    sched::ThreadPool one(1), four(4);
    FeatureEngine narrow(app.db, &one);
    FeatureEngine wide(app.db, &four);
    for (IntervalScheme scheme : allSchemes()) {
        auto intervals = buildIntervals(app.db, scheme);
        for (FeatureKind kind : allKinds()) {
            SCOPED_TRACE(std::string(intervalSchemeName(scheme)) + " " +
                         featureKindName(kind));
            simpoint::UniqueIndex gn, gw;
            auto a = narrow.projectAll(intervals, kind, &gn);
            auto b = wide.projectAll(intervals, kind, &gw);
            ASSERT_EQ(a.size(), b.size());
            for (size_t i = 0; i < a.size(); ++i)
                ASSERT_TRUE(samePointBits(a[i], b[i])) << "interval " << i;
            EXPECT_EQ(gn.uid, gw.uid);
            EXPECT_EQ(gn.rep, gw.rep);
            EXPECT_EQ(gn.count, gw.count);
            expectGroupsHoldEqualPoints(a, gn);
        }
    }
    setLogQuiet(false);
}

std::string
workloadParamName(const ::testing::TestParamInfo<const char *> &info)
{
    std::string out;
    for (char c : std::string(info.param))
        out += std::isalnum((unsigned char)c) ? c : '_';
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    TwoWorkloads, EngineWorkloadTest,
    ::testing::Values("cb-histogram-buffer", "cb-gaussian-image"),
    workloadParamName);

// Many dispatches over few distinct block rows (39 over 2,990) and
// kernels of up to 1,041 blocks: the shape row dedup and the
// interval memo exist for.
INSTANTIATE_TEST_SUITE_P(BlockHeavy, EngineWorkloadTest,
                         ::testing::Values("cb-graphics-provence"),
                         workloadParamName);

// --- Replayed trials --------------------------------------------

TEST(FeatureEngine, ReplayedTrialNeedsItsOwnEngine)
{
    setLogQuiet(true);
    ProfiledApp app = profiled("cb-histogram-buffer");
    gpu::TrialConfig trial2;
    trial2.noiseSeed = 99;
    TraceDatabase db2 = replayTrial(app.recording,
                                    gpu::DeviceConfig::hd4000(),
                                    trial2);

    // An engine is bound to the database it lowered; handing it a
    // selection pass over another trial's database must trip the
    // identity assert rather than silently serve stale columns.
    FeatureEngine engine1(app.db);
    EXPECT_THROW(selectSubset(db2, IntervalScheme::SyncBounded,
                              FeatureKind::BB, {}, 0, &engine1),
                 PanicError);

    // A fresh engine over the replayed trial matches that trial's
    // oracle (not trial 1's).
    FeatureEngine engine2(db2);
    for (const Interval &iv :
         buildIntervals(db2, IntervalScheme::SingleKernel)) {
        expectBitwiseEqual(
            engine2.extract(iv, FeatureKind::BB_R_W),
            extractFeaturesMap(db2, iv, FeatureKind::BB_R_W));
    }
    setLogQuiet(false);
}

// --- Synthetic edge cases ----------------------------------------

/** Derive @p p's dynamic totals (instrs, bytes read/written) from
 * its block counts and @p kernel, its kernel's static row. */
void
setTotals(gtpin::DispatchProfile &p, const gtpin::KernelStatic &kernel)
{
    p.instrs = p.bytesRead = p.bytesWritten = 0;
    for (size_t b = 0; b < p.blockCounts.size(); ++b) {
        p.instrs += p.blockCounts[b] * kernel.blockLens[b];
        p.bytesRead += p.blockCounts[b] * kernel.blockReadBytes[b];
        p.bytesWritten += p.blockCounts[b] * kernel.blockWriteBytes[b];
    }
}

/** A synthetic kernel's static row over @p blocks blocks, with
 * varied lengths and static byte counts. */
gtpin::KernelStatic
blockKernel(size_t blocks)
{
    gtpin::KernelStatic k;
    k.name = "dedup";
    for (size_t b = 0; b < blocks; ++b) {
        k.blockLens.push_back(2 + (uint32_t)(b % 3));
        k.blockReadBytes.push_back(b % 2 ? 4 : 0);
        k.blockWriteBytes.push_back(b % 4 == 0 ? 8 : 0);
    }
    return k;
}

/** A database over @p profiles in order, with setTotals() applied.
 * Kernels @p kernels lacks get blockKernel() rows. */
TraceDatabase
syntheticDb(std::vector<gtpin::DispatchProfile> profiles,
            gtpin::KernelTable kernels = {})
{
    for (const gtpin::DispatchProfile &p : profiles) {
        if (!kernels.find(p.kernelId))
            kernels.set(p.kernelId, blockKernel(p.numBlocks()));
    }
    std::vector<cfl::KernelTiming> timings;
    std::vector<ocl::ApiCallRecord> stream;
    for (uint64_t i = 0; i < profiles.size(); ++i) {
        gtpin::DispatchProfile &p = profiles[i];
        p.seq = i;
        setTotals(p, kernels.at(p.kernelId));

        cfl::KernelTiming t;
        t.seq = i;
        t.seconds = 1e-6 * (double)(i + 1);
        timings.push_back(t);

        ocl::ApiCallRecord rec;
        rec.callIndex = i;
        rec.id = ocl::ApiCallId::EnqueueNDRangeKernel;
        rec.dispatchSeq = i;
        stream.push_back(rec);
    }
    return TraceDatabase::build(
        {std::move(profiles),
         std::make_shared<const gtpin::KernelTable>(std::move(kernels))},
        timings, stream);
}

/** One all-zero dispatch between two normal ones, plus a dispatch
 * with zero-count blocks only. */
TraceDatabase
edgeDb()
{
    gtpin::KernelTable kernels;
    kernels.set(0, {"edge", {10, 2}, {8, 0}, {0, 4}});
    kernels.set(1, {"edge", {10, 2}, {8, 0}, {0, 4}});
    kernels.set(2, {"edge", {}, {}, {}}); // no basic-block data
    kernels.set(3, {"edge", {4}, {0}, {16}});
    std::vector<gtpin::DispatchProfile> profiles;
    for (uint64_t i = 0; i < 4; ++i) {
        gtpin::DispatchProfile p;
        p.kernelId = (uint32_t)i;
        p.globalWorkSize = 64;
        p.argsHash = 7;
        switch (i) {
          case 0: // normal
            p.blockCounts = {3, 1};
            break;
          case 1: // zero instructions, zero blocks executed
            p.blockCounts = {0, 0};
            break;
          case 2: // kernel with no basic-block data at all
            break;
          default: // normal again
            p.blockCounts = {5};
            break;
        }
        profiles.push_back(p);
    }
    return syntheticDb(std::move(profiles), std::move(kernels));
}

TEST(FeatureEngine, EmptyDispatchesYieldEmptyVectorsOnBothBackends)
{
    TraceDatabase db = edgeDb();
    FeatureEngine flat(db);
    for (uint64_t d : {1ull, 2ull}) {
        Interval iv;
        iv.firstDispatch = d;
        iv.lastDispatch = d;
        for (FeatureKind kind : allKinds()) {
            FeatureVector got = flat.extract(iv, kind);
            FeatureVector want = extractFeaturesMap(db, iv, kind);
            EXPECT_EQ(got.dims(), 0u)
                << featureKindName(kind) << " dispatch " << d;
            expectBitwiseEqual(got, want);
        }
    }
}

TEST(FeatureEngine, SingleDispatchIntervalsMatchOracle)
{
    TraceDatabase db = edgeDb();
    FeatureEngine flat(db);
    for (uint64_t d = 0; d < db.numDispatches(); ++d) {
        Interval iv;
        iv.firstDispatch = d;
        iv.lastDispatch = d;
        for (FeatureKind kind : allKinds()) {
            expectBitwiseEqual(flat.extract(iv, kind),
                               extractFeaturesMap(db, iv, kind));
        }
    }
}

TEST(FeatureEngine, ScratchReuseAcrossKindsAndIntervalsIsClean)
{
    TraceDatabase db = edgeDb();
    DispatchFeatureCache cache(db);
    DispatchFeatureCache::Scratch scratch;
    // Interleave kinds and intervals through ONE scratch and check
    // nothing leaks between extractions.
    for (int round = 0; round < 3; ++round) {
        for (FeatureKind kind : allKinds()) {
            for (uint64_t d = 0; d < db.numDispatches(); ++d) {
                Interval iv;
                iv.firstDispatch = 0;
                iv.lastDispatch = d;
                expectBitwiseEqual(
                    cache.extract(iv, kind, scratch),
                    extractFeaturesMap(db, iv, kind));
            }
        }
    }
}

TEST(FeatureEngine, AllZeroVectorsNormalizeToEmpty)
{
    TraceDatabase db = edgeDb();
    FeatureEngine flat(db);
    Interval iv;
    iv.firstDispatch = 1;
    iv.lastDispatch = 2; // only instruction-free dispatches
    for (FeatureKind kind : allKinds()) {
        auto flat_all = flat.extractAll({iv}, kind);
        auto map_all = reference::extractAllMap(db, {iv}, kind);
        ASSERT_EQ(flat_all.size(), 1u);
        ASSERT_EQ(map_all.size(), 1u);
        EXPECT_EQ(flat_all[0].dims(), 0u);
        expectBitwiseEqual(flat_all[0], map_all[0]);
    }
}

TEST(FeatureEngine, CacheKeyUniverseCoversEveryExtractedKey)
{
    TraceDatabase db = edgeDb();
    DispatchFeatureCache cache(db);
    const auto &keys = cache.uniqueKeys();
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    DispatchFeatureCache::Scratch scratch;
    Interval whole;
    whole.firstDispatch = 0;
    whole.lastDispatch = db.numDispatches() - 1;
    for (FeatureKind kind : allKinds()) {
        FeatureVector vec = cache.extract(whole, kind, scratch);
        for (uint64_t key : vec.keys()) {
            EXPECT_TRUE(std::binary_search(keys.begin(), keys.end(),
                                           key));
        }
    }
}

// --- Block-row dedup and the interval memo ------------------------

/** A dispatch of kernel @p kernel over @p blocks blocks with varied
 * counts; its static row comes from the database (blockKernel() by
 * default), and syntheticDb() sets its totals. */
gtpin::DispatchProfile
blockDispatch(uint32_t kernel, size_t blocks)
{
    gtpin::DispatchProfile p;
    p.kernelId = kernel;
    p.globalWorkSize = 256;
    p.argsHash = 11;
    for (size_t b = 0; b < blocks; ++b)
        p.blockCounts.push_back(b % 5 == 3 ? 0 : 1 + b % 7);
    return p;
}

/** Every contiguous interval of @p db. */
std::vector<Interval>
allRanges(const TraceDatabase &db)
{
    std::vector<Interval> out;
    for (uint64_t first = 0; first < db.numDispatches(); ++first) {
        for (uint64_t last = first; last < db.numDispatches(); ++last) {
            Interval iv;
            iv.firstDispatch = first;
            iv.lastDispatch = last;
            out.push_back(iv);
        }
    }
    return out;
}

/** Flat vectors and memoized projections of every interval of @p db
 * equal the map reference's bitwise, for every kind. */
void
expectOracleEqualEverywhere(const TraceDatabase &db)
{
    FeatureEngine flat(db);
    std::vector<Interval> intervals = allRanges(db);
    for (FeatureKind kind : allKinds()) {
        for (const Interval &iv : intervals) {
            expectBitwiseEqual(flat.extract(iv, kind),
                               extractFeaturesMap(db, iv, kind));
        }
        auto got = flat.projectAll(intervals, kind);
        auto want = projectAllMap(db, intervals, kind);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(samePointBits(got[i], want[i]))
                << featureKindName(kind) << " interval " << i;
        }
    }
}

TEST(BlockRowDedup, RepeatsShareOneRowAndNearDuplicatesDoNot)
{
    // Block 7 of kernel 0 executes no application instruction but
    // reads memory, so a count change there reaches only the memory
    // streams. Static values are per kernel, so a near duplicate
    // that differs in the memory streams alone differs in a count.
    gtpin::KernelTable kernels;
    gtpin::KernelStatic quiet = blockKernel(12);
    quiet.blockLens[7] = 0;
    kernels.set(0, quiet);
    kernels.set(1, quiet);
    gtpin::DispatchProfile base = blockDispatch(0, 12);
    gtpin::DispatchProfile count = base;
    count.blockCounts[5] += 1;       // one dynamic count differs
    gtpin::DispatchProfile read = base;
    read.blockCounts[7] += 1;        // only a read count differs
    gtpin::DispatchProfile kernel = base;
    kernel.kernelId = 1;             // same arrays, other kernel
    gtpin::DispatchProfile args = base;
    args.argsHash = 12;              // kernel identity only

    TraceDatabase db = syntheticDb(
        {base, base, count, base, read, kernel, args, base, count},
        std::move(kernels));
    DispatchFeatureCache cache(db);
    // base (shared by args), count, read, kernel.
    EXPECT_EQ(cache.numBlockRows(), 4u);
    expectOracleEqualEverywhere(db);

    // The near duplicates project away from the base row in the
    // kinds that read the differing entry.
    FeatureEngine flat(db);
    auto single = [](uint64_t d) {
        Interval iv;
        iv.firstDispatch = d;
        iv.lastDispatch = d;
        return iv;
    };
    auto point = [&](uint64_t d, FeatureKind kind) {
        return flat.projectAll({single(d)}, kind)[0];
    };
    EXPECT_FALSE(samePointBits(point(0, FeatureKind::BB),
                               point(2, FeatureKind::BB)));
    EXPECT_TRUE(samePointBits(point(0, FeatureKind::BB),
                              point(4, FeatureKind::BB)));
    EXPECT_FALSE(samePointBits(point(0, FeatureKind::BB_R),
                               point(4, FeatureKind::BB_R)));
    EXPECT_FALSE(samePointBits(point(0, FeatureKind::BB),
                               point(5, FeatureKind::BB)));
}

TEST(BlockRowDedup, ZeroRowsAndEmptyKernelsMatchOracle)
{
    gtpin::DispatchProfile idle = blockDispatch(0, 6);
    std::fill(idle.blockCounts.begin(), idle.blockCounts.end(), 0);
    gtpin::DispatchProfile bare; // no block data at all
    bare.kernelId = 2;
    gtpin::DispatchProfile busy = blockDispatch(0, 6);
    TraceDatabase db =
        syntheticDb({idle, busy, bare, idle, bare, busy});
    DispatchFeatureCache cache(db);
    EXPECT_EQ(cache.numBlockRows(), 3u);
    expectOracleEqualEverywhere(db);
}

TEST(BlockRowDedup, RepeatsAfterARefreshMatchTheBatchCache)
{
    gtpin::DispatchProfile a = blockDispatch(0, 40);
    gtpin::DispatchProfile b = blockDispatch(1, 25);
    gtpin::DispatchProfile a2 = a;
    a2.blockCounts[7] += 3;
    TraceDatabase db = syntheticDb({a, b, a, a, a2, b, a, a2});

    DispatchFeatureCache batch(db);
    // Refresh after every append, so each row's first copy is
    // ranked before its repeats arrive.
    DispatchFeatureCache stream;
    for (uint64_t d = 0; d < db.numDispatches(); ++d) {
        size_t keys = stream.numKeys();
        stream.appendDispatch(db.profileAt(d), db.kernels());
        stream.refreshColumns();
        if (d == 2 || d == 3 || d >= 5) { // a repeat interns nothing
            EXPECT_EQ(stream.numKeys(), keys) << "dispatch " << d;
        }
    }
    EXPECT_EQ(stream.numBlockRows(), batch.numBlockRows());
    EXPECT_EQ(stream.uniqueKeys(), batch.uniqueKeys());
    EXPECT_EQ(stream.memoryBytes(), batch.memoryBytes());

    auto table =
        simpoint::ProjectionTable::build(batch.uniqueKeys());
    std::vector<Interval> intervals = allRanges(db);
    DispatchFeatureCache::Scratch scratch;
    for (FeatureKind kind : allKinds()) {
        auto want = batch.projectAll(intervals, kind, table);
        auto got = stream.projectAll(intervals, kind, table);
        for (size_t i = 0; i < intervals.size(); ++i) {
            ASSERT_TRUE(samePointBits(got[i], want[i]));
            // The memo copies exactly what projectInto computes.
            ASSERT_TRUE(samePointBits(
                got[i],
                batch.projectInto(intervals[i], kind, scratch, table)));
        }
    }
}

TEST(BlockRowDedup, RepeatedDispatchesCostAConstantEach)
{
    constexpr size_t blocks = 500;
    gtpin::KernelTable kernels;
    kernels.set(3, blockKernel(blocks));
    gtpin::DispatchProfile p = blockDispatch(3, blocks);
    setTotals(p, kernels.at(3));
    DispatchFeatureCache cache;
    cache.appendDispatch(p, kernels);
    uint64_t one = cache.memoryBytes();
    for (int i = 1; i < 1000; ++i) {
        p.seq = (uint64_t)i;
        cache.appendDispatch(p, kernels);
    }
    cache.refreshColumns();
    EXPECT_EQ(cache.numBlockRows(), 1u);
    double per_dispatch =
        (double)(cache.memoryBytes() - one) / 999.0;
    // The five kernel streams and the row id: ~120 bytes. One
    // lowered copy of the row is four streams of ~400 entries.
    EXPECT_LT(per_dispatch, 256.0);
}

// --- The chunked batch build -------------------------------------

/**
 * @p n dispatches over three kernels that exercise every merge case
 * at chunk boundaries (on four workers, databases this small are cut
 * into one chunk per 256-dispatch trace-store block): kernel 0's
 * block row changes every 300 dispatches, so a row first met in one
 * chunk repeats in the next; kernel 1's row never changes, so every
 * chunk re-finds it; kernel 2 makes a row of its own every 37th
 * dispatch. Every dispatch has its own args hash, so the KN-ARGS
 * streams intern a new key per dispatch.
 */
TraceDatabase
chunkedDb(size_t n)
{
    std::vector<gtpin::DispatchProfile> profiles;
    for (size_t d = 0; d < n; ++d) {
        auto kernel = (uint32_t)(d % 3);
        gtpin::DispatchProfile p = blockDispatch(kernel, 8 + 5 * kernel);
        if (kernel == 0)
            p.blockCounts[1] += d / 300;
        if (kernel == 2 && d % 37 == 5)
            p.blockCounts[2] += d;
        p.argsHash = 1000 + d;
        p.globalWorkSize = 64u << (d % 4);
        profiles.push_back(p);
    }
    return syntheticDb(std::move(profiles));
}

TEST(ParallelBuild, ChunkBoundariesMatchStreamingBuild)
{
    // No dispatch, fewer than one block, exactly one block, one block
    // plus one, and several blocks with a ragged tail.
    for (size_t n : {0u, 1u, 255u, 256u, 257u, 3u * 256u + 17u}) {
        SCOPED_TRACE(std::to_string(n) + " dispatches");
        expectBatchBuildMatchesStreaming(chunkedDb(n));
    }
}

TEST(ParallelBuild, ChunkedProjectionsMatchOracle)
{
    // The member-for-member equality above implies this; check the
    // projections against the map reference directly anyway, across
    // chunk boundaries and for intervals spanning several chunks.
    TraceDatabase db = chunkedDb(3 * 256 + 17);
    sched::ThreadPool pool(4);
    FeatureEngine flat(db, &pool);
    std::vector<Interval> intervals;
    for (uint64_t first : {0u, 250u, 255u, 256u, 511u, 700u}) {
        for (uint64_t len : {1u, 2u, 60u, 300u}) {
            Interval iv;
            iv.firstDispatch = first;
            iv.lastDispatch =
                std::min<uint64_t>(first + len, db.numDispatches()) - 1;
            intervals.push_back(iv);
        }
    }
    for (FeatureKind kind : allKinds()) {
        simpoint::UniqueIndex groups;
        auto got = flat.projectAll(intervals, kind, &groups);
        auto want = projectAllMap(db, intervals, kind);
        for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(samePointBits(got[i], want[i]))
                << featureKindName(kind) << " interval " << i;
        }
        expectGroupsHoldEqualPoints(got, groups);
    }
}

TEST(ProjectionGroups, SplitValueClassesOnlyWhereContributionsDiffer)
{
    // Two dispatches of one kernel whose counts differ by a factor of
    // two: their KN contributions differ, but both normalize to the
    // kernel's unit vector, so the points are equal. projectAll groups
    // by contributions, so it keeps them in two groups; the value
    // grouping merges them. Both satisfy the k-means contract.
    gtpin::DispatchProfile small = blockDispatch(0, 4);
    gtpin::DispatchProfile big = small;
    for (uint64_t &count : big.blockCounts)
        count *= 2;
    TraceDatabase db = syntheticDb({small, big, small, big, big});
    FeatureEngine flat(db);
    auto intervals = buildIntervals(db, IntervalScheme::SingleKernel);
    ASSERT_EQ(intervals.size(), 5u);

    simpoint::UniqueIndex groups, byValue;
    auto points = flat.projectAll(intervals, FeatureKind::KN, &groups);
    projectAllMap(db, intervals, FeatureKind::KN, &byValue);
    expectGroupsHoldEqualPoints(points, groups);
    expectGroupsHoldEqualPoints(points, byValue);
    EXPECT_EQ(groups.uid, (std::vector<uint32_t>{0, 1, 0, 1, 1}));
    EXPECT_EQ(groups.rep, (std::vector<uint32_t>{0, 1}));
    EXPECT_EQ(groups.count, (std::vector<uint32_t>{2, 3}));
    EXPECT_EQ(byValue.rep.size(), 1u);
}

TEST(IntervalMemo, RepeatedAndNearRepeatedSequencesMatchOracle)
{
    gtpin::DispatchProfile a = blockDispatch(0, 9);
    gtpin::DispatchProfile b = blockDispatch(1, 4);
    gtpin::DispatchProfile a_args = a;
    a_args.argsHash = 99;
    gtpin::DispatchProfile a_gws = a;
    a_gws.globalWorkSize = 512;
    TraceDatabase db =
        syntheticDb({a, b, a, b, a_args, b, a_gws, a, a});
    expectOracleEqualEverywhere(db);
}

// --- ProjectionTable and FeatureVector units ---------------------

TEST(ProjectionTable, RowsMatchOnTheFlyCoefficients)
{
    std::vector<uint64_t> keys = {2, 17, 0x9000000000000001ull};
    auto table = simpoint::ProjectionTable::build(keys);
    ASSERT_EQ(table.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
        // A unit vector projects onto exactly its key's row.
        FeatureVector unit;
        unit.add(keys[i], 1.0);
        EXPECT_TRUE(samePointBits(table.rowAt(i), simpoint::project(unit)))
            << "key " << keys[i];
    }
}

TEST(FeatureVector, FromSortedRejectsBadColumns)
{
    setLogQuiet(true);
    EXPECT_THROW(FeatureVector::fromSorted({1, 2}, {1.0}),
                 PanicError);
    EXPECT_THROW(FeatureVector::fromSorted({2, 1}, {1.0, 2.0}),
                 PanicError);
    EXPECT_THROW(FeatureVector::fromSorted({1, 1}, {1.0, 2.0}),
                 PanicError);
    setLogQuiet(false);
    FeatureVector ok = FeatureVector::fromSorted({1, 5}, {2.0, 3.0});
    EXPECT_EQ(ok.dims(), 2u);
    EXPECT_DOUBLE_EQ(ok.sum(), 5.0);
}

TEST(FeatureVector, AddMatchesFromSortedAndComparesEqual)
{
    FeatureVector a;
    a.add(30, 1.0);
    a.add(10, 2.0);
    a.add(20, 3.0);
    a.add(10, 0.5); // accumulate out of order
    FeatureVector b =
        FeatureVector::fromSorted({10, 20, 30}, {2.5, 3.0, 1.0});
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.keys(), (std::vector<uint64_t>{10, 20, 30}));
}

} // anonymous namespace
} // namespace gt::core
