/**
 * @file
 * Feature-extraction tests (Table III): the ten feature kinds, the
 * instruction-count weighting, normalization, and the refinement
 * relationships between kinds — parameterized across all ten.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/pipeline.hh"

namespace gt::core
{
namespace
{

/** Two-kernel synthetic trace whose dispatches vary args and gws. */
TraceDatabase
featureDb()
{
    gtpin::ProfileSet profiles;
    auto kernels = std::make_shared<gtpin::KernelTable>();
    kernels->set(0, {"alpha", {4, 10, 6}, {16, 0, 64}, {0, 32, 0}});
    kernels->set(1, {"beta", {4, 10, 6}, {16, 0, 64}, {0, 32, 0}});
    profiles.kernels = kernels;
    std::vector<cfl::KernelTiming> timings;
    std::vector<ocl::ApiCallRecord> stream;
    uint64_t idx = 0;
    for (uint64_t i = 0; i < 24; ++i) {
        gtpin::DispatchProfile p;
        p.seq = i;
        p.kernelId = (uint32_t)(i % 2);
        p.globalWorkSize = 256 << (i % 3);
        p.argsHash = 0x1000 + i % 4;
        p.blockCounts = {10 + i, 5, i % 2 ? 7u : 0u};
        const gtpin::KernelStatic &k = kernels->at(p.kernelId);
        p.instrs = 0;
        p.bytesRead = 0;
        p.bytesWritten = 0;
        for (size_t b = 0; b < 3; ++b) {
            p.instrs += p.blockCounts[b] * k.blockLens[b];
            p.bytesRead += p.blockCounts[b] * k.blockReadBytes[b];
            p.bytesWritten +=
                p.blockCounts[b] * k.blockWriteBytes[b];
        }
        profiles.dispatches.push_back(p);

        cfl::KernelTiming t;
        t.seq = i;
        t.seconds = 1e-5;
        timings.push_back(t);

        ocl::ApiCallRecord rec;
        rec.callIndex = idx++;
        rec.id = ocl::ApiCallId::EnqueueNDRangeKernel;
        rec.dispatchSeq = i;
        stream.push_back(rec);
        if (i % 6 == 5) {
            ocl::ApiCallRecord sync;
            sync.callIndex = idx++;
            sync.id = ocl::ApiCallId::Finish;
            stream.push_back(sync);
        }
    }
    return TraceDatabase::build(std::move(profiles), timings,
                                stream);
}

std::vector<FeatureKind>
allKinds()
{
    std::vector<FeatureKind> kinds;
    for (int k = 0; k < numFeatureKinds; ++k)
        kinds.push_back((FeatureKind)k);
    return kinds;
}

class FeatureKindTest
    : public ::testing::TestWithParam<FeatureKind>
{
};

TEST_P(FeatureKindTest, ExtractsNonEmptyNormalizedVectors)
{
    TraceDatabase db = featureDb();
    auto intervals =
        buildIntervals(db, IntervalScheme::SyncBounded);
    auto vectors = extractAllFeatures(db, intervals, GetParam());
    ASSERT_EQ(vectors.size(), intervals.size());
    for (const FeatureVector &vec : vectors) {
        EXPECT_GT(vec.dims(), 0u);
        EXPECT_NEAR(vec.sum(), 1.0, 1e-9);
        for (double v : vec.values())
            EXPECT_GE(v, 0.0);
    }
}

TEST_P(FeatureKindTest, IdenticalIntervalsProduceIdenticalVectors)
{
    TraceDatabase db = featureDb();
    // Intervals 0 and 2 hold dispatches with the same composition
    // modulo our construction (period 6 with period-2/3/4 fields is
    // not exactly repeating, so compare an interval with itself).
    auto intervals =
        buildIntervals(db, IntervalScheme::SyncBounded);
    FeatureVector a = extractFeatures(db, intervals[0], GetParam());
    FeatureVector b = extractFeatures(db, intervals[0], GetParam());
    EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    AllTenKinds, FeatureKindTest, ::testing::ValuesIn(allKinds()),
    [](const auto &info) {
        std::string s = featureKindName(info.param);
        std::string out;
        for (char c : s) {
            if (std::isalnum((unsigned char)c))
                out += c;
            else
                out += '_';
        }
        return out;
    });

TEST(Features, KindPredicatesMatchTableIII)
{
    EXPECT_FALSE(isBlockFeature(FeatureKind::KN));
    EXPECT_FALSE(isBlockFeature(FeatureKind::KN_RW));
    EXPECT_TRUE(isBlockFeature(FeatureKind::BB));
    EXPECT_TRUE(isBlockFeature(FeatureKind::BB_RpW));
    EXPECT_FALSE(hasMemoryFeature(FeatureKind::KN));
    EXPECT_FALSE(hasMemoryFeature(FeatureKind::BB));
    EXPECT_TRUE(hasMemoryFeature(FeatureKind::KN_RW));
    EXPECT_TRUE(hasMemoryFeature(FeatureKind::BB_R));
    EXPECT_STREQ(featureKindName(FeatureKind::BB_RpW), "BB-(R+W)");
    EXPECT_STREQ(featureKindName(FeatureKind::KN_ARGS_GWS),
                 "KN-ARGS-GWS");
}

TEST(Features, KnDimensionalityReflectsKeyRefinement)
{
    TraceDatabase db = featureDb();
    Interval whole;
    whole.firstDispatch = 0;
    whole.lastDispatch = db.numDispatches() - 1;

    size_t kn =
        extractFeatures(db, whole, FeatureKind::KN).dims();
    size_t kn_args =
        extractFeatures(db, whole, FeatureKind::KN_ARGS).dims();
    size_t kn_gws =
        extractFeatures(db, whole, FeatureKind::KN_GWS).dims();
    size_t kn_args_gws =
        extractFeatures(db, whole, FeatureKind::KN_ARGS_GWS).dims();
    size_t kn_rw =
        extractFeatures(db, whole, FeatureKind::KN_RW).dims();

    // 2 kernels; refinements split keys further.
    EXPECT_EQ(kn, 2u);
    EXPECT_GT(kn_args, kn);
    EXPECT_GT(kn_gws, kn);
    EXPECT_GE(kn_args_gws, kn_args);
    EXPECT_GE(kn_args_gws, kn_gws);
    // KN-RW adds a read and a write dimension per kernel.
    EXPECT_EQ(kn_rw, kn + 4u);
}

TEST(Features, BbDimensionalityReflectsMemoryDims)
{
    TraceDatabase db = featureDb();
    Interval whole;
    whole.firstDispatch = 0;
    whole.lastDispatch = db.numDispatches() - 1;

    size_t bb = extractFeatures(db, whole, FeatureKind::BB).dims();
    size_t bb_r =
        extractFeatures(db, whole, FeatureKind::BB_R).dims();
    size_t bb_w =
        extractFeatures(db, whole, FeatureKind::BB_W).dims();
    size_t bb_rw =
        extractFeatures(db, whole, FeatureKind::BB_R_W).dims();
    size_t bb_rpw =
        extractFeatures(db, whole, FeatureKind::BB_RpW).dims();

    // 2 kernels x 3 blocks, all executed somewhere.
    EXPECT_EQ(bb, 5u);
    EXPECT_GT(bb_r, bb);
    EXPECT_GT(bb_w, bb);
    EXPECT_GE(bb_rw, bb_r);
    EXPECT_GE(bb_rw, bb_w);
    EXPECT_GT(bb_rpw, bb);
    EXPECT_LE(bb_rpw, bb_rw);
}

TEST(Features, WeightingByInstructionCount)
{
    // Section V-B's example: block A 10 times x 3 instrs vs block B
    // 5 times x 20 instrs — B must carry the larger weight.
    gtpin::ProfileSet profiles;
    auto kernels = std::make_shared<gtpin::KernelTable>();
    kernels->set(0, {"k0", {3, 20}, {0, 0}, {0, 0}});
    profiles.kernels = kernels;
    gtpin::DispatchProfile p;
    p.seq = 0;
    p.kernelId = 0;
    p.blockCounts = {10, 5};
    p.instrs = 10 * 3 + 5 * 20;
    profiles.dispatches.push_back(p);
    std::vector<cfl::KernelTiming> timings(1);
    timings[0].seq = 0;
    timings[0].seconds = 1e-5;
    std::vector<ocl::ApiCallRecord> stream(1);
    stream[0].id = ocl::ApiCallId::EnqueueNDRangeKernel;
    stream[0].dispatchSeq = 0;
    TraceDatabase db =
        TraceDatabase::build(std::move(profiles), timings, stream);

    Interval whole;
    whole.firstDispatch = 0;
    whole.lastDispatch = 0;
    FeatureVector vec =
        extractFeatures(db, whole, FeatureKind::BB);
    ASSERT_EQ(vec.dims(), 2u);
    std::vector<double> values = vec.values();
    double lo = std::min(values[0], values[1]);
    double hi = std::max(values[0], values[1]);
    EXPECT_DOUBLE_EQ(lo, 30.0);  // A: 10 x 3
    EXPECT_DOUBLE_EQ(hi, 100.0); // B: 5 x 20
}

TEST(Features, VectorOps)
{
    FeatureVector a, b;
    a.add(1, 3.0);
    a.add(2, 4.0);
    b.add(2, 2.0);
    b.add(3, 9.0);
    EXPECT_DOUBLE_EQ(a.l2norm(), 5.0);
    EXPECT_DOUBLE_EQ(a.dot(b), 8.0);
    EXPECT_DOUBLE_EQ(a.sum(), 7.0);
    a.normalize();
    EXPECT_NEAR(a.sum(), 1.0, 1e-12);
    // Zero entries are dropped.
    FeatureVector z;
    z.add(5, 0.0);
    EXPECT_EQ(z.dims(), 0u);
    z.normalize(); // no-op, no crash
}

TEST(Features, UnexecutedBlocksProduceNoDims)
{
    TraceDatabase db = featureDb();
    // Even-seq dispatches have blockCounts[2] == 0: a single-kernel
    // interval over dispatch 0 must not have a dim for block 2.
    auto intervals =
        buildIntervals(db, IntervalScheme::SingleKernel);
    FeatureVector vec =
        extractFeatures(db, intervals[0], FeatureKind::BB);
    EXPECT_EQ(vec.dims(), 2u);
}

} // anonymous namespace
} // namespace gt::core
