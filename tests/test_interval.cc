/**
 * @file
 * Interval-construction tests (Table II): partition properties, the
 * sync-boundary and whole-kernel constraints the paper's Section V-A
 * says are strict hardware-designer requirements, and the relative
 * sizing of the three schemes — checked both on synthetic traces and
 * on real profiled applications, parameterized across schemes.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/pipeline.hh"

namespace gt::core
{
namespace
{

/** Synthetic database: 100 dispatches, sync every 10, 1K instrs. */
TraceDatabase
syntheticDb(uint64_t dispatches = 100, uint64_t per_epoch = 10,
            uint64_t instrs = 1000)
{
    gtpin::ProfileSet profiles;
    auto kernels = std::make_shared<gtpin::KernelTable>();
    for (uint32_t k = 0; k < 3; ++k)
        kernels->set(k, {"k" + std::to_string(k), {10}, {40}, {4}});
    profiles.kernels = kernels;
    std::vector<cfl::KernelTiming> timings;
    std::vector<ocl::ApiCallRecord> stream;
    uint64_t idx = 0;
    for (uint64_t i = 0; i < dispatches; ++i) {
        gtpin::DispatchProfile p;
        p.seq = i;
        p.kernelId = (uint32_t)(i % 3);
        p.globalWorkSize = 256;
        p.instrs = instrs * (1 + i % 4);
        p.blockCounts = {p.instrs / 10};
        profiles.dispatches.push_back(p);

        cfl::KernelTiming t;
        t.seq = i;
        t.seconds = 1e-5 * (double)(1 + i % 4);
        timings.push_back(t);

        ocl::ApiCallRecord rec;
        rec.callIndex = idx++;
        rec.id = ocl::ApiCallId::EnqueueNDRangeKernel;
        rec.dispatchSeq = i;
        stream.push_back(rec);
        if ((i + 1) % per_epoch == 0) {
            ocl::ApiCallRecord sync;
            sync.callIndex = idx++;
            sync.id = ocl::ApiCallId::Finish;
            stream.push_back(sync);
        }
    }
    return TraceDatabase::build(std::move(profiles), timings,
                                stream);
}

/** Check the paper's strict interval invariants. */
void
checkInvariants(const TraceDatabase &db,
                const std::vector<Interval> &intervals)
{
    ASSERT_FALSE(intervals.empty());
    // Partition: covers every dispatch exactly once, in order.
    EXPECT_EQ(intervals.front().firstDispatch, 0u);
    EXPECT_EQ(intervals.back().lastDispatch,
              db.numDispatches() - 1);
    for (size_t i = 0; i < intervals.size(); ++i) {
        const Interval &iv = intervals[i];
        // At least one whole kernel invocation per interval.
        EXPECT_LE(iv.firstDispatch, iv.lastDispatch);
        EXPECT_GE(iv.numDispatches(), 1u);
        if (i > 0) {
            EXPECT_EQ(iv.firstDispatch,
                      intervals[i - 1].lastDispatch + 1);
        }
        // Never spans a synchronization call.
        EXPECT_EQ(db.syncEpoch(iv.firstDispatch),
                  db.syncEpoch(iv.lastDispatch));
        // Aggregates are consistent.
        uint64_t instrs = 0;
        double seconds = 0.0;
        for (uint64_t d = iv.firstDispatch; d <= iv.lastDispatch;
             ++d) {
            instrs += db.profileAt(d).instrs;
            seconds += db.seconds(d);
        }
        EXPECT_EQ(instrs, iv.instrs);
        EXPECT_DOUBLE_EQ(seconds, iv.seconds);
    }
    // Total instructions conserved.
    uint64_t total = 0;
    for (const Interval &iv : intervals)
        total += iv.instrs;
    EXPECT_EQ(total, db.totalInstrs());
}

class SchemeTest : public ::testing::TestWithParam<IntervalScheme>
{
};

TEST_P(SchemeTest, InvariantsOnSyntheticTrace)
{
    TraceDatabase db = syntheticDb();
    auto intervals = buildIntervals(db, GetParam());
    checkInvariants(db, intervals);
}

TEST_P(SchemeTest, InvariantsOnRealApplication)
{
    static const ProfiledApp app = profileApp(
        *workloads::findWorkload("cb-histogram-buffer"));
    auto intervals = buildIntervals(app.db, GetParam());
    checkInvariants(app.db, intervals);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeTest,
    ::testing::Values(IntervalScheme::SyncBounded,
                      IntervalScheme::ApproxInstructions,
                      IntervalScheme::SingleKernel),
    [](const auto &info) {
        return std::string(intervalSchemeName(info.param)) ==
                "approx-n"
            ? std::string("approx")
            : std::string(intervalSchemeName(info.param));
    });

TEST(Intervals, SchemeSizesAreOrderedLikeTableII)
{
    TraceDatabase db = syntheticDb(200, 20);
    auto sync =
        buildIntervals(db, IntervalScheme::SyncBounded);
    auto approx = buildIntervals(
        db, IntervalScheme::ApproxInstructions, 8000);
    auto kernel =
        buildIntervals(db, IntervalScheme::SingleKernel);

    // Table II: sync intervals are largest (fewest), kernel
    // intervals smallest (most).
    EXPECT_LE(sync.size(), approx.size());
    EXPECT_LE(approx.size(), kernel.size());
    EXPECT_EQ(kernel.size(), db.numDispatches());
    EXPECT_EQ(sync.size(), db.numSyncEpochs());
}

TEST(Intervals, SingleKernelIsOneDispatchEach)
{
    TraceDatabase db = syntheticDb(50, 10);
    auto intervals =
        buildIntervals(db, IntervalScheme::SingleKernel);
    for (const Interval &iv : intervals)
        EXPECT_EQ(iv.numDispatches(), 1u);
}

TEST(Intervals, ApproxRespectsTarget)
{
    TraceDatabase db = syntheticDb(100, 100, 1000);
    // Epochs are huge (one sync at the end); target 5000 instrs.
    auto intervals = buildIntervals(
        db, IntervalScheme::ApproxInstructions, 5000);
    // Chunks reach the target without splitting a dispatch: each is
    // at least the target but less than target + the largest
    // dispatch (4000 instrs).
    for (size_t i = 0; i + 1 < intervals.size(); ++i) {
        EXPECT_GE(intervals[i].instrs, 5000u);
        EXPECT_LT(intervals[i].instrs, 5000u + 4000u);
    }
}

TEST(Intervals, ApproxDefaultsToThousandth)
{
    TraceDatabase db = syntheticDb(100, 10);
    auto def = buildIntervals(
        db, IntervalScheme::ApproxInstructions, 0);
    auto expl = buildIntervals(
        db, IntervalScheme::ApproxInstructions,
        std::max<uint64_t>(1, db.totalInstrs() / 1000));
    EXPECT_EQ(def.size(), expl.size());
}

TEST(Intervals, SyncBoundedMatchesEpochs)
{
    TraceDatabase db = syntheticDb(60, 6);
    auto intervals =
        buildIntervals(db, IntervalScheme::SyncBounded);
    EXPECT_EQ(intervals.size(), db.numSyncEpochs());
    for (const Interval &iv : intervals)
        EXPECT_EQ(iv.numDispatches(), 6u);
}

TEST(Intervals, StatsComputed)
{
    TraceDatabase db = syntheticDb(40, 4);
    auto intervals =
        buildIntervals(db, IntervalScheme::SingleKernel);
    IntervalStats st = intervalStats(intervals);
    EXPECT_EQ(st.count, 40u);
    EXPECT_EQ(st.minInstrs, 1000u);
    EXPECT_EQ(st.maxInstrs, 4000u);
    EXPECT_NEAR(st.avgInstrs, 2500.0, 1.0);
}

TEST(Intervals, SpiOfInterval)
{
    Interval iv;
    iv.instrs = 1000;
    iv.seconds = 0.5;
    EXPECT_DOUBLE_EQ(iv.spi(), 0.0005);
    setLogQuiet(true);
    Interval empty;
    EXPECT_THROW(empty.spi(), PanicError);
    setLogQuiet(false);
}

TEST(Intervals, SchemeNames)
{
    EXPECT_STREQ(intervalSchemeName(IntervalScheme::SyncBounded),
                 "sync");
    EXPECT_STREQ(
        intervalSchemeName(IntervalScheme::ApproxInstructions),
        "approx-n");
    EXPECT_STREQ(intervalSchemeName(IntervalScheme::SingleKernel),
                 "kernel");
}

} // anonymous namespace
} // namespace gt::core
