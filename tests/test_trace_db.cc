/**
 * @file
 * TraceDatabase tests: joining GT-Pin profiles with CoFluent
 * timings and synchronization-epoch assignment.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/trace_db.hh"

namespace gt::core
{
namespace
{

gtpin::DispatchProfile
makeProfile(uint64_t seq, uint64_t instrs)
{
    gtpin::DispatchProfile p;
    p.seq = seq;
    p.globalWorkSize = 256;
    p.instrs = instrs;
    p.blockCounts = {instrs / 10, instrs / 20};
    return p;
}

/** @p profiles with the table of kernel 0, the one makeProfile()
 * dispatches. */
gtpin::ProfileSet
withKernel(std::vector<gtpin::DispatchProfile> profiles)
{
    auto kernels = std::make_shared<gtpin::KernelTable>();
    kernels->set(0, {"k0", {8, 12}, {64, 0}, {0, 64}});
    return {std::move(profiles), std::move(kernels)};
}

cfl::KernelTiming
makeTiming(uint64_t seq, double seconds)
{
    cfl::KernelTiming t;
    t.seq = seq;
    t.kernelName = "k";
    t.seconds = seconds;
    return t;
}

/** Build a synthetic call stream: E=enqueue, S=sync, O=other. */
std::vector<ocl::ApiCallRecord>
makeStream(const std::string &pattern)
{
    std::vector<ocl::ApiCallRecord> calls;
    uint64_t seq = 0;
    uint64_t idx = 0;
    for (char c : pattern) {
        ocl::ApiCallRecord rec;
        rec.callIndex = idx++;
        switch (c) {
          case 'E':
            rec.id = ocl::ApiCallId::EnqueueNDRangeKernel;
            rec.dispatchSeq = seq++;
            break;
          case 'S':
            rec.id = ocl::ApiCallId::Finish;
            break;
          default:
            rec.id = ocl::ApiCallId::SetKernelArg;
            break;
        }
        calls.push_back(rec);
    }
    return calls;
}

TEST(TraceDb, JoinsProfilesAndTimings)
{
    std::vector<gtpin::DispatchProfile> profiles{
        makeProfile(0, 1000), makeProfile(1, 2000)};
    std::vector<cfl::KernelTiming> timings{makeTiming(0, 0.1),
                                           makeTiming(1, 0.3)};
    TraceDatabase db = TraceDatabase::build(
        withKernel(std::move(profiles)), timings, makeStream("OESES"));

    EXPECT_EQ(db.numDispatches(), 2u);
    EXPECT_EQ(db.totalInstrs(), 3000u);
    EXPECT_DOUBLE_EQ(db.totalSeconds(), 0.4);
    EXPECT_DOUBLE_EQ(db.measuredSpi(), 0.4 / 3000.0);
}

TEST(TraceDb, SyncEpochsFollowTheCallStream)
{
    // Three epochs: (E E) S (E) S (E E E)
    std::vector<gtpin::DispatchProfile> profiles;
    std::vector<cfl::KernelTiming> timings;
    for (uint64_t i = 0; i < 6; ++i) {
        profiles.push_back(makeProfile(i, 100));
        timings.push_back(makeTiming(i, 0.01));
    }
    TraceDatabase db = TraceDatabase::build(
        withKernel(std::move(profiles)), timings, makeStream("EESESEEE"));

    EXPECT_EQ(db.numSyncEpochs(), 3u);
    EXPECT_EQ(db.syncEpoch(0), 0u);
    EXPECT_EQ(db.syncEpoch(1), 0u);
    EXPECT_EQ(db.syncEpoch(2), 1u);
    EXPECT_EQ(db.syncEpoch(3), 2u);
    EXPECT_EQ(db.syncEpoch(5), 2u);
}

TEST(TraceDb, ConsecutiveSyncsDoNotCreateEmptyEpochs)
{
    std::vector<gtpin::DispatchProfile> profiles{
        makeProfile(0, 100), makeProfile(1, 100)};
    std::vector<cfl::KernelTiming> timings{makeTiming(0, 0.01),
                                           makeTiming(1, 0.01)};
    TraceDatabase db = TraceDatabase::build(
        withKernel(std::move(profiles)), timings, makeStream("ESSSSE"));
    EXPECT_EQ(db.numSyncEpochs(), 2u);
}

TEST(TraceDb, CountMismatchPanics)
{
    setLogQuiet(true);
    std::vector<gtpin::DispatchProfile> profiles{
        makeProfile(0, 100)};
    std::vector<cfl::KernelTiming> timings;
    EXPECT_THROW(TraceDatabase::build(withKernel(std::move(profiles)),
                                      timings, makeStream("E")),
                 PanicError);
    setLogQuiet(false);
}

TEST(TraceDb, SequenceMismatchPanics)
{
    setLogQuiet(true);
    std::vector<gtpin::DispatchProfile> profiles{
        makeProfile(0, 100), makeProfile(1, 100)};
    std::vector<cfl::KernelTiming> timings{makeTiming(0, 0.01),
                                           makeTiming(99, 0.01)};
    EXPECT_THROW(TraceDatabase::build(withKernel(std::move(profiles)),
                                      timings, makeStream("EES")),
                 PanicError);
    setLogQuiet(false);
}

TEST(TraceDb, DispatchMissingFromStreamPanics)
{
    setLogQuiet(true);
    std::vector<gtpin::DispatchProfile> profiles{
        makeProfile(0, 100), makeProfile(1, 100)};
    std::vector<cfl::KernelTiming> timings{makeTiming(0, 0.01),
                                           makeTiming(1, 0.01)};
    // Stream only mentions one enqueue.
    EXPECT_THROW(TraceDatabase::build(withKernel(std::move(profiles)),
                                      timings, makeStream("ES")),
                 PanicError);
    setLogQuiet(false);
}

TEST(TraceDb, MeasuredSpiOfEmptyDatabasePanics)
{
    setLogQuiet(true);
    TraceDatabase db;
    EXPECT_THROW(db.measuredSpi(), PanicError);
    setLogQuiet(false);
}

} // anonymous namespace
} // namespace gt::core
