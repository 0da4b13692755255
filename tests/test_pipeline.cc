/**
 * @file
 * End-to-end pipeline tests: profileApp's cross-tool consistency
 * and replayTrial's determinism across trials, frequencies, and
 * architecture generations.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/pipeline.hh"

namespace gt::core
{
namespace
{

const ProfiledApp &
gaussImage()
{
    static const ProfiledApp app = profileApp(
        *workloads::findWorkload("cb-gaussian-image"));
    return app;
}

TEST(Pipeline, ToolsAgreeOnTotals)
{
    const ProfiledApp &app = gaussImage();
    // The BB-counter tool, the kernel-profile tool (via the trace
    // database), and the opcode-mix tool measured the same run; all
    // three instruction totals must agree exactly.
    uint64_t class_total = 0;
    for (int c = 0; c < isa::numOpClasses; ++c)
        class_total += app.stats.classCounts[c];
    EXPECT_EQ(app.stats.dynInstrs, app.db.totalInstrs());
    EXPECT_EQ(class_total, app.db.totalInstrs());
}

TEST(Pipeline, ProfileIsDeterministic)
{
    const ProfiledApp &a = gaussImage();
    ProfiledApp b = profileApp(
        *workloads::findWorkload("cb-gaussian-image"));
    EXPECT_EQ(a.db.totalInstrs(), b.db.totalInstrs());
    EXPECT_EQ(a.stats.totalApiCalls, b.stats.totalApiCalls);
    EXPECT_DOUBLE_EQ(a.db.totalSeconds(), b.db.totalSeconds());
    EXPECT_EQ(a.recording.size(), b.recording.size());
}

TEST(Pipeline, ReplaySameTrialIsIdentical)
{
    const ProfiledApp &app = gaussImage();
    gpu::TrialConfig trial; // profileApp's default
    TraceDatabase db2 = replayTrial(
        app.recording, gpu::DeviceConfig::hd4000(), trial);
    // Profiling and replay share one InstrumentedStack, so the same
    // trial reproduces the whole database bit for bit, timing too.
    ASSERT_EQ(db2.numDispatches(), app.db.numDispatches());
    EXPECT_EQ(db2.totalInstrs(), app.db.totalInstrs());
    EXPECT_EQ(db2.totalSeconds(), app.db.totalSeconds());
    EXPECT_EQ(db2.numSyncEpochs(), app.db.numSyncEpochs());
    EXPECT_EQ(db2.kernels(), app.db.kernels());
    for (uint64_t i = 0; i < db2.numDispatches(); ++i) {
        EXPECT_EQ(db2.seconds(i), app.db.seconds(i)) << "dispatch " << i;
        EXPECT_EQ(db2.profileAt(i).instrs,
                  app.db.profileAt(i).instrs);
        EXPECT_EQ(db2.profileAt(i).kernelId,
                  app.db.profileAt(i).kernelId);
        EXPECT_EQ(db2.syncEpoch(i), app.db.syncEpoch(i));
    }
}

TEST(Pipeline, ReplayTwiceSameSeedIsBitIdentical)
{
    const ProfiledApp &app = gaussImage();
    gpu::TrialConfig trial;
    trial.noiseSeed = 4242;
    TraceDatabase a = replayTrial(
        app.recording, gpu::DeviceConfig::hd4000(), trial);
    TraceDatabase b = replayTrial(
        app.recording, gpu::DeviceConfig::hd4000(), trial);
    ASSERT_EQ(a.numDispatches(), b.numDispatches());
    for (uint64_t i = 0; i < a.numDispatches(); ++i)
        EXPECT_DOUBLE_EQ(a.seconds(i), b.seconds(i));
}

TEST(Pipeline, LowerFrequencyRaisesSpi)
{
    const ProfiledApp &app = gaussImage();
    gpu::TrialConfig fast, slow;
    fast.freqMhz = 1150.0;
    slow.freqMhz = 350.0;
    TraceDatabase dbf = replayTrial(
        app.recording, gpu::DeviceConfig::hd4000(), fast);
    TraceDatabase dbs = replayTrial(
        app.recording, gpu::DeviceConfig::hd4000(), slow);
    EXPECT_GT(dbs.measuredSpi(), dbf.measuredSpi());
}

TEST(Pipeline, CrossArchitectureReplayKeepsCounts)
{
    const ProfiledApp &app = gaussImage();
    gpu::TrialConfig trial;
    TraceDatabase hsw = replayTrial(
        app.recording, gpu::DeviceConfig::hd4600(), trial);
    EXPECT_EQ(hsw.totalInstrs(), app.db.totalInstrs());
    EXPECT_EQ(hsw.numDispatches(), app.db.numDispatches());
}

TEST(Pipeline, CharacterizationMatchesTracerCategories)
{
    const ProfiledApp &app = gaussImage();
    EXPECT_NEAR(app.stats.fracKernel + app.stats.fracSync +
                    app.stats.fracOther,
                1.0, 1e-12);
    EXPECT_EQ(app.stats.kernelInvocations,
              app.recording.dispatchCount());
}

} // anonymous namespace
} // namespace gt::core
