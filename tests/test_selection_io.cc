/**
 * @file
 * Selection-artifact I/O tests: a saved selection must reload to a
 * functionally identical object (same projections on any trial), and
 * malformed artifacts must be rejected with user-level errors.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "core/pipeline.hh"
#include "core/selection_io.hh"
#include "temp_path.hh"

namespace gt::core
{
namespace
{

const ProfiledApp &
app()
{
    static const ProfiledApp a = profileApp(
        *workloads::findWorkload("cb-gaussian-image"));
    return a;
}

SubsetSelection
makeSelection()
{
    return selectSubset(app().db, IntervalScheme::SyncBounded,
                        FeatureKind::BB);
}

TEST(SelectionIo, RoundTripPreservesStructure)
{
    SubsetSelection original = makeSelection();
    std::stringstream buffer;
    saveSelection(original, buffer);
    SubsetSelection loaded = loadSelection(buffer);

    EXPECT_EQ(loaded.scheme, original.scheme);
    EXPECT_EQ(loaded.feature, original.feature);
    EXPECT_EQ(loaded.totalInstrs, original.totalInstrs);
    EXPECT_EQ(loaded.selectedInstrs, original.selectedInstrs);
    EXPECT_EQ(loaded.selected, original.selected);
    ASSERT_EQ(loaded.ratios.size(), original.ratios.size());
    for (size_t c = 0; c < original.ratios.size(); ++c)
        EXPECT_DOUBLE_EQ(loaded.ratios[c], original.ratios[c]);
    ASSERT_EQ(loaded.intervals.size(), original.intervals.size());
    for (size_t i = 0; i < original.intervals.size(); ++i) {
        EXPECT_EQ(loaded.intervals[i].firstDispatch,
                  original.intervals[i].firstDispatch);
        EXPECT_EQ(loaded.intervals[i].lastDispatch,
                  original.intervals[i].lastDispatch);
        EXPECT_EQ(loaded.intervals[i].instrs,
                  original.intervals[i].instrs);
    }
}

TEST(SelectionIo, LoadedSelectionProjectsIdentically)
{
    SubsetSelection original = makeSelection();
    std::stringstream buffer;
    saveSelection(original, buffer);
    SubsetSelection loaded = loadSelection(buffer);

    EXPECT_DOUBLE_EQ(projectedSpi(app().db, loaded),
                     projectedSpi(app().db, original));
    EXPECT_DOUBLE_EQ(loaded.selectionFraction(),
                     original.selectionFraction());

    // And on a replayed trial, as a cross-process workflow would.
    gpu::TrialConfig trial;
    trial.noiseSeed = 777;
    TraceDatabase db2 = replayTrial(
        app().recording, gpu::DeviceConfig::hd4000(), trial);
    EXPECT_DOUBLE_EQ(selectionErrorPct(db2, loaded),
                     selectionErrorPct(db2, original));
}

TEST(SelectionIo, FileRoundTrip)
{
    SubsetSelection original = makeSelection();
    std::string path = test::uniqueTempPath(".simpoints");
    saveSelectionFile(original, path);
    SubsetSelection loaded = loadSelectionFile(path);
    EXPECT_EQ(loaded.selected, original.selected);
    std::remove(path.c_str());
}

TEST(SelectionIo, RejectsBadMagic)
{
    setLogQuiet(true);
    std::stringstream buffer("simpoints but not really\n");
    EXPECT_THROW(loadSelection(buffer), FatalError);
    setLogQuiet(false);
}

TEST(SelectionIo, RejectsOutOfRangeSimpoint)
{
    setLogQuiet(true);
    std::stringstream buffer(
        "gtpin-selection v1\nscheme 0\nfeature 5\n"
        "totalInstrs 100\nintervals 1\n0 0 100 0.5\n"
        "simpoints 1\n7 0\nweights 1\n1.0 0\nend\n");
    EXPECT_THROW(loadSelection(buffer), FatalError);
    setLogQuiet(false);
}

TEST(SelectionIo, RejectsBadWeights)
{
    setLogQuiet(true);
    std::stringstream buffer(
        "gtpin-selection v1\nscheme 0\nfeature 5\n"
        "totalInstrs 100\nintervals 1\n0 0 100 0.5\n"
        "simpoints 1\n0 0\nweights 1\n0.4 0\nend\n");
    EXPECT_THROW(loadSelection(buffer), FatalError);
    setLogQuiet(false);
}

TEST(SelectionIo, RejectsTruncation)
{
    setLogQuiet(true);
    SubsetSelection original = makeSelection();
    std::stringstream buffer;
    saveSelection(original, buffer);
    std::string text = buffer.str();
    std::stringstream cut(text.substr(0, text.size() / 2));
    EXPECT_THROW(loadSelection(cut), FatalError);
    setLogQuiet(false);
}

} // anonymous namespace
} // namespace gt::core
