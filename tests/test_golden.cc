/**
 * @file
 * Golden digests of the profiling outputs.
 *
 * Profiles four applications chosen to cover the executor's and
 * GT-Pin's branches — many kernels (cb-graphics-provence), big
 * kernels (sonyvegas-proj-r7), and both the sampled and the explicit
 * thread-weight paths (cb-vision-facedetect, cb-histogram-image) —
 * then replays each once at another trial. Every DispatchProfile
 * field, every AppCharacterization field and the trace-database
 * columns are hashed (FNV-1a; doubles by their bits) and compared
 * with tests/golden/profile_digests.txt.
 *
 * The same test explores all 30 configurations of each profiled
 * application and hashes every ConfigResult (selected intervals,
 * ratio bits, selected instructions, error bits) plus the indices the
 * two selection policies pick, so the selection flow is pinned end to
 * end, not only pairwise between backends.
 *
 * The flow's tables are pinned per application too: the Fig. 8 row
 * (the trial-1 minimum-error selection's error, by its bits, on the
 * 15 replays bench/fig8_validation runs: noise seeds 1002-1010, the
 * 1000/850/700/550/350 MHz sweep at seed 77 and HD4600 at seed 99),
 * Table 2 (intervalStats of each interval scheme) and Table 3 (the
 * whole-program vector of each feature kind, keys and value bits).
 *
 * GoldenDetailed pins the cycle-level layer the same way: the
 * trial-1 error-minimising selection of two applications whose
 * detailed error is not zero (cb-histogram-image, about 1.5%, and
 * cb-throughput-juliaset, about 4.8%) is detail-validated at three
 * design points, and every DetailedValidator::Report field is hashed.
 *
 * The file pins results across refactors: a change that claims to
 * keep outputs bitwise identical must pass it unchanged. A change
 * that alters results on purpose regenerates it — each failing case
 * writes its actual lines to golden_<app>.actual in the test's
 * working directory — and says so in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/detailed_validator.hh"
#include "core/explorer.hh"
#include "core/pipeline.hh"

namespace gt::core
{
namespace
{

class Fnv
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const unsigned char *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }

    void u64(uint64_t v) { bytes(&v, sizeof(v)); }

    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    template <class T>
    void
    vec(const std::vector<T> &v)
    {
        u64(v.size());
        for (const T &x : v)
            u64((uint64_t)x);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
        return buf;
    }

  private:
    uint64_t h = 0xcbf29ce484222325ULL;
};

std::string
statsDigest(const AppCharacterization &st)
{
    Fnv d;
    d.u64(st.totalApiCalls);
    d.f64(st.fracKernel);
    d.f64(st.fracSync);
    d.f64(st.fracOther);
    d.u64(st.uniqueKernels);
    d.u64(st.uniqueBlocks);
    d.u64(st.kernelInvocations);
    d.u64(st.blockExecs);
    d.u64(st.dynInstrs);
    for (uint64_t c : st.classCounts)
        d.u64(c);
    for (uint64_t c : st.simdCounts)
        d.u64(c);
    d.u64(st.bytesRead);
    d.u64(st.bytesWritten);
    return d.hex();
}

/** Every field of every row, in dispatch order, with the kernel's
 * name and static per-block arrays read from the database's kernel
 * table at the place each row once carried them. */
std::string
profilesDigest(const TraceDatabase &db)
{
    Fnv d;
    d.u64(db.numDispatches());
    for (uint64_t i = 0; i < db.numDispatches(); ++i) {
        const gtpin::DispatchProfile &p = db.profileAt(i);
        const gtpin::KernelStatic &k = db.kernels().at(p.kernelId);
        d.u64(p.seq);
        d.u64(p.kernelId);
        d.str(k.name);
        d.u64(p.globalWorkSize);
        d.u64(p.argsHash);
        d.vec(p.args);
        d.u64(p.instrs);
        d.vec(p.blockCounts);
        d.vec(k.blockLens);
        d.vec(k.blockReadBytes);
        d.vec(k.blockWriteBytes);
        d.u64(p.bytesRead);
        d.u64(p.bytesWritten);
    }
    return d.hex();
}

/** The timing and epoch columns plus the database totals. */
std::string
columnsDigest(const TraceDatabase &db)
{
    Fnv d;
    for (uint64_t i = 0; i < db.numDispatches(); ++i) {
        d.f64(db.seconds(i));
        d.u64(db.syncEpoch(i));
    }
    d.u64(db.totalInstrs());
    d.f64(db.totalSeconds());
    d.u64(db.numSyncEpochs());
    d.f64(db.measuredSpi());
    return d.hex();
}

/** Every ConfigResult of @p ex in slot order, then the slots
 * pickMinError and pickCoOptimized (10% threshold) choose. */
std::string
explorationDigest(const Exploration &ex)
{
    Fnv d;
    d.u64(ex.results.size());
    for (const ConfigResult &r : ex.results) {
        d.vec(r.selection.selected);
        d.u64(r.selection.ratios.size());
        for (double ratio : r.selection.ratios)
            d.f64(ratio);
        d.u64(r.selection.selectedInstrs);
        d.f64(r.errorPct);
    }
    d.u64((uint64_t)(&pickMinError(ex) - ex.results.data()));
    d.u64((uint64_t)(&pickCoOptimized(ex, 10.0) - ex.results.data()));
    return d.hex();
}

/** Fig. 8's row: @p sel's error bits on each of bench/fig8_validation's
 * 15 replays of @p app (trials 2-10, the frequency sweep, HD4600). */
std::string
fig8Digest(const ProfiledApp &app, const SubsetSelection &sel)
{
    std::vector<std::pair<gpu::DeviceConfig, gpu::TrialConfig>> jobs;
    for (uint64_t t = 2; t <= 10; ++t) {
        gpu::TrialConfig trial;
        trial.noiseSeed = 1000 + t;
        jobs.emplace_back(gpu::DeviceConfig::hd4000(), trial);
    }
    for (double freq : {1000.0, 850.0, 700.0, 550.0, 350.0}) {
        gpu::TrialConfig trial;
        trial.noiseSeed = 77;
        trial.freqMhz = freq;
        jobs.emplace_back(gpu::DeviceConfig::hd4000(), trial);
    }
    gpu::TrialConfig next_gen;
    next_gen.noiseSeed = 99;
    jobs.emplace_back(gpu::DeviceConfig::hd4600(), next_gen);

    std::vector<double> errors(jobs.size());
    sched::ThreadPool::global().parallelFor(
        jobs.size(),
        [&](size_t j) {
            errors[j] = selectionErrorPct(
                replayTrial(app.recording, jobs[j].first, jobs[j].second),
                sel);
        },
        1);
    Fnv d;
    d.u64(errors.size());
    for (double e : errors)
        d.f64(e);
    return d.hex();
}

/** Table 2: intervalStats of each interval scheme, in scheme order. */
std::string
table2Digest(const TraceDatabase &db)
{
    Fnv d;
    for (int s = 0; s < numIntervalSchemes; ++s) {
        IntervalStats st =
            intervalStats(buildIntervals(db, (IntervalScheme)s));
        d.u64(st.count);
        d.u64(st.minInstrs);
        d.u64(st.maxInstrs);
        d.f64(st.avgInstrs);
    }
    return d.hex();
}

/** Table 3: the whole-program vector of each feature kind. */
std::string
table3Digest(const TraceDatabase &db)
{
    Interval whole;
    whole.firstDispatch = 0;
    whole.lastDispatch = db.numDispatches() - 1;
    Fnv d;
    for (int k = 0; k < numFeatureKinds; ++k) {
        FeatureVector vec = extractFeatures(db, whole, (FeatureKind)k);
        d.vec(vec.keys());
        for (double v : vec.values())
            d.f64(v);
    }
    return d.hex();
}

/** key ("<app> <part>") -> digest, from the committed file. */
std::map<std::string, std::string>
loadGolden()
{
    std::map<std::string, std::string> out;
    std::ifstream in(GT_GOLDEN_DIR "/profile_digests.txt");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t sp = line.rfind(' ');
        if (sp != std::string::npos)
            out[line.substr(0, sp)] = line.substr(sp + 1);
    }
    return out;
}

/**
 * Compare @p actual with the committed digests; on any mismatch write
 * the actual lines to golden_<stem>.actual.
 */
void
expectGolden(const std::string &stem,
             const std::vector<std::pair<std::string, std::string>> &actual)
{
    const auto golden = loadGolden();
    bool all_match = true;
    for (const auto &[key, hex] : actual) {
        auto it = golden.find(key);
        if (it == golden.end()) {
            ADD_FAILURE() << "no golden digest for '" << key << "'";
            all_match = false;
        } else if (it->second != hex) {
            ADD_FAILURE() << key << ": digest " << hex
                          << " != golden " << it->second;
            all_match = false;
        }
    }
    if (!all_match) {
        std::ofstream out("golden_" + stem + ".actual");
        for (const auto &[key, hex] : actual)
            out << key << ' ' << hex << '\n';
    }
}

/** Every DetailedValidator::Report field. */
std::string
reportDigest(const DetailedValidator::Report &r)
{
    Fnv d;
    d.f64(r.fullSpi);
    d.f64(r.projectedSpi);
    d.f64(r.errorPct);
    d.u64(r.fullWalked);
    d.u64(r.subsetWalked);
    return d.hex();
}

std::string
testName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string s = info.param;
    for (char &c : s) {
        if (c == '-')
            c = '_';
    }
    return s;
}

class GoldenProfile : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenProfile, MatchesCommittedDigests)
{
    const std::string &name = GetParam();
    const workloads::Workload *w = workloads::findWorkload(name);
    ASSERT_NE(w, nullptr) << name;

    ProfiledApp app = profileApp(*w);
    gpu::TrialConfig other;
    other.noiseSeed = 2;
    TraceDatabase replay = replayTrial(
        app.recording, gpu::DeviceConfig::hd4000(), other);

    const Exploration ex = exploreConfigs(app.db);
    const std::vector<std::pair<std::string, std::string>> actual = {
        {name + " profile.stats", statsDigest(app.stats)},
        {name + " profile.dispatches", profilesDigest(app.db)},
        {name + " profile.columns", columnsDigest(app.db)},
        {name + " replay.dispatches", profilesDigest(replay)},
        {name + " replay.columns", columnsDigest(replay)},
        {name + " explore", explorationDigest(ex)},
        {name + " fig8", fig8Digest(app, pickMinError(ex).selection)},
        {name + " table2", table2Digest(app.db)},
        {name + " table3", table3Digest(app.db)},
    };

    expectGolden(name, actual);
}

INSTANTIATE_TEST_SUITE_P(
    PinnedApps, GoldenProfile,
    ::testing::Values("cb-graphics-provence", "sonyvegas-proj-r7",
                      "cb-vision-facedetect", "cb-histogram-image"),
    testName);

class GoldenDetailed : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenDetailed, MatchesCommittedDigests)
{
    const std::string &name = GetParam();
    const workloads::Workload *w = workloads::findWorkload(name);
    ASSERT_NE(w, nullptr) << name;

    ProfiledApp app = profileApp(*w);
    const Exploration ex = exploreConfigs(app.db);
    const SubsetSelection &sel = pickMinError(ex).selection;
    DetailedValidator validator(app);

    const std::vector<std::pair<std::string, DesignPoint>> points = {
        {"hd4000_max", {gpu::DeviceConfig::hd4000(), 0.0}},
        {"hd4000_350", {gpu::DeviceConfig::hd4000(), 350.0}},
        {"hd4600_max", {gpu::DeviceConfig::hd4600(), 0.0}},
    };
    std::vector<std::pair<std::string, std::string>> actual;
    for (const auto &[label, dp] : points) {
        actual.emplace_back(name + " detailed." + label,
                            reportDigest(validator.validate(sel, dp)));
    }
    expectGolden("detailed_" + name, actual);
}

INSTANTIATE_TEST_SUITE_P(
    PinnedApps, GoldenDetailed,
    ::testing::Values("cb-histogram-image", "cb-throughput-juliaset"),
    testName);

} // anonymous namespace
} // namespace gt::core
