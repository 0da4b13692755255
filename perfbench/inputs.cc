#include "inputs.hh"

#include <algorithm>

#include "common/rng.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace
{

/**
 * Which apps each workload runs is fixed; the seed draws everything
 * whose host cost does not depend on the draw (orders, noise seeds,
 * replay conditions, service batches). With apps drawn from cost
 * strata instead, dispatches_per_s, peak_rss_mib and the op latencies
 * moved by 15-30% between seeds on a 4-CPU x86-64 host, more than any
 * bound that would still catch a regression.
 *
 * Cost classes by host time of one profile or replay on that host:
 * about 1 s, 0.2-0.5 s, 0.1-0.15 s, and 0.03-0.07 s (the class where
 * driver set-up costs more than the replay itself).
 */
const std::vector<std::vector<std::string>> profileCostClasses = {
    {"cb-graphics-t-rex"},
    {"cb-vision-facedetect-mobile", "cb-vision-facedetect",
     "sonyvegas-proj-r4", "cb-graphics-provence", "sonyvegas-proj-r3",
     "sonyvegas-proj-r5"},
    {"sonyvegas-proj-r1", "sonyvegas-proj-r2", "sonyvegas-proj-r6",
     "sonyvegas-proj-r7"},
};

/** validate's apps, one cost class per entry, largest first. */
const std::vector<std::vector<std::string>> validateApps = {
    {"sonyvegas-proj-r3"},
    {"sonyvegas-proj-r1", "sonyvegas-proj-r6"},
    {"cb-physics-ocean-surf", "sandra-crypt-aes256"},
    {"cb-gaussian-buffer", "cb-histogram-image", "cb-throughput-ao"},
};
const std::string detailedApp = "cb-histogram-image";

/** serve's recordings: two from each of the two cheapest classes. */
const std::vector<std::string> serveRecordings = {
    "cb-physics-part-sim-64k", "sandra-proc-gpu", "cb-histogram-buffer",
    "cb-throughput-bitcoin"};

const std::vector<std::string> tinyApps = {
    "cb-gaussian-buffer", "cb-throughput-bitcoin", "cb-throughput-ao",
    "cb-histogram-image", "cb-histogram-buffer", "cb-gaussian-image"};

/** Fig. 8's frequency sweep (MHz) and later-trial range. */
const std::vector<double> freqSweep = {1000, 850, 700, 550, 350};
constexpr unsigned firstLaterTrial = 2, lastLaterTrial = 10;

/** Distinct substream per workload, so adding a draw to one workload
 * never shifts another's inputs. */
gt::Rng
streamFor(uint64_t seed, WorkloadKind kind)
{
    return gt::Rng(seed).split((uint64_t)kind);
}

/** @p k distinct elements of @p pool in draw order. */
template <typename T>
std::vector<T>
pick(gt::Rng &rng, std::vector<T> pool, size_t k)
{
    rng.shuffle(pool);
    pool.resize(std::min(k, pool.size()));
    return pool;
}

/** A profiling-trial noise seed; Fig. 8's own replay seeds (77, 99,
 * 1000+t) are above this range. */
uint64_t
drawNoiseSeed(gt::Rng &rng)
{
    return 1 + rng.nextBounded(60);
}

} // anonymous namespace

bool
parseWorkload(const std::string &name, WorkloadKind &kind)
{
    for (WorkloadKind k : {WorkloadKind::Explore, WorkloadKind::Validate,
                           WorkloadKind::Serve}) {
        if (name == workloadName(k)) {
            kind = k;
            return true;
        }
    }
    return false;
}

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::Explore:
        return "explore";
    case WorkloadKind::Validate:
        return "validate";
    case WorkloadKind::Serve:
        return "serve";
    }
    return "?";
}

gt::gpu::DeviceConfig
ReplayCondition::device() const
{
    return hd4600 ? gt::gpu::DeviceConfig::hd4600()
                  : gt::gpu::DeviceConfig::hd4000();
}

gt::gpu::TrialConfig
ReplayCondition::trial() const
{
    gt::gpu::TrialConfig t;
    t.freqMhz = freqMhz;
    t.noiseSeed = noiseSeed;
    return t;
}

ExploreInputs
makeExploreInputs(uint64_t seed)
{
    gt::Rng rng = streamFor(seed, WorkloadKind::Explore);
    ExploreInputs in;
    // Costliest class first, each class in seed order: the pool claims
    // apps in index order, so a 1 s profile drawn last would leave the
    // other threads idle for most of a second.
    std::vector<std::string> rest;
    for (const gt::workloads::Workload *w :
         gt::workloads::workloadSuite())
        rest.push_back(w->info().name);
    for (std::vector<std::string> cls : profileCostClasses) {
        rng.shuffle(cls);
        for (const std::string &app : cls) {
            in.apps.push_back(app);
            rest.erase(std::find(rest.begin(), rest.end(), app));
        }
    }
    rng.shuffle(rest);
    in.apps.insert(in.apps.end(), rest.begin(), rest.end());
    in.noiseSeed = drawNoiseSeed(rng);
    in.warmupApp = "cb-gaussian-buffer";
    in.checkApp = tinyApps[rng.nextBounded(tinyApps.size())];
    return in;
}

ValidateInputs
makeValidateInputs(uint64_t seed)
{
    gt::Rng rng = streamFor(seed, WorkloadKind::Validate);
    ValidateInputs in;
    // 1 + 2 + 2 + 3 apps, 5 replays each: the replay-latency median
    // falls inside the third class and the tail inside the first, not
    // on a boundary between classes.
    for (std::vector<std::string> cls : validateApps) {
        rng.shuffle(cls);
        in.apps.insert(in.apps.end(), cls.begin(), cls.end());
    }
    in.profileNoiseSeed = drawNoiseSeed(rng);

    std::vector<unsigned> trials;
    for (unsigned t = firstLaterTrial; t <= lastLaterTrial; ++t)
        trials.push_back(t);
    for (size_t a = 0; a < in.apps.size(); ++a) {
        // Fig. 8's seeds: trial t replays with noise 1000 + t, the
        // frequency sweep with 77, the HD4600 replay with 99.
        for (unsigned t : pick(rng, trials, 2)) {
            ReplayCondition c;
            c.app = a;
            c.kind = "trial";
            c.noiseSeed = 1000 + t;
            in.conditions.push_back(c);
        }
        for (double f : pick(rng, freqSweep, 2)) {
            ReplayCondition c;
            c.app = a;
            c.kind = "freq";
            c.freqMhz = f;
            c.noiseSeed = 77;
            in.conditions.push_back(c);
        }
        ReplayCondition c;
        c.app = a;
        c.kind = "arch";
        c.hd4600 = true;
        c.noiseSeed = 99;
        in.conditions.push_back(c);
    }

    // The spot check: the profiled design point, one swept clock, and
    // the next generation.
    in.detailedApp = (size_t)(std::find(in.apps.begin(), in.apps.end(),
                                        detailedApp) -
                              in.apps.begin());
    in.designPoints = {{false, 0.0},
                       {false, freqSweep[1 + rng.nextBounded(4)]},
                       {true, 0.0}};
    for (size_t i = 0; i < 3; ++i)
        in.serialCheck.push_back(rng.nextBounded(in.conditions.size()));
    return in;
}

ServeInputs
makeServeInputs(uint64_t seed)
{
    gt::Rng rng = streamFor(seed, WorkloadKind::Serve);
    ServeInputs in;
    in.recordings = serveRecordings;
    rng.shuffle(in.recordings);
    in.noiseSeed = drawNoiseSeed(rng);
    in.residentBudgetBytes = 1ull << 20;

    // Rounds 0 and 1 are the first sightings (cold replays); round 1
    // submits one recording twice while it is still cold. The twelve
    // warm rounds submit each of the six pairs twice, in seed order,
    // and four of them (one per recording) repeat a recording.
    in.rounds.push_back({{0, 1}});
    in.rounds.push_back({{2, 3, 2}});
    std::vector<ServeRound> warm;
    for (int twice = 0; twice < 2; ++twice) {
        for (size_t a = 0; a < 4; ++a) {
            for (size_t b = a + 1; b < 4; ++b)
                warm.push_back({rng.nextBounded(2) ? std::vector<size_t>{a, b}
                                             : std::vector<size_t>{b, a}});
        }
    }
    rng.shuffle(warm);
    for (size_t rec = 0; rec < 4; ++rec) {
        for (ServeRound &round : warm) {
            if (round.batch.size() == 2 && round.batch[0] == rec) {
                round.batch.push_back(rec);
                break;
            }
        }
    }
    in.rounds.insert(in.rounds.end(), warm.begin(), warm.end());
    return in;
}

} // namespace perfbench
