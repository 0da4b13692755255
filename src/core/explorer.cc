#include "core/explorer.hh"

#include <array>
#include <optional>

#include "common/logging.hh"
#include "core/feature_engine.hh"

namespace gt::core
{

const ConfigResult &
Exploration::result(IntervalScheme scheme, FeatureKind feature) const
{
    size_t idx = (size_t)scheme * numFeatureKinds + (size_t)feature;
    GT_ASSERT(idx < results.size(),
              "configuration not present in exploration");
    const ConfigResult &r = results[idx];
    GT_ASSERT(r.selection.scheme == scheme &&
                  r.selection.feature == feature,
              "exploration slot ", idx,
              " holds the wrong configuration");
    return r;
}

simpoint::KMeansStats
Exploration::clusterStats() const
{
    simpoint::KMeansStats stats;
    for (const ConfigResult &r : results)
        stats.merge(r.selection.clusterStats);
    return stats;
}

Exploration
exploreConfigs(const TraceDatabase &db,
               const simpoint::ClusterOptions &options,
               uint64_t target_instrs, const FeatureEngine *engine)
{
    sched::ThreadPool &pool = options.pool
        ? *options.pool
        : sched::ThreadPool::global();

    // One feature engine serves every evaluation: dispatch profiles
    // are lowered once (in parallel chunks, on this pool) and
    // projection rows derived once, before the fan-out, instead of
    // 30 times inside it. Each scheme's intervals are likewise built
    // once, alongside the engine, and shared by its ten feature
    // kinds.
    std::optional<FeatureEngine> local;
    std::array<std::vector<Interval>, numIntervalSchemes> schemes;
    pool.parallelFor(
        1 + schemes.size(),
        [&](size_t idx) {
            if (idx == 0) {
                if (!engine)
                    local.emplace(db, &pool);
            } else {
                schemes[idx - 1] = buildIntervals(
                    db, (IntervalScheme)(idx - 1), target_instrs);
            }
        },
        1);
    if (!engine)
        engine = &*local;
    GT_ASSERT(&engine->database() == &db,
              "feature engine built over a different database");

    // All 30 (scheme, feature) evaluations read the same immutable
    // TraceDatabase, FeatureEngine and intervals (const-qualified
    // access only; see their class comments) and write disjoint
    // slots in the paper's enumeration order, so the fan-out is
    // bit-identical to the serial loop.
    constexpr size_t num_configs =
        (size_t)numIntervalSchemes * numFeatureKinds;
    Exploration ex;
    ex.results.resize(num_configs);
    pool.parallelFor(
        num_configs,
        [&](size_t idx) {
            size_t s = idx / numFeatureKinds;
            int f = (int)(idx % numFeatureKinds);
            ConfigResult &r = ex.results[idx];
            r.selection = selectFromIntervals(
                *engine, (IntervalScheme)s, (FeatureKind)f, schemes[s],
                options);
            r.errorPct = selectionErrorPct(db, r.selection);
        },
        1);
    return ex;
}

const ConfigResult &
pickMinError(const Exploration &ex)
{
    GT_ASSERT(!ex.results.empty(), "empty exploration");
    const ConfigResult *best = &ex.results[0];
    for (const ConfigResult &r : ex.results) {
        if (r.errorPct < best->errorPct)
            best = &r;
    }
    return *best;
}

const ConfigResult &
pickCoOptimized(const Exploration &ex, double threshold_pct)
{
    GT_ASSERT(!ex.results.empty(), "empty exploration");
    const ConfigResult *best = nullptr;
    for (const ConfigResult &r : ex.results) {
        if (r.errorPct > threshold_pct)
            continue;
        if (!best ||
            r.selection.selectionFraction() <
                best->selection.selectionFraction()) {
            best = &r;
        }
    }
    return best ? *best : pickMinError(ex);
}

} // namespace gt::core
