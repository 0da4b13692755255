#include "core/selection.hh"

#include <cmath>
#include <optional>

#include "common/logging.hh"
#include "core/feature_engine.hh"

namespace gt::core
{

double
SubsetSelection::selectionFraction() const
{
    GT_ASSERT(totalInstrs > 0, "selection over empty program");
    return (double)selectedInstrs / (double)totalInstrs;
}

double
SubsetSelection::speedup() const
{
    double fraction = selectionFraction();
    GT_ASSERT(fraction > 0.0, "empty selection has no speedup");
    return 1.0 / fraction;
}

SubsetSelection
selectSubset(const TraceDatabase &db, IntervalScheme scheme,
             FeatureKind feature,
             const simpoint::ClusterOptions &options,
             uint64_t target_instrs, const FeatureEngine *engine)
{
    std::optional<FeatureEngine> local;
    if (!engine) {
        local.emplace(db, options.pool);
        engine = &*local;
    }
    GT_ASSERT(&engine->database() == &db,
              "feature engine built over a different database");
    return selectFromIntervals(*engine, scheme, feature,
                               buildIntervals(db, scheme, target_instrs),
                               options);
}

SubsetSelection
selectFromIntervals(const FeatureEngine &engine, IntervalScheme scheme,
                    FeatureKind feature,
                    std::vector<Interval> intervals,
                    const simpoint::ClusterOptions &options)
{
    // The engine projects straight off its columns; the clusterer
    // never sees the sparse vectors, and reuses the projection's
    // grouping of coincident intervals.
    simpoint::UniqueIndex groups;
    std::vector<simpoint::Point> points =
        engine.projectAll(intervals, feature, &groups);
    simpoint::ClusterOptions grouped = options;
    grouped.uniqueIndex = &groups;
    return selectFromProjected(scheme, feature, std::move(intervals),
                               points, engine.database().totalInstrs(),
                               grouped);
}

SubsetSelection
selectFromProjected(IntervalScheme scheme, FeatureKind feature,
                    std::vector<Interval> intervals,
                    const std::vector<simpoint::Point> &points,
                    uint64_t total_instrs,
                    const simpoint::ClusterOptions &options)
{
    GT_ASSERT(intervals.size() == points.size(),
              "one projected point per interval, got ",
              points.size(), " points for ", intervals.size(),
              " intervals");

    SubsetSelection sel;
    sel.scheme = scheme;
    sel.feature = feature;
    sel.intervals = std::move(intervals);

    std::vector<double> weights;
    weights.reserve(sel.intervals.size());
    for (const Interval &iv : sel.intervals)
        weights.push_back(std::max<double>(1.0, (double)iv.instrs));

    simpoint::Clustering clustering =
        simpoint::clusterPoints(points, weights, options);

    sel.selected = clustering.representative;
    sel.ratios = clustering.weight;
    sel.clusterStats = clustering.stats;
    sel.totalInstrs = total_instrs;
    for (uint64_t idx : sel.selected)
        sel.selectedInstrs += sel.intervals[idx].instrs;
    return sel;
}

namespace
{

/** Re-evaluate one interval's instrs/seconds on (possibly) another
 * trial's database. */
void
intervalOn(const TraceDatabase &db, const Interval &iv,
           uint64_t &instrs, double &seconds)
{
    GT_ASSERT(iv.lastDispatch < db.numDispatches(),
              "selection does not fit this trial's trace (",
              db.numDispatches(), " dispatches)");
    instrs = db.rangeInstrs(iv.firstDispatch, iv.lastDispatch);
    seconds = db.rangeSeconds(iv.firstDispatch, iv.lastDispatch);
}

} // anonymous namespace

double
projectedSpi(const TraceDatabase &db, const SubsetSelection &sel)
{
    GT_ASSERT(!sel.selected.empty(), "projection from empty selection");
    GT_ASSERT(sel.selected.size() == sel.ratios.size(),
              "selection/ratio size mismatch");
    double spi = 0.0;
    for (size_t c = 0; c < sel.selected.size(); ++c) {
        const Interval &iv = sel.intervals[sel.selected[c]];
        uint64_t instrs;
        double seconds;
        intervalOn(db, iv, instrs, seconds);
        GT_ASSERT(instrs > 0, "selected interval has no instructions");
        spi += sel.ratios[c] * (seconds / (double)instrs);
    }
    return spi;
}

double
selectionErrorPct(const TraceDatabase &db, const SubsetSelection &sel)
{
    double measured = db.measuredSpi();
    double projected = projectedSpi(db, sel);
    return std::abs(measured - projected) / measured * 100.0;
}

} // namespace gt::core
