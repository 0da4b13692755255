#include "map_features.hh"

#include <array>
#include <cstring>
#include <map>

#include "common/logging.hh"

namespace gt::core::reference
{

FeatureVector
extractFeaturesMap(const TraceDatabase &db, const Interval &interval,
                   FeatureKind kind)
{
    using detail::mixFeatureKey;
    using detail::tagBase;
    using detail::tagRead;
    using detail::tagReadWrite;
    using detail::tagWrite;

    GT_ASSERT(interval.lastDispatch < db.numDispatches(),
              "interval out of range");

    std::map<uint64_t, double> data;
    auto add = [&](uint64_t key, double value) {
        if (value != 0.0)
            data[key] += value;
    };

    for (uint64_t i = interval.firstDispatch;
         i <= interval.lastDispatch; ++i) {
        const gtpin::DispatchProfile &p = db.profileAt(i);

        if (!isBlockFeature(kind)) {
            uint64_t args = 0, gws = 0;
            switch (kind) {
              case FeatureKind::KN_ARGS:
                args = p.argsHash;
                break;
              case FeatureKind::KN_GWS:
                gws = p.globalWorkSize;
                break;
              case FeatureKind::KN_ARGS_GWS:
                args = p.argsHash;
                gws = p.globalWorkSize;
                break;
              default:
                break;
            }
            uint64_t base = mixFeatureKey(p.kernelId, args, gws,
                                          tagBase);
            // Instruction-count weighting: the kernel event counts
            // for the instructions it executed.
            add(base, (double)p.instrs);
            if (kind == FeatureKind::KN_RW) {
                add(mixFeatureKey(p.kernelId, 0, 0, tagRead),
                    (double)p.bytesRead);
                add(mixFeatureKey(p.kernelId, 0, 0, tagWrite),
                    (double)p.bytesWritten);
            }
            continue;
        }

        // Basic-block families; the static per-block values come
        // from the kernel's table row.
        const gtpin::KernelStatic &k = db.kernels().at(p.kernelId);
        for (size_t b = 0; b < p.blockCounts.size(); ++b) {
            uint64_t count = p.blockCounts[b];
            if (count == 0)
                continue;
            double weighted = (double)count * k.blockLens[b];
            add(mixFeatureKey(p.kernelId, b, 0, tagBase), weighted);

            double read = (double)count * k.blockReadBytes[b];
            double written = (double)count * k.blockWriteBytes[b];
            switch (kind) {
              case FeatureKind::BB_R:
                add(mixFeatureKey(p.kernelId, b, 0, tagRead), read);
                break;
              case FeatureKind::BB_W:
                add(mixFeatureKey(p.kernelId, b, 0, tagWrite),
                    written);
                break;
              case FeatureKind::BB_R_W:
                add(mixFeatureKey(p.kernelId, b, 0, tagRead), read);
                add(mixFeatureKey(p.kernelId, b, 0, tagWrite),
                    written);
                break;
              case FeatureKind::BB_RpW:
                add(mixFeatureKey(p.kernelId, b, 0, tagReadWrite),
                    read + written);
                break;
              default:
                break;
            }
        }
    }

    std::vector<uint64_t> keys;
    std::vector<double> values;
    keys.reserve(data.size());
    values.reserve(data.size());
    for (const auto &[key, v] : data) {
        keys.push_back(key);
        values.push_back(v);
    }
    return FeatureVector::fromSorted(std::move(keys),
                                     std::move(values));
}

std::vector<FeatureVector>
extractAllMap(const TraceDatabase &db,
              const std::vector<Interval> &intervals, FeatureKind kind)
{
    std::vector<FeatureVector> vectors;
    vectors.reserve(intervals.size());
    for (const Interval &iv : intervals) {
        FeatureVector vec = extractFeaturesMap(db, iv, kind);
        vec.normalize();
        vectors.push_back(std::move(vec));
    }
    return vectors;
}

std::vector<simpoint::Point>
projectAllMap(const TraceDatabase &db,
              const std::vector<Interval> &intervals, FeatureKind kind,
              simpoint::UniqueIndex *groups)
{
    std::vector<simpoint::Point> points;
    points.reserve(intervals.size());
    for (const FeatureVector &vec : extractAllMap(db, intervals, kind))
        points.push_back(simpoint::project(vec));
    if (groups) {
        std::vector<double> flat(points.size() *
                                 simpoint::projectedDims);
        if (!points.empty()) {
            std::memcpy(flat.data(), points.data(),
                        points.size() * sizeof(simpoint::Point));
        }
        *groups = simpoint::buildUniqueIndex(flat.data(), points.size());
    }
    return points;
}

Exploration
exploreConfigsMap(const TraceDatabase &db,
                  const simpoint::ClusterOptions &options)
{
    sched::ThreadPool &pool = options.pool
        ? *options.pool
        : sched::ThreadPool::global();
    std::array<std::vector<Interval>, numIntervalSchemes> schemes;
    for (int s = 0; s < numIntervalSchemes; ++s)
        schemes[(size_t)s] = buildIntervals(db, (IntervalScheme)s);

    Exploration ex;
    ex.results.resize((size_t)numIntervalSchemes * numFeatureKinds);
    pool.parallelFor(
        ex.results.size(),
        [&](size_t idx) {
            auto scheme = (IntervalScheme)(idx / numFeatureKinds);
            auto kind = (FeatureKind)(idx % numFeatureKinds);
            const std::vector<Interval> &intervals =
                schemes[(size_t)scheme];
            simpoint::UniqueIndex groups;
            std::vector<simpoint::Point> points =
                projectAllMap(db, intervals, kind, &groups);
            simpoint::ClusterOptions grouped = options;
            grouped.uniqueIndex = &groups;
            ConfigResult &r = ex.results[idx];
            r.selection = selectFromProjected(scheme, kind, intervals,
                                              points, db.totalInstrs(),
                                              grouped);
            r.errorPct = selectionErrorPct(db, r.selection);
        },
        1);
    return ex;
}

} // namespace gt::core::reference
