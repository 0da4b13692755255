#include "core/features.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.hh"
#include "core/feature_engine.hh"

namespace gt::core
{

const char *
featureKindName(FeatureKind kind)
{
    switch (kind) {
      case FeatureKind::KN: return "KN";
      case FeatureKind::KN_ARGS: return "KN-ARGS";
      case FeatureKind::KN_GWS: return "KN-GWS";
      case FeatureKind::KN_ARGS_GWS: return "KN-ARGS-GWS";
      case FeatureKind::KN_RW: return "KN-RW";
      case FeatureKind::BB: return "BB";
      case FeatureKind::BB_R: return "BB-R";
      case FeatureKind::BB_W: return "BB-W";
      case FeatureKind::BB_R_W: return "BB-R-W";
      case FeatureKind::BB_RpW: return "BB-(R+W)";
      default:
        panic("invalid feature kind ", (int)kind);
    }
}

bool
isBlockFeature(FeatureKind kind)
{
    switch (kind) {
      case FeatureKind::BB:
      case FeatureKind::BB_R:
      case FeatureKind::BB_W:
      case FeatureKind::BB_R_W:
      case FeatureKind::BB_RpW:
        return true;
      default:
        return false;
    }
}

bool
hasMemoryFeature(FeatureKind kind)
{
    switch (kind) {
      case FeatureKind::KN_RW:
      case FeatureKind::BB_R:
      case FeatureKind::BB_W:
      case FeatureKind::BB_R_W:
      case FeatureKind::BB_RpW:
        return true;
      default:
        return false;
    }
}

uint64_t
detail::mixFeatureKey(uint64_t a, uint64_t b, uint64_t c, uint64_t d)
{
    uint64_t h = mixFeatureSeed;
    for (uint64_t x : {a, b, c, d})
        h = mixFeatureRound(h, x);
    return h;
}

void
FeatureVector::add(uint64_t key, double value)
{
    if (value == 0.0)
        return;
    auto it = std::lower_bound(ks.begin(), ks.end(), key);
    if (it != ks.end() && *it == key) {
        vs[(size_t)(it - ks.begin())] += value;
    } else {
        vs.insert(vs.begin() + (it - ks.begin()), value);
        ks.insert(it, key);
    }
}

FeatureVector
FeatureVector::fromSorted(std::vector<uint64_t> keys,
                          std::vector<double> values)
{
    GT_ASSERT(keys.size() == values.size(),
              "feature key/value column length mismatch");
    GT_ASSERT(std::is_sorted(keys.begin(), keys.end()) &&
                  std::adjacent_find(keys.begin(), keys.end()) ==
                      keys.end(),
              "feature keys must be strictly ascending");
    FeatureVector vec;
    vec.ks = std::move(keys);
    vec.vs = std::move(values);
    return vec;
}

double
FeatureVector::l2norm() const
{
    double acc = 0.0;
    for (double v : vs)
        acc += v * v;
    return std::sqrt(acc);
}

double
FeatureVector::sum() const
{
    double acc = 0.0;
    for (double v : vs)
        acc += v;
    return acc;
}

void
FeatureVector::normalize()
{
    double total = sum();
    if (total == 0.0)
        return;
    for (double &v : vs)
        v /= total;
}

double
FeatureVector::dot(const FeatureVector &other) const
{
    // Merge over the two ascending key columns.
    double acc = 0.0;
    size_t ia = 0, ib = 0;
    while (ia < ks.size() && ib < other.ks.size()) {
        if (ks[ia] < other.ks[ib]) {
            ++ia;
        } else if (other.ks[ib] < ks[ia]) {
            ++ib;
        } else {
            acc += vs[ia] * other.vs[ib];
            ++ia;
            ++ib;
        }
    }
    return acc;
}

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

        // Basic-block families.
        for (size_t b = 0; b < p.blockCounts.size(); ++b) {
            uint64_t count = p.blockCounts[b];
            if (count == 0)
                continue;
            double weighted = (double)count * p.blockLens[b];
            add(mixFeatureKey(p.kernelId, b, 0, tagBase), weighted);

            double read =
                (double)count * p.blockReadBytes[b];
            double written =
                (double)count * p.blockWriteBytes[b];
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

FeatureVector
extractFeatures(const TraceDatabase &db, const Interval &interval,
                FeatureKind kind)
{
    FeatureEngine engine(db);
    return engine.extract(interval, kind);
}

std::vector<FeatureVector>
extractAllFeatures(const TraceDatabase &db,
                   const std::vector<Interval> &intervals,
                   FeatureKind kind)
{
    FeatureEngine engine(db);
    return engine.extractAll(intervals, kind);
}

} // namespace gt::core
