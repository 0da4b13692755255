/**
 * @file
 * Test-only reference for the feature engine.
 *
 * This is the straightforward form of feature extraction: each
 * interval's dispatch profiles are walked into an ordered std::map,
 * the vector is normalized, and simpoint::project() derives every
 * coefficient from its key on the fly. The library's FeatureEngine
 * lowers each profile once into columns, memoizes the projection
 * rows and projects each distinct interval once; the differential
 * tests in test_feature_engine.cc and bench/feature_engine require
 * both to agree bit for bit. Neither gt_core nor gt_serve links this
 * library.
 */

#ifndef GT_TESTS_REFERENCE_MAP_FEATURES_HH
#define GT_TESTS_REFERENCE_MAP_FEATURES_HH

#include <vector>

#include "core/explorer.hh"

namespace gt::core::reference
{

/** Walk @p interval's dispatch profiles into an ordered map and
 * return its @p kind vector (unnormalized). */
FeatureVector extractFeaturesMap(const TraceDatabase &db,
                                 const Interval &interval,
                                 FeatureKind kind);

/** extractFeaturesMap() of every interval, each normalized. */
std::vector<FeatureVector>
extractAllMap(const TraceDatabase &db,
              const std::vector<Interval> &intervals, FeatureKind kind);

/**
 * The reference projection path: extract, normalize and
 * simpoint::project() every interval.
 *
 * @param groups if given, receives simpoint::buildUniqueIndex over
 *        the points (the grouping by value).
 */
std::vector<simpoint::Point>
projectAllMap(const TraceDatabase &db,
              const std::vector<Interval> &intervals, FeatureKind kind,
              simpoint::UniqueIndex *groups = nullptr);

/** exploreConfigs() with every configuration's points from
 * projectAllMap(), grouped by value for the clusterer. */
Exploration exploreConfigsMap(const TraceDatabase &db,
                              const simpoint::ClusterOptions &options = {});

} // namespace gt::core::reference

#endif // GT_TESTS_REFERENCE_MAP_FEATURES_HH
