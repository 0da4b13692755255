/**
 * @file
 * Feature-vector construction (the paper's Table III).
 *
 * Each interval is summarized as a sparse (key, value) vector. Keys
 * identify a program event — a kernel, a kernel with specific
 * argument values or global work size, a basic block — and values
 * count the event's dynamic occurrences weighted by instruction
 * count, the weighting Section V-B motivates (a 20-instruction
 * block executed 5 times matters more than a 3-instruction block
 * executed 10 times). The memory-augmented variants add per-key
 * dimensions carrying the bytes read and/or written, so two
 * intervals running the same code on different data volumes
 * separate in feature space.
 *
 * Two extraction backends produce these vectors (see
 * core/feature_engine.hh): the columnar DispatchFeatureCache engine
 * that lowers each dispatch profile once and merges per-dispatch
 * contributions, used by default, and the original per-interval walk
 * into a std::map (extractFeaturesMap), kept as the reference
 * oracle. Both produce bitwise-identical vectors.
 */

#ifndef GT_CORE_FEATURES_HH
#define GT_CORE_FEATURES_HH

#include <cstdint>
#include <vector>

#include "core/interval.hh"

namespace gt::core
{

/** Table III's ten feature-vector types. */
enum class FeatureKind : uint8_t
{
    KN,          //!< kernel
    KN_ARGS,     //!< kernel + argument values
    KN_GWS,      //!< kernel + global work size
    KN_ARGS_GWS, //!< kernel + argument values + global work size
    KN_RW,       //!< kernel, plus bytes-read and bytes-written dims
    BB,          //!< basic block
    BB_R,        //!< basic block, plus bytes-read dims
    BB_W,        //!< basic block, plus bytes-written dims
    BB_R_W,      //!< basic block, plus read and written dims
    BB_RpW,      //!< basic block, plus (read + written) dims
};

constexpr int numFeatureKinds = 10;

/** @return the paper's identifier, e.g. "BB-(R+W)". */
const char *featureKindName(FeatureKind kind);

/** @return true for the five basic-block-based kinds. */
bool isBlockFeature(FeatureKind kind);

/** @return true for the kinds with memory-traffic dimensions. */
bool hasMemoryFeature(FeatureKind kind);

namespace detail
{

/** Initial state of mixFeatureKey(). */
constexpr uint64_t mixFeatureSeed = 0x9e3779b97f4a7c15ULL;

/** One round of mixFeatureKey(): fold @p x into state @p h. */
inline uint64_t
mixFeatureRound(uint64_t h, uint64_t x)
{
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
    return h ^ (h >> 33);
}

/** Stable 64-bit mixing of event-identity components: one round
 * per component from mixFeatureSeed, so a caller keying several
 * tags onto one (a, b, c) may share the first three rounds. */
uint64_t mixFeatureKey(uint64_t a, uint64_t b, uint64_t c = 0,
                       uint64_t d = 0);

// Tag values distinguishing the dimension families within a key.
constexpr uint64_t tagBase = 1;
constexpr uint64_t tagRead = 2;
constexpr uint64_t tagWrite = 3;
constexpr uint64_t tagReadWrite = 4;

} // namespace detail

/**
 * A sparse feature vector. Keys are stable 64-bit identities of
 * program events; values are instruction-count-weighted occurrence
 * counts (or byte volumes for memory dimensions).
 *
 * Representation: structure-of-arrays, keys ascending — keys()[i]
 * pairs with values()[i]. Every operation iterates in ascending-key
 * order, the same order the historical std::map representation
 * iterated in, so sums, norms, and dot products are bitwise
 * identical to that reference. add() accumulates per key in call
 * order, matching the map's per-key `operator[] +=` semantics.
 */
class FeatureVector
{
  public:
    /** Accumulate @p value into @p key (zero values are dropped,
     * matching the historical map behavior). */
    void add(uint64_t key, double value);

    double l2norm() const;

    /** Scale so entries sum to 1 (no-op on an all-zero vector). */
    void normalize();

    double
    dot(const FeatureVector &other) const;

    const std::vector<uint64_t> &keys() const { return ks; }
    const std::vector<double> &values() const { return vs; }

    size_t dims() const { return ks.size(); }

    double sum() const;

    bool operator==(const FeatureVector &other) const = default;

    /**
     * Bulk construction from pre-merged columns. @p keys must be
     * strictly ascending and pair index-wise with @p values; this is
     * the fast path the DispatchFeatureCache and the map oracle
     * (whose std::map already iterates ascending) both use.
     */
    static FeatureVector fromSorted(std::vector<uint64_t> keys,
                                    std::vector<double> values);

  private:
    std::vector<uint64_t> ks;
    std::vector<double> vs;
};

/**
 * Extract the @p kind feature vector of @p interval with the flat
 * backend. One-shot convenience: it lowers the whole database per
 * call, so loops over many intervals should use a core::FeatureEngine
 * (or extractAllFeatures) instead.
 */
FeatureVector extractFeatures(const TraceDatabase &db,
                              const Interval &interval,
                              FeatureKind kind);

/**
 * Reference oracle: walk the interval's dispatch profiles into an
 * ordered map, exactly as the original implementation did. The flat
 * engine is differentially tested against this path
 * (tests/test_feature_engine.cc).
 */
FeatureVector extractFeaturesMap(const TraceDatabase &db,
                                 const Interval &interval,
                                 FeatureKind kind);

/** Extract vectors for all intervals (normalized), sharing one
 * engine across the loop. */
std::vector<FeatureVector>
extractAllFeatures(const TraceDatabase &db,
                   const std::vector<Interval> &intervals,
                   FeatureKind kind);

} // namespace gt::core

#endif // GT_CORE_FEATURES_HH
