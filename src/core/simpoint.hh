/**
 * @file
 * SimPoint-style clustering over interval feature vectors.
 *
 * Reimplements the pipeline of SimPoint 3.0, the tool the paper
 * feeds its feature vectors to: random linear projection of the
 * sparse vectors down to 15 dimensions, weighted k-means (intervals
 * weigh as many instructions as they contain — SimPoint 3.0's
 * variable-length-interval support), BIC-based selection of the
 * cluster count up to a user maximum (10 throughout the paper), and
 * per-cluster representative selection: the interval nearest each
 * centroid, with a representation ratio equal to the cluster's
 * share of total instructions.
 */

#ifndef GT_CORE_SIMPOINT_HH
#define GT_CORE_SIMPOINT_HH

#include <array>

#include "common/rng.hh"
#include "core/features.hh"
#include "sched/thread_pool.hh"

namespace gt::core::simpoint
{

/** Dimensionality after random projection (SimPoint's default 15). */
constexpr int projectedDims = 15;

/** A projected, dense feature point. */
using Point = std::array<double, projectedDims>;

/**
 * Memoized projection coefficients: one precomputed
 * projectedDims-wide row per sparse key. The coefficient is a pure
 * function of (key, dim), so a table built once per workload (over
 * the DispatchFeatureCache's key universe) hands the feature engine's
 * projection its rows without re-deriving a hash per (key, dim) —
 * and the result stays bitwise identical to project().
 */
class ProjectionTable
{
  public:
    /** Build rows for @p keys (must be strictly ascending). */
    static ProjectionTable build(const std::vector<uint64_t> &keys);

    /**
     * Row by rank in the ascending key order the table was built
     * from: the feature engine's column ids are exactly these ranks,
     * so no key search is needed.
     */
    const Point &rowAt(size_t idx) const { return rows[idx]; }

    size_t size() const { return rows.size(); }

  private:
    std::vector<Point> rows; //!< rows[i] is the i-th ascending key's
};

/**
 * Random linear projection of a sparse vector: each sparse key
 * hashes to a deterministic pseudo-random direction, so the
 * projection matrix never needs materializing over the unbounded
 * key space.
 */
Point project(const FeatureVector &vec);

/**
 * Points grouped so that every group holds bitwise-equal rows.
 * Dispatch populations are massively duplicate-heavy (thousands of
 * intervals, often only dozens of distinct feature vectors), and
 * every distance-dependent decision in k-means — the k-way scan, the
 * bounds, the seeding refresh, the distortion term — is a pure
 * function of a point's coordinates, so one computation per group
 * serves all its members with bitwise-identical results.
 *
 * The contract k-means relies on is only that members of one group
 * are bitwise equal. Two groups may hold the same value (a coarser
 * grouping costs repeated work, never different results), and group
 * ids need not follow any order. buildUniqueIndex() produces the
 * finest grouping with value-rank ids; the feature engine's projectAll() hands over the grouping it
 * found while projecting, which may split a value class. Built once
 * per population and shared by every candidate-k run of the BIC
 * sweep.
 */
struct UniqueIndex
{
    std::vector<uint32_t> uid;   //!< per point: its group id
    std::vector<uint32_t> rep;   //!< per group: one member's index
    std::vector<uint32_t> count; //!< per group: member count
};

/**
 * Group the @p n flat projectedDims-wide rows of @p pts by exact
 * value, one group per distinct value. Group ids are ascending-value
 * ranks, so uid and count are pure functions of the point multiset.
 */
UniqueIndex buildUniqueIndex(const double *pts, size_t n);

/**
 * K-means assignment backend: Pruned by default, Lloyd passed
 * explicitly as the reference.
 *
 * Both backends produce bitwise-identical clusterings at every
 * thread count. A run is one serial kernel; parallelism lives across
 * candidate k (clusterPoints) and across configurations
 * (exploreConfigs). The pruned backend keeps Hamerly/Elkan-style
 * per-point bounds — an upper bound on the distance to the assigned
 * centroid, a lower bound on the second-nearest, per-iteration
 * centroid drift, and the half minimum inter-centroid distance per
 * cluster — and skips the k-way distance scan whenever the bounds
 * prove the assignment cannot change. Bound arithmetic is made
 * conservative under floating-point rounding (see simpoint.cc), and
 * whenever pruning fails the point runs the exact Lloyd comparison
 * loop over distances computed four centroids at a time, each lane
 * repeating the Lloyd dist2 expression's exact operation sequence,
 * so every assignment — and everything derived from it — is
 * identical to the Lloyd oracle by construction.
 */
enum class KMeansBackend : uint8_t
{
    Lloyd,  //!< reference oracle: full n x k scan every iteration
    Pruned, //!< triangle-inequality-pruned scan (default)
};

/**
 * Assignment-step work counters. Every point examined by an
 * assignment pass is counted exactly once: a prune skipped its
 * k-way scan (on the cached upper bound, or after tightening the
 * bound with one exact distance), the point shared the scan of a
 * coincident representative (the pruned backend decides once per
 * distinct value), or it ran the full Lloyd scan itself. On the
 * Lloyd backend fullScans == assignSteps and the other counters
 * stay zero.
 */
struct KMeansStats
{
    uint64_t assignSteps = 0;   //!< per-point assignment decisions
    uint64_t boundPrunes = 0;   //!< skipped on the cached bounds
    uint64_t tightenPrunes = 0; //!< skipped after one exact distance
    uint64_t memoHits = 0;      //!< reused a coincident point's scan
    uint64_t fullScans = 0;     //!< ran the exact k-way Lloyd scan

    void merge(const KMeansStats &other);

    /** Fraction of assignment decisions that skipped the k-way scan
     * (0 when no assignment step has run). */
    double pruneRate() const;
};

/** One weighted k-means run at a fixed k (what cluster() repeats per
 * candidate k). Exposed for the differential tests and the
 * clustering bench. */
struct KMeansRun
{
    std::vector<int> assignment;
    std::vector<Point> centroids;
    double distortion = 0.0; //!< weighted sum of squared distances
    /**
     * Per-cluster weight totals, emitted by the same
     * chunk-deterministic reduction that computes the distortion;
     * the BIC score consumes these instead of re-scanning the
     * population.
     */
    std::vector<double> clusterWeight;
    KMeansStats stats;
};

/**
 * Run weighted k-means++ seeding plus at most @p max_iters Lloyd
 * iterations at a fixed @p k (1 <= k <= points.size()) on the
 * calling thread. The @p backend only changes how the assignment
 * step is computed, never its result: both backends return
 * bitwise-identical runs and advance @p rng identically.
 */
KMeansRun kmeansRun(const std::vector<Point> &points,
                    const std::vector<double> &weights, int k,
                    int max_iters, Rng &rng,
                    KMeansBackend backend = KMeansBackend::Pruned);

/** Result of clustering one interval population. */
struct Clustering
{
    int k = 0;
    /** Cluster id per interval. */
    std::vector<int> assignment;
    /** Interval index chosen to represent each cluster. */
    std::vector<uint64_t> representative;
    /**
     * Representation ratio per cluster: the cluster's share of the
     * total weight (instructions), the paper's extrapolation
     * weights.
     */
    std::vector<double> weight;
    /** Bayesian information criterion of the accepted clustering. */
    double bic = 0.0;
    /** Weighted distortion of the accepted clustering. */
    double distortion = 0.0;
    /**
     * Assignment-step work counters merged over every candidate-k
     * run (1..maxK), not just the accepted one — the prune rate of
     * the whole BIC sweep.
     */
    KMeansStats stats;
};

/** Clustering options. */
struct ClusterOptions
{
    int maxK = 10;          //!< the paper's setting throughout
    int maxIters = 30;      //!< k-means iteration cap
    uint64_t seed = 0x5eedULL;
    /**
     * Accept the smallest k whose BIC reaches this fraction of the
     * best BIC's range above the worst (SimPoint's criterion).
     */
    double bicThreshold = 0.9;
    /**
     * Pool the candidate-k runs execute on (null = the process-wide
     * pool); each run is one serial kernel. Results are
     * bit-identical for every pool size: each candidate k draws from
     * Rng::split(k) of the seed stream, and all floating-point
     * reductions combine fixed-size chunks in chunk order.
     */
    sched::ThreadPool *pool = nullptr;
    /**
     * Grouping of exactly the input points into bitwise-equal groups
     * (null = sort the population by value once per call). The
     * feature engine hands over the grouping projectAll() found.
     * Consulted only by the pruned backend; clusterPoints() asserts
     * the size matches.
     */
    const UniqueIndex *uniqueIndex = nullptr;
    /**
     * Assignment-step backend. Changes wall clock only: clusterings
     * are bitwise identical across backends (see KMeansBackend).
     */
    KMeansBackend backend = KMeansBackend::Pruned;
};

/**
 * Cluster @p vectors with instruction-count @p weights and pick
 * representatives. @p weights must be positive and the same length
 * as @p vectors. May return fewer than maxK clusters when BIC says
 * a smaller k explains the population (the paper notes SimPoint
 * "may return fewer than this maximum").
 */
Clustering cluster(const std::vector<FeatureVector> &vectors,
                   const std::vector<double> &weights,
                   const ClusterOptions &options = {});

/**
 * Cluster already-projected points. cluster() is this plus the
 * projection step; callers that can produce points directly (the
 * feature engine projects straight off its columns) skip the
 * intermediate sparse vectors.
 */
Clustering clusterPoints(const std::vector<Point> &points,
                         const std::vector<double> &weights,
                         const ClusterOptions &options = {});

} // namespace gt::core::simpoint

#endif // GT_CORE_SIMPOINT_HH
