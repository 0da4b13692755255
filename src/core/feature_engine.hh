/**
 * @file
 * The columnar feature engine: one lowering of a workload's dispatch
 * profiles serves every feature extraction and projection.
 *
 * The paper's headline claim is that subset selection needs no
 * simulation in the loop — its cost is building 3 interval schemes x
 * 10 feature-vector types from one profiling run. The original path
 * re-walked every dispatch profile (including the full basic-block
 * arrays) into a std::map once per interval per configuration, i.e.
 * 30 full passes over the database, and re-derived every random
 * projection coefficient by hashing per (key, dim). This engine
 * removes both redundancies:
 *
 *  - DispatchFeatureCache lowers each DispatchProfile into per-
 *    component sparse contribution columns. The kernel-identity
 *    streams are CSR over dispatches; the block streams are CSR over
 *    *distinct block rows*, because a workload repeats the same
 *    (kernel, blockCounts) work thousands of times: each dispatch
 *    carries a row id, and a row identical to an earlier one (same
 *    lowered keys and value bits, compared in full) is stored once
 *    and interns nothing. The block-family kinds share their base
 *    columns — BB, BB-R, BB-W, BB-R-W, and BB-(R+W) all read the
 *    same lowered base stream and add only their memory stream on
 *    top — so extracting a vector is an ascending-key merge of a
 *    dispatch range's precomputed columns, not a re-walk of raw
 *    profiles.
 *  - projectAll() projects each distinct interval once: intervals
 *    whose per-dispatch contributions (block row ids, or the kernel
 *    streams' entries) are the same sequence get the same point by
 *    construction, so later ones copy it. The grouping it finds on
 *    the way is handed to the clusterer (simpoint::UniqueIndex), so
 *    k-means need not sort the population to find coincident points.
 *  - The batch build lowers the database in chunks aligned to the
 *    trace store's blocks, in parallel, and merges the chunk caches
 *    in chunk order (see the batch constructor).
 *  - simpoint::ProjectionTable memoizes each unique key's
 *    coefficient row, built once from the cache's key universe.
 *
 * Sharing contract with the scheduler fan-out: a fully constructed
 * FeatureEngine is immutable; extract()/extractAll() are const, keep
 * all mutable scratch on the caller's stack, and may therefore be
 * called concurrently from any number of exploreConfigs tasks — the
 * 30-configuration explorer builds one engine up front and hands it
 * to every task.
 *
 * Determinism: results are bitwise identical to a per-interval walk
 * of the profiles into a std::map, the reference the differential
 * tests keep outside the library (tests/reference). Per key,
 * contributions accumulate in dispatch-encounter order — the same
 * order the map's `operator[] +=` applies them — and the final
 * columns iterate in ascending-key order, the map's iteration order.
 */

#ifndef GT_CORE_FEATURE_ENGINE_HH
#define GT_CORE_FEATURE_ENGINE_HH

#include <array>
#include <span>
#include <unordered_map>

#include "core/simpoint.hh"

namespace gt::core
{

/**
 * Per-workload lowering of every DispatchProfile into sparse
 * feature-contribution columns. Immutable once built; see the file
 * comment for the sharing and determinism contracts.
 */
class DispatchFeatureCache
{
  public:
    /** Empty cache for streaming construction: appendDispatch() one
     * dispatch at a time, refreshColumns() before querying. */
    DispatchFeatureCache() = default;

    /**
     * Batch construction on @p pool (null = the process-wide pool).
     * The database is cut into chunks of whole trace-store blocks
     * (trace_store::defaultBlockSize dispatches each), about two per
     * worker; each chunk is lowered into a chunk-local cache by
     * appendDispatch(), in parallel, and the chunk caches are merged
     * in chunk order (appendCache()) and the columns refreshed once. Merging in
     * order reproduces the streaming build exactly — the same
     * interim ids, block rows, streams and dedup index, member for
     * member (operator==) — so the two forms are bitwise identical
     * by construction.
     */
    explicit DispatchFeatureCache(const TraceDatabase &db,
                                  sched::ThreadPool *pool = nullptr);

    /** Member-for-member equality: the differential tests compare a
     * batch-built cache with a streaming one through this. */
    bool operator==(const DispatchFeatureCache &) const = default;

    /**
     * Lower one dispatch profile into the contribution streams.
     * Dispatches must arrive in order (dispatch d is the d-th call).
     * Interning assigns interim column ids in first-encounter order;
     * queries read them through a rank indirection refreshed by
     * refreshColumns(), so appending never rewrites lowered streams.
     */
    void appendDispatch(const gtpin::DispatchProfile &profile,
                        const gtpin::KernelTable &kernels);

    /**
     * Recompute the ascending-key column order after a batch of
     * appends. Cheap no-op when no new key was interned. Queries
     * (extract / projectInto) require fresh ranks; the service calls
     * this once per refresh, not per dispatch.
     *
     * Ranks shift as the key universe grows, but an interval's
     * extracted vector and projected point depend only on its own
     * dispatches' *keys*, whose projection rows are pure per-key
     * functions — so points computed before a refresh stay bitwise
     * valid after it. That invariant is what lets the incremental
     * selection path cache prefix points across refreshes.
     */
    void refreshColumns();

    /** All distinct feature keys of the workload, ascending. */
    const std::vector<uint64_t> &uniqueKeys() const { return colKeys; }

    size_t numKeys() const { return colKeys.size(); }

    /** Approximate resident bytes of the lowered streams and intern
     * tables — what session eviction reclaims (deterministic element
     * sums, not allocator truth). */
    uint64_t memoryBytes() const;

    /**
     * Reusable per-caller accumulation state for extract(). One
     * Scratch may be reused across many extract() calls (that is the
     * point) but never shared between concurrent callers.
     */
    struct Scratch
    {
        std::vector<double> acc;
        std::vector<uint32_t> epoch;
        std::vector<uint32_t> touched;
        uint32_t generation = 0;
    };

    /** Merge the lowered contributions of @p interval's dispatch
     * range into one @p kind feature vector. */
    FeatureVector extract(const Interval &interval, FeatureKind kind,
                          Scratch &scratch) const;

    /**
     * Normalize-and-project @p interval's @p kind vector straight
     * off the accumulation columns: column ranks index rows of
     * @p table (built over uniqueKeys()), so each dimension's
     * coefficient row is a direct index — no per-key search, no
     * intermediate FeatureVector. Bitwise identical to extract() +
     * normalize() + simpoint::project().
     */
    simpoint::Point
    projectInto(const Interval &interval, FeatureKind kind,
                Scratch &scratch,
                const simpoint::ProjectionTable &table) const;

    /**
     * projectInto() over every interval, projecting each distinct
     * interval once: an interval whose contribution sequence (see
     * sameContributions()) equals an earlier one's copies that
     * point, which is the bits projectInto() would produce since the
     * accumulation order, touched set and FP sequence are the same.
     * Candidates are found by hash and always confirmed in full.
     *
     * @param groups if given, receives that grouping: intervals with
     *        the same contribution sequence share a group (numbered
     *        in first-appearance order), so every group holds
     *        bitwise-equal points, as simpoint::UniqueIndex requires.
     *        Intervals with different sequences but equal points
     *        land in different groups.
     */
    std::vector<simpoint::Point>
    projectAll(std::span<const Interval> intervals, FeatureKind kind,
               const simpoint::ProjectionTable &table,
               simpoint::UniqueIndex *groups = nullptr) const;

    /** Distinct block rows lowered so far (<= dispatches). */
    size_t numBlockRows() const
    {
        return streams[bbBase].offsets.size() - 1;
    }

  private:
    /** The nine lowered contribution streams. The four KN base
     * streams differ only in which identity components are mixed
     * into the key; KN-RW layers knRw over knBase, and the five
     * block kinds all layer over the shared bbBase. */
    enum StreamId : int
    {
        knBase,
        knArgsBase,
        knGwsBase,
        knArgsGwsBase,
        knRw,
        bbBase,
        bbRead,
        bbWrite,
        bbReadWrite,
        numStreams,
    };

    /** One contribution stream: CSR over rows. A kernel stream has
     * one row per dispatch; a block stream has one row per distinct
     * block row, indexed through blockRowOf. Column ids are interim
     * intern ids (first-encounter order, append-stable); rankOf maps
     * them to ascending-key ranks at query time, so ascending rank
     * order equals ascending key order. */
    struct Stream
    {
        std::vector<uint64_t> offsets = {0}; //!< numRows + 1
        std::vector<uint32_t> cols;
        std::vector<double> values;

        bool operator==(const Stream &) const = default;
    };

    static bool isBlockStream(StreamId id) { return id >= bbBase; }

    /** Row of @p stream that holds dispatch @p d's contributions. */
    uint64_t rowOf(StreamId stream, uint64_t d) const
    {
        return isBlockStream(stream) ? blockRowOf[d] : d;
    }

    /** The streams @p kind merges, in the oracle's per-dispatch
     * emission order (base first, then memory dims). */
    static std::array<StreamId, 3> streamsFor(FeatureKind kind,
                                              int &count);

    /** Shared accumulate step of extract()/projectInto(): fill
     * @p scratch with @p interval's per-column sums, touched columns
     * sorted ascending. */
    void accumulate(const Interval &interval, FeatureKind kind,
                    Scratch &scratch) const;

    /** Interim column id of @p key, assigned on first encounter. */
    uint32_t intern(uint64_t key);

    /** Lower @p p's block streams (static values from @p kernel, its
     * kernel's table row) into a new distinct row, or find the
     * identical earlier row; @return its row id. */
    uint32_t blockRow(const gtpin::DispatchProfile &p,
                      const gtpin::KernelStatic &kernel);

    /** The block-row dedup step shared by blockRow() and
     * appendCache(): among the rows whose content hash is @p hash,
     * @return the one @p same accepts, else call @p append to push a
     * new row's entries and @return the new row's id. */
    template <typename Same, typename Append>
    uint32_t findOrAddRow(uint64_t hash, Same &&same, Append &&append);

    /**
     * Append every dispatch of @p part, a cache lowered from the
     * dispatches that follow this one's, as if each had gone through
     * appendDispatch() here: intern the part's keys in its interim-id
     * order, dedup each of its block rows against this cache's rows,
     * then append its kernel streams and row ids with columns and
     * rows remapped.
     *
     * Why the ids come out identical: a block row new to this cache
     * is also new within @p part, so the part's first-encounter key
     * order lists every key new to this cache in the order the
     * streaming build would meet it; the part's other rows repeat
     * rows this cache already holds, whose keys are all interned.
     * Rows new to this cache are likewise appended in the part's row
     * order, which is their first-appearance order.
     */
    void appendCache(const DispatchFeatureCache &part);

    /** Whether block row @p row holds exactly @p p's lowered block
     * contributions: the same keys and value bits, entry for entry,
     * in every block stream. */
    bool sameBlockRow(uint32_t row, const gtpin::DispatchProfile &p,
                      const gtpin::KernelStatic &kernel) const;

    /** Hash of @p interval's contribution sequence for @p kind:
     * consistent with sameContributions(). */
    uint64_t contributionHash(const Interval &interval,
                              FeatureKind kind) const;

    /** Whether @p a and @p b feed @p kind the same contributions in
     * the same order: per dispatch, the same block row, or the same
     * kernel-stream entries (columns and value bits). */
    bool sameContributions(const Interval &a, const Interval &b,
                           FeatureKind kind) const;

    std::array<Stream, numStreams> streams;
    std::vector<uint32_t> blockRowOf; //!< dispatch -> block row
    /** Block-row dedup index: content hash -> newest row with that
     * hash; rowNextSameHash chains to older rows of the same hash. */
    std::unordered_map<uint64_t, uint32_t> rowByHash;
    std::vector<uint32_t> rowNextSameHash;
    std::unordered_map<uint64_t, uint32_t> idOf; //!< key -> interim id
    std::vector<uint64_t> internKeys; //!< key per interim id
    std::vector<uint32_t> rankOf;     //!< interim id -> key rank
    std::vector<uint64_t> colKeys;    //!< ascending
    uint64_t numDispatches = 0;
    bool ranksStale = false;
};

/**
 * Facade the selection pipeline extracts features through: binds a
 * TraceDatabase to its lowered cache and memoized projection table.
 * Build one per workload and share it (const) across tasks.
 */
class FeatureEngine
{
  public:
    /** Build the cache on @p pool (null = the process-wide pool; see
     * DispatchFeatureCache's batch constructor). */
    explicit FeatureEngine(const TraceDatabase &db,
                           sched::ThreadPool *pool = nullptr);

    const TraceDatabase &database() const { return db; }

    /** Extract one interval's @p kind vector (unnormalized). */
    FeatureVector extract(const Interval &interval,
                          FeatureKind kind) const;

    /** Extract vectors for all intervals (normalized), reusing one
     * merge scratch across the loop. */
    std::vector<FeatureVector>
    extractAll(const std::vector<Interval> &intervals,
               FeatureKind kind) const;

    /**
     * Projected points of all intervals' normalized @p kind vectors
     * — what the clusterer actually consumes. Each distinct interval
     * is projected once, straight off the columns (see
     * DispatchFeatureCache::projectAll), bitwise identical to
     * extracting, normalizing and simpoint::project()ing it.
     *
     * @param groups if given, receives the projection's grouping of
     *        the points into bitwise-equal groups for the clusterer.
     */
    std::vector<simpoint::Point>
    projectAll(const std::vector<Interval> &intervals,
               FeatureKind kind,
               simpoint::UniqueIndex *groups = nullptr) const;

  private:
    const TraceDatabase &db;
    DispatchFeatureCache cache;
    simpoint::ProjectionTable table; //!< over cache.uniqueKeys()
};

} // namespace gt::core

#endif // GT_CORE_FEATURE_ENGINE_HH
