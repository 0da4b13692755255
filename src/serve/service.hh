/**
 * @file
 * Streaming multi-tenant profiling service.
 *
 * The paper's pipeline is batch-shaped: profile one application,
 * build its database, divide intervals, extract features, cluster,
 * select. This service turns that pipeline into a long-running
 * facility the way GT-Pin is deployed inside a design team: N
 * tenants (users, CI jobs, sweep drivers) each submit recorded API
 * streams (cfl::Recording), the service replays each distinct
 * recording once on a driver stack over one shared thread pool, and
 * each workload's intervals, feature columns, and subset selections
 * are maintained *incrementally* as replay outcomes are fed in — a
 * refresh() at any moment answers with selections bitwise identical
 * to a one-shot selectSubset() over everything fed so far.
 *
 * Cross-tenant sharing is content-addressed and immutable:
 *
 *  - gpu::SharedPlanCache — kernel execution plans (decoded uop
 *    programs, block cycle tables, block summaries) keyed on
 *    isa::contentHash, shared by every tenant driver;
 *  - the replay-artifact cache here — core::ReplayArtifact outcomes
 *    (call stream, dispatch profiles, timings, epochs) keyed on
 *    cfl::recordingContentHash. The cache is single-flight: an entry
 *    is pending while its first submitter replays it, and identical
 *    submits arriving meanwhile attach to it instead of replaying
 *    again; once complete, later submits take the cached artifact
 *    without re-executing kernels. On a single-core host this dedup,
 *    not thread parallelism, is what makes aggregate throughput
 *    scale with tenant count (bench/service_throughput gates it).
 *
 * All caches follow the repo's "fully built => const, shareable"
 * contract: artifacts are published only once complete, never
 * mutated afterwards, and lookups hand out shared_ptr<const> (or
 * stable const references) safe to read from any thread.
 *
 * Incremental selection refresh reuses three invariants, each pinned
 * by differential tests:
 *
 *  1. closed intervals are final (core::IncrementalIntervals), so
 *     per-interval projected points for the completed prefix never
 *     change;
 *  2. projection rows are pure per-key
 *     (simpoint::ProjectionTable::build-with-reuse), so cached
 *     prefix points stay bitwise valid as the key universe grows;
 *  3. the unique-value index is a pure function of the point
 *     multiset (simpoint::extendUniqueIndex), so the pruned k-means
 *     index extends instead of re-sorting.
 *
 * A population is re-clustered only when its workload gained
 * dispatches since the last refresh; untouched configurations are
 * answered from the memoized selection.
 *
 * Both caches are sized to the service's traffic — one submitting
 * thread plus the pool's workers — so each is one mutex over one
 * map, with exact counters; replays need no admission cap of their
 * own, because they run on the one shared pool (see
 * sched/thread_pool.hh).
 *
 * These mechanisms keep a long-running service small and fast:
 *
 *  - **Artifact-backed sessions.** A session fed one whole replay
 *    artifact — the first submitter, attached waiters, warm hits —
 *    keeps a shared_ptr to the cached artifact and its SelectionMemo
 *    instead of joining the rows (WorkloadSession::addArtifact). It
 *    derives its builder, feature and interval state from the
 *    artifact only when it must recluster (its memo slot is empty),
 *    take later rows, or seal a database; later rows then drop the
 *    artifact and the memo. The artifact cache already holds and
 *    counts those rows, so a warm submit joins nothing and the
 *    session costs its residue until it must cluster.
 *  - **Session eviction.** A drained workload's session is
 *    *evicted* (LRU order) while resident session bytes exceed the
 *    one budget, ServiceConfig::maxResidentBytes: selections are
 *    memoized and the builder, feature cache, and interval state are
 *    dropped. A session backed by an artifact writes nothing: its
 *    rows stay in the artifact cache. Any other session first writes
 *    its joined rows to a named columnar archive file under a small
 *    catalog (serve/archive.hh). While evicted, refresh() and
 *    selection() answer from the memo at near-zero cost; late rows
 *    (or a non-memo refresh) *rehydrate* the session by deriving its
 *    state again from the artifact or by re-feeding the archived
 *    rows, after which every selection is bitwise identical to a
 *    never-evicted session's (the eviction differential tests pin
 *    this across budgets).
 *  - **Warm admission.** A submit() whose recording content hash
 *    already has a complete replay artifact skips replay scheduling
 *    entirely: the new session takes the cached artifact and its
 *    memo on the calling thread — one lock, no pool hop, no row
 *    copied. What is left of a warm submission is the content hash,
 *    a word-at-a-time fold (cfl::recordingContentHash), and the
 *    byte-budget check; the warm-vs-cold latency gate in
 *    bench/service_throughput measures it.
 *  - **One clustering per (artifact, configuration).** A selection
 *    is a pure function of the rows and the fixed configuration, so
 *    each artifact entry owns a write-once SelectionMemo: one
 *    selection per ServiceConfig::selections entry over exactly that
 *    artifact's rows. A session adopts the memo only when it is
 *    filled from empty with that one artifact. While its rows are
 *    exactly the artifact's, refresh() — and the refresh inside
 *    evict() — copies each published selection instead of running
 *    k-means (SessionStats::sharedSelections counts these), and the
 *    one session that finds a slot empty derives its state,
 *    clusters under the memo lock and publishes the slot. Rows added
 *    later drop the memo, and the session re-clusters through the
 *    normal incremental path, whose cached points and unique index
 *    start from empty. Lock order is
 *    session, then memo. The memos live in one service (no
 *    process-wide cache) and ServiceFootprint::selectionMemoBytes
 *    counts each once.
 *  - **Budget after refresh.** refresh() grows a session (points,
 *    unique index, projection table), so refreshAll() enforces the
 *    byte budget again once every session is refreshed.
 */

#ifndef GT_SERVE_SERVICE_HH
#define GT_SERVE_SERVICE_HH

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>

#include "cfl/recorder.hh"
#include "cfl/tracer.hh"
#include "core/feature_engine.hh"
#include "core/interval.hh"
#include "core/selection.hh"
#include "core/trace_db.hh"
#include "gpu/plan_cache.hh"
#include "ocl/driver.hh"
#include "sched/thread_pool.hh"
#include "serve/archive.hh"

namespace gt::serve
{

/** One (interval scheme, feature kind) selection configuration a
 * session keeps refreshed. */
struct SelectionConfig
{
    core::IntervalScheme scheme = core::IntervalScheme::SyncBounded;
    core::FeatureKind feature = core::FeatureKind::BB;
};

/** Service-wide configuration, fixed at construction. */
struct ServiceConfig
{
    gpu::DeviceConfig device = gpu::DeviceConfig::hd4000();
    gpu::TrialConfig trial = {};

    /** Selections maintained per workload (default: the paper's BB
     * feature under all three interval schemes). */
    std::vector<SelectionConfig> selections = {
        {core::IntervalScheme::SyncBounded, core::FeatureKind::BB},
        {core::IntervalScheme::ApproxInstructions,
         core::FeatureKind::BB},
        {core::IntervalScheme::SingleKernel, core::FeatureKind::BB},
    };

    /** Clustering options shared by every refresh; the service
     * threads its own pool and unique index through per call. */
    core::simpoint::ClusterOptions cluster = {};

    /** ApproxInstructions chunk size (0 = derive from the final
     * total, see buildIntervals()). */
    uint64_t targetInstrs = 0;

    /** Shared pool for replays and refresh clustering (null = the
     * process-wide pool). Every tenant replay runs on it; there are
     * no per-tenant pools. */
    sched::ThreadPool *pool = nullptr;

    /**
     * Resident-byte budget over the summed per-session state
     * (builders, feature caches, interval/point state — see
     * WorkloadSession::memoryBytes). Exceeding it evicts drained
     * sessions LRU-first until back under. UINT64_MAX = unbounded;
     * 0 = evict every session the moment it drains (a resident
     * session's memoryBytes() is never 0).
     */
    uint64_t maxResidentBytes = UINT64_MAX;

    /** Directory for session archives and their catalog. Empty =
     * GT_SERVE_ARCHIVE_DIR, else TMPDIR (or /tmp) +
     * "/gt-serve-<pid>". Created on first eviction; only sessions
     * not backed by a replay artifact write files into it. */
    std::string archiveDir;
};

/** Per-session work counters (monotone; see stats()). */
struct SessionStats
{
    uint64_t dispatches = 0;       //!< rows fed into the session
    uint64_t refreshes = 0;        //!< refresh() calls
    uint64_t reclustered = 0;      //!< config refreshes that ran k-means
    uint64_t reusedSelections = 0; //!< answered from the memo
    /** Config refreshes answered from the artifact's SelectionMemo
     * (no k-means, no points). */
    uint64_t sharedSelections = 0;
    uint64_t reusedPoints = 0;     //!< cached prefix points kept
    uint64_t projectedPoints = 0;  //!< points (re)computed
    uint64_t evictions = 0;        //!< sessions evicted, archived or not
    uint64_t rehydrations = 0;     //!< evicted sessions made resident
};

/**
 * Write-once selections of one replay artifact (see "One clustering
 * per (artifact, configuration)" in the file comment): slot c is
 * the selection of ServiceConfig::selections[c] over exactly the
 * artifact's rows, empty until the first session that clusters it
 * publishes it. Sessions lock their own mutex before this one,
 * never the reverse.
 */
struct SelectionMemo
{
    explicit SelectionMemo(size_t configs) : slots(configs) {}

    /** Held while a slot is read, or clustered and filled. */
    std::mutex mu;
    std::vector<std::optional<core::SubsetSelection>> slots;
    /** Approximate bytes of the filled slots (read without mu). */
    std::atomic<uint64_t> bytes{0};
};

/**
 * Per-(tenant, workload) incremental selection state: a
 * TraceDatabase::Builder, the flat feature columns, one
 * IncrementalIntervals per configured scheme, and the memoized
 * refresh artifacts (points, unique index, projection table,
 * selection). A session fed one whole replay artifact
 * (addArtifact) holds the artifact instead and derives that state
 * from it only when needed. Thread-safe: every method locks the
 * session, so the service's replay task may feed while another
 * thread refreshes or reads selections.
 */
class WorkloadSession
{
  public:
    WorkloadSession(std::string workload_name,
                    const ServiceConfig &config,
                    sched::ThreadPool &pool);

    /**
     * Feed epoch-assigned rows — profile i, timing i, and epochs[i]
     * (the (seq, epoch) pair of profile i, see core::assignEpochs) —
     * in dispatch order: joins the builder, lowers the feature
     * columns, and advances every interval scheme, under one session
     * lock for the whole batch. @p kernels is the table the profiles'
     * kernelIds index; the session shares it rather than copying
     * each kernel's static arrays, and every feed of one session
     * passes the same (or an equal) table. Any split of the same
     * rows into consecutive calls yields bitwise identical session
     * state. A session backed by an artifact (addArtifact) first
     * derives its state from it, then drops the artifact and its
     * SelectionMemo, since its rows now differ from the artifact's.
     */
    void addDispatches(
        const std::shared_ptr<const gtpin::KernelTable> &kernels,
        std::span<const gtpin::DispatchProfile> profiles,
        std::span<const cfl::KernelTiming> timings,
        std::span<const std::pair<uint64_t, uint64_t>> epochs);

    /**
     * Feed every row of one replay artifact, the service's feed. An
     * empty session keeps @p artifact and adopts @p memo (the
     * artifact's SelectionMemo) without joining a row: its builder,
     * feature and interval state is derived from the artifact, by
     * the same per-row join addDispatches() runs, only when a
     * refresh must recluster, later rows arrive, or sealDatabase()
     * is called. A session that already holds rows appends the
     * artifact's like addDispatches(), ignoring @p memo. Either way
     * the session state, once derived, is bitwise identical to one
     * fed the same rows through addDispatches().
     */
    void addArtifact(std::shared_ptr<const core::ReplayArtifact> artifact,
                     std::shared_ptr<SelectionMemo> memo);

    /**
     * Drop the builder records, feature columns, and interval/point
     * state — everything except the memoized selections (refreshed
     * here first, so an evicted session answers refresh()/selection()
     * from the memo). A session backed by an artifact writes nothing:
     * the artifact keeps its rows. Any other session first seals its
     * joined rows to the named columnar archive at @p archive_path.
     * Later rows rehydrate transparently (rehydrateLocked); selections
     * afterwards are bitwise identical to a never-evicted session's.
     * Idempotent. Returns whether it wrote the archive.
     */
    bool evict(const std::string &archive_path);

    /** Whether the session is currently evicted (derived state
     * dropped; rows in its artifact or archive). */
    bool isEvicted() const;

    /**
     * Approximate resident bytes of this session's *reclaimable*
     * state: the builder (joined records + profile heap + kernel
     * table), the lowered feature columns, the projection table, and
     * per-config interval/point/unique-index state. What evict()
     * reclaims; the service's byte-budget eviction and
     * memoryFootprint() sum this. An artifact-backed session counts
     * no row until it derives its state: the artifact is the service
     * cache's, counted there. The memoized selections are excluded —
     * they survive eviction by contract (selection() stays
     * answerable) and are reported by memoBytes().
     */
    uint64_t memoryBytes() const;

    /** Approximate bytes of the memoized selections (the one
     * per-workload cost that outlives eviction). */
    uint64_t memoBytes() const;

    /**
     * Incremental selection refresh over everything fed so far.
     * Configurations whose population gained no dispatches since
     * their last refresh are answered from the memoized selection,
     * and those the adopted SelectionMemo has published are copied
     * from it; the rest re-cluster, reusing the completed-prefix
     * points, the extended unique-value index, and the grown
     * projection table (a session without its state derives it
     * first).
     * The result is bitwise identical — selections, chosen k,
     * ratios — to a one-shot selectSubset() over a database sealed
     * at this prefix (the service differential tests pin this at
     * multiple arrival orders and granularities).
     */
    void refresh();

    /** Latest refreshed selection of configuration @p config (index
     * into ServiceConfig::selections). refresh() must have run since
     * the first dispatch arrived. */
    core::SubsetSelection selection(size_t config) const;

    uint64_t numDispatches() const;

    /** Seal a TraceDatabase over everything fed so far — the
     * database the differential tests and SPI projections run
     * against. A session evicted to an archive reopens it and stays
     * evicted; any other session without its state derives it first
     * (rehydrateLocked), and keeps it. */
    core::TraceDatabase sealDatabase();

    SessionStats stats() const;

    const std::string &name() const { return workloadName; }

  private:
    struct ConfigState
    {
        SelectionConfig config;
        core::IncrementalIntervals intervals;
        /** Cached per-interval projected points; [0, stable) cover
         * completed (final) intervals and are reused verbatim. */
        std::vector<core::simpoint::Point> points;
        size_t stable = 0;
        /** Unique-value index over the stable prefix. */
        core::simpoint::UniqueIndex uniq;
        core::SubsetSelection selection;
        uint64_t selectionAt = 0; //!< dispatch count at last cluster
        bool hasSelection = false;
    };

    /** Bring configuration @p c up to date: the session's memo,
     * the artifact's SelectionMemo, or a recluster. */
    void refreshConfig(size_t c);

    /** Recluster @p state over everything fed so far, reusing the
     * cached prefix points and unique index. */
    void recluster(ConfigState &state);

    /** addDispatches() under the lock: derive the state, drop the
     * artifact and its memo, and join the rows. */
    void appendLocked(
        const std::shared_ptr<const gtpin::KernelTable> &kernels,
        std::span<const gtpin::DispatchProfile> profiles,
        std::span<const cfl::KernelTiming> timings,
        std::span<const std::pair<uint64_t, uint64_t>> epochs);

    /** Join epoch-assigned rows into the builder, feature columns and
     * every interval scheme, one feedLocked() each. Leaves fed to the
     * caller. Caller holds the mutex. */
    void feedRowsLocked(
        const std::shared_ptr<const gtpin::KernelTable> &kernels,
        std::span<const gtpin::DispatchProfile> profiles,
        std::span<const cfl::KernelTiming> timings,
        std::span<const std::pair<uint64_t, uint64_t>> epochs);

    /** Join one row into the builder, feature columns and every
     * interval scheme. Caller holds the mutex. */
    void feedLocked(const gtpin::DispatchProfile &profile,
                    double seconds, uint64_t epoch);

    /** Make the session resident with its state derived: an evicted
     * session stops being evicted (counted as a rehydration), and
     * state the builder lacks is joined from the artifact, else
     * re-fed from the archive. No-op when the state holds every fed
     * row. Caller holds the mutex. */
    void rehydrateLocked();

    std::string workloadName;
    sched::ThreadPool &pool;
    core::simpoint::ClusterOptions clusterOptions;
    uint64_t targetInstrs;

    mutable std::mutex mutex;
    core::TraceDatabase::Builder builder;
    core::DispatchFeatureCache features;
    core::simpoint::ProjectionTable table;
    std::vector<ConfigState> configs;
    SessionStats counters;
    /** The fed artifact's shared selections; set only while the
     * session's rows are exactly that artifact's. */
    std::shared_ptr<SelectionMemo> artifactMemo;
    /** The artifact addArtifact() filled the session with; set only
     * while the session's rows are exactly its rows, which the
     * builder then holds only once derived. */
    std::shared_ptr<const core::ReplayArtifact> artifact;

    /** Rows ever fed (survives eviction; builder.numAppended() is
     * below it while the state is not derived, so the memo check
     * keys on this). */
    uint64_t fed = 0;
    bool evicted = false;
    /** Archive file holding the joined rows while evicted (empty if
     * the session was empty, or backed by an artifact, at
     * eviction). */
    std::string archivePath;
};

/** Service-wide counters and cache statistics. */
struct ServiceStats
{
    uint64_t tenants = 0;
    uint64_t workloads = 0;
    uint64_t replays = 0;      //!< recordings actually re-executed
    uint64_t artifactHits = 0; //!< recordings served from the cache
    SessionStats sessions;     //!< summed over every session
    gpu::SharedCacheStats planCache;
};

/** Where the service's resident bytes live (approximate,
 * deterministic sums — see memoryFootprint()). */
struct ServiceFootprint
{
    /** Builder/feature/interval state of the *resident*
     * (non-evicted) sessions. This is what the byte-budget eviction
     * bounds: it stays under ServiceConfig::maxResidentBytes no
     * matter how many workloads accumulate. An artifact-backed
     * session adds only its residue until it derives its state; its
     * rows are in artifactBytes. */
    uint64_t sessionBytes = 0;
    /** Residual object bytes of evicted sessions (the session
     * object and empty column/interval shells — a few KB each;
     * everything heavy is in an archive on disk or, for an
     * artifact-backed session, in artifactBytes). */
    uint64_t evictedResidueBytes = 0;
    /** Memoized selections, summed over every session. Retained
     * across eviction (selection()/refresh() answer from them), so
     * this grows with workload count — but by O(selected intervals)
     * per workload, not O(dispatches). */
    uint64_t memoBytes = 0;
    uint64_t planCacheBytes = 0; //!< shared execution plans
    /** Replay-artifact cache: complete outcomes, plus the
     * recordings pending entries hold until their replay ends. */
    uint64_t artifactBytes = 0;
    /** The artifacts' SelectionMemos, each counted once however
     * many sessions copied its selections. */
    uint64_t selectionMemoBytes = 0;
    /** Decoded-block bytes the calling thread's trace-store cache
     * holds for live stores. */
    uint64_t traceCacheBytes = 0;
    uint64_t totalBytes = 0; //!< sum of the above
};

/**
 * The multi-tenant profiling service (see the file comment).
 * Tenants are opened, recordings submitted (asynchronously replayed
 * on the shared pool), drain() joins the outstanding replays, and
 * refreshAll()/session() expose the incrementally maintained
 * selections.
 */
class ProfilingService
{
  public:
    using TenantId = size_t;
    using WorkloadId = size_t;

    explicit ProfilingService(ServiceConfig config = {});

    /** Joins outstanding replays (failures are swallowed here; call
     * drain() first to observe them). */
    ~ProfilingService();

    ProfilingService(const ProfilingService &) = delete;
    ProfilingService &operator=(const ProfilingService &) = delete;

    TenantId openTenant(std::string name);

    /**
     * Submit one recorded workload for @p tenant. Identical
     * recordings (by content hash) from any tenant are replayed once:
     * the first submit copies @p recording into a pending cache entry
     * and schedules the replay on the shared pool, which publishes a
     * core::ReplayArtifact, releases the copy, and then hands the
     * artifact to this session and every session whose submit
     * attached meanwhile; a submit after publication hands the cached
     * artifact to its session inline (WorkloadSession::addArtifact).
     * Only a submit that replays copies the recording, and no submit
     * copies a row.
     */
    WorkloadId submit(TenantId tenant, std::string workload_name,
                      const cfl::Recording &recording);

    /** Wait for every outstanding replay and feed; rethrows the
     * first failure. A failed replay leaves no cache entry, so a
     * later submit of the same recording replays again. */
    void drain();

    /** refresh() every session (see WorkloadSession::refresh), then
     * enforce the byte budget, which refreshing may have exceeded. */
    void refreshAll();

    /** The incremental state of one submitted workload. */
    WorkloadSession &session(TenantId tenant, WorkloadId workload);

    gpu::SharedPlanCache &planCache() { return plans; }

    const ServiceConfig &config() const { return cfg; }

    ServiceStats stats() const;

    /**
     * Approximate resident bytes of the service: every session's
     * state (WorkloadSession::memoryBytes) plus the two shared
     * caches and the calling thread's trace-store decode cache.
     * Logged at eviction decisions; the eviction tests assert it
     * stays bounded as tenants accumulate.
     */
    ServiceFootprint memoryFootprint() const;

    /** Directory evicted sessions archive to (catalog inside). */
    const std::string &archiveDirectory() const { return archiveRoot; }

  private:
    struct Workload
    {
        TenantId tenant = 0;
        WorkloadId id = 0;
        std::unique_ptr<WorkloadSession> session;
        /** Replay finished and every row is fed — the precondition
         * for eviction. */
        std::atomic<bool> drained{false};
        /** LRU ticket (monotone service-wide counter, not wall
         * time), refreshed on feed completion and refreshAll(). */
        std::atomic<uint64_t> lastUse{0};
    };

    struct Tenant
    {
        std::string name;
        std::vector<std::unique_ptr<Workload>> workloads;
    };

    /** Replay the pending entry @p key on the shared pool, publish
     * the artifact, and feed @p workload plus every attached one. */
    void runReplay(Workload &workload, uint64_t key);

    /** Hand @p artifact and its @p memo to @p workload's session
     * (WorkloadSession::addArtifact), mark it drained, and enforce
     * the budget. */
    void feed(Workload &workload,
              const std::shared_ptr<const core::ReplayArtifact> &artifact,
              const std::shared_ptr<SelectionMemo> &memo);

    /** The archive catalog, created (with its directory) on first
     * use. */
    SessionArchive &archiveCatalog();

    /** Evict drained sessions (LRU-first) until the resident-byte
     * budget holds; no-op when unbounded. Called after every
     * workload drains and at the end of refreshAll(). */
    void enforceBudget();

    ServiceConfig cfg;
    sched::ThreadPool &pool;
    gpu::SharedPlanCache plans;

    /** A workload attached to a pending entry, and the promise
     * drain() waits on for its feed. */
    struct Waiter
    {
        Workload *workload;
        std::promise<void> fed;
    };

    /** One replay-artifact cache entry: pending (artifact null; the
     * replay reads the recording, identical submits queue as
     * waiters) until its replay publishes the artifact together
     * with its (empty) selection memo. */
    struct ArtifactEntry
    {
        std::shared_ptr<const core::ReplayArtifact> artifact;
        std::shared_ptr<SelectionMemo> memo;
        cfl::Recording recording;
        std::vector<Waiter> waiters;
    };

    /** Replay-artifact cache by recording content hash; the
     * counters are updated under its lock. Entries are nodes, so a
     * replay holds a pointer to its own across unlocks. */
    struct ArtifactCache
    {
        mutable std::mutex mu;
        std::unordered_map<uint64_t, ArtifactEntry> map;
        uint64_t replays = 0;
        uint64_t hits = 0;
    } artifacts;

    std::string archiveRoot;
    std::mutex archiveMutex;
    std::unique_ptr<SessionArchive> archiveStore;
    std::atomic<uint64_t> useTicket{1};

    mutable std::mutex mutex; //!< tenants + pending futures
    std::vector<std::unique_ptr<Tenant>> tenants;
    /** Replay tasks and attached feeds drain() waits on. */
    std::vector<std::future<void>> pendingReplays;
};

} // namespace gt::serve

#endif // GT_SERVE_SERVICE_HH
