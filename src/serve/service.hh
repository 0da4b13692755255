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
 * every submission becomes one WorkloadSession: a view of exactly
 * one replay outcome, whose selections a refresh() answers bitwise
 * identical to a one-shot selectSubset() over a database of those
 * rows. As in the paper, a session selects from one profiling run
 * and never takes more rows.
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
 * Both caches are sized to the service's traffic — one submitting
 * thread plus the pool's workers — so each is one mutex over one
 * map, with exact counters; replays need no admission cap of their
 * own, because they run on the one shared pool (see
 * sched/thread_pool.hh).
 *
 * These mechanisms keep a long-running service small and fast:
 *
 *  - **One feed, derived on demand.** A session is fed once, with
 *    one whole replay artifact (WorkloadSession::addArtifact), and
 *    keeps a shared_ptr to it and to its SelectionMemo instead of
 *    joining the rows. It derives its builder, feature and interval
 *    state from the artifact only when it must cluster (its memo
 *    slot is empty) or seal a database. The artifact cache already
 *    holds and counts those rows, so a warm submit joins nothing and
 *    the session holds no derived state until it must cluster.
 *  - **One clustering per (artifact, configuration).** A selection
 *    is a pure function of the rows and the fixed configuration, so
 *    each artifact entry owns a write-once SelectionMemo: one shared
 *    selection per ServiceConfig::selections entry over exactly that
 *    artifact's rows. refresh() — and the refresh inside evict() —
 *    takes each published selection instead of running k-means
 *    (SessionStats::sharedSelections counts these), and the one
 *    session that finds a slot empty derives its state, clusters
 *    under the memo lock and publishes the slot. Lock order is
 *    session, then memo. The memos live in one service (no
 *    process-wide cache) and ServiceFootprint::selectionMemoBytes
 *    counts each once.
 *  - **Session eviction.** A session holding derived state is
 *    *evicted* (LRU order) while resident session bytes exceed
 *    the one budget, ServiceConfig::maxResidentBytes: its selections
 *    are refreshed first, then the builder, feature cache, and
 *    interval state are dropped. A session that derived nothing
 *    frees nothing and is never evicted. While evicted, refresh()
 *    and selection() answer from the held selections at near-zero
 *    cost; sealDatabase() *rehydrates* the session by deriving its
 *    state again from the artifact, bitwise identical to a
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
 *  - **Budget after refresh.** Clustering derives a session's
 *    state, so refreshAll() enforces the byte budget again once
 *    every session is refreshed.
 */

#ifndef GT_SERVE_SERVICE_HH
#define GT_SERVE_SERVICE_HH

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
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
     * Resident-byte budget over the summed derived session state
     * (builders, feature caches, interval state — see
     * WorkloadSession::memoryBytes). Exceeding it evicts sessions
     * that hold derived state, LRU-first, until back under.
     * UINT64_MAX = unbounded; 0 = evict every session that holds
     * derived state.
     */
    uint64_t maxResidentBytes = UINT64_MAX;

    /** Unused: the service writes no files. Kept only because the
     * end-to-end benchmark (perfbench/flows.cc) sets it; retire it
     * with that line. */
    std::string archiveDir;
};

/** Per-session work counters (monotone; see stats()). */
struct SessionStats
{
    uint64_t dispatches = 0;       //!< rows fed into the session
    uint64_t refreshes = 0;        //!< refresh() calls
    uint64_t reclustered = 0;      //!< config refreshes that ran k-means
    uint64_t reusedSelections = 0; //!< answered from the held selection
    /** Config refreshes answered from the artifact's SelectionMemo
     * (no k-means, no points). */
    uint64_t sharedSelections = 0;
    uint64_t evictions = 0;        //!< derived state dropped
    uint64_t rehydrations = 0;     //!< evicted sessions made resident
};

/**
 * Write-once selections of one replay artifact (see "One clustering
 * per (artifact, configuration)" in the file comment): slot c is
 * the selection of ServiceConfig::selections[c] over exactly the
 * artifact's rows, null until the first session that clusters it
 * publishes it. Every session fed the artifact shares the slot's
 * selection. Sessions lock their own mutex before this one, never
 * the reverse.
 */
struct SelectionMemo
{
    explicit SelectionMemo(size_t configs) : slots(configs) {}

    /** Held while a slot is read, or clustered and filled. */
    std::mutex mu;
    std::vector<std::shared_ptr<const core::SubsetSelection>> slots;
    /** Approximate bytes of the filled slots (read without mu). */
    std::atomic<uint64_t> bytes{0};
};

/**
 * Per-(tenant, workload) selection state over one replay artifact:
 * the artifact and its SelectionMemo, the selections refreshed so
 * far, and — derived from the artifact only when clustering or a
 * seal needs it — a TraceDatabase::Builder, the flat feature
 * columns and one IncrementalIntervals per configured scheme.
 * Thread-safe: every method locks the session, so the service's
 * replay task may feed while another thread refreshes or reads
 * selections.
 */
class WorkloadSession
{
  public:
    WorkloadSession(std::string workload_name,
                    const ServiceConfig &config,
                    sched::ThreadPool &pool);

    /**
     * Feed the session its rows: every row of one replay artifact.
     * The session keeps @p artifact and shares the selections of
     * @p memo (the artifact's SelectionMemo; null = the session
     * clusters for itself) without joining a row. Its builder,
     * feature and interval state is derived from the artifact, by
     * the per-row join feedLocked() runs, only when a refresh must
     * cluster or sealDatabase() is called. A session is fed once: a
     * second call fails.
     */
    void addArtifact(std::shared_ptr<const core::ReplayArtifact> artifact,
                     std::shared_ptr<SelectionMemo> memo);

    /**
     * Drop the builder records, feature columns, and interval state
     * — everything except the selections (refreshed here first, so
     * an evicted session answers refresh()/selection() from them).
     * The artifact keeps the rows: sealDatabase() derives the state
     * again (rehydrateLocked), bitwise identical to a never-evicted
     * session's. Idempotent.
     */
    void evict();

    /** Whether the session is currently evicted (derived state
     * dropped; rows in its artifact). */
    bool isEvicted() const;

    /**
     * Approximate resident bytes of this session's derived state:
     * the builder (joined records + profile heap + kernel table),
     * the lowered feature columns, the projection table, and the
     * per-config interval state. Exactly what evict() reclaims, so
     * 0 for a session that has derived nothing (the artifact is the
     * service cache's, counted there); the service's byte-budget
     * eviction and memoryFootprint() sum this. The selections are
     * excluded — they survive eviction by contract (selection()
     * stays answerable) and are reported by memoBytes().
     */
    uint64_t memoryBytes() const;

    /** Bytes of the session object itself and its per-config shells,
     * whatever its state: what outlives eviction besides the
     * selections. */
    uint64_t residueBytes() const;

    /** Approximate bytes of the selections only this session holds:
     * 0 for a session fed a SelectionMemo, whose every selection is
     * the memo's (counted in ServiceFootprint::selectionMemoBytes). */
    uint64_t memoBytes() const;

    /**
     * Bring every configuration's selection up to date: a held
     * selection answers again, a published memo slot is shared, and
     * the rest cluster (a session without its state derives it
     * first). The result is bitwise identical — selections, chosen
     * k, ratios — to a one-shot selectSubset() over the database
     * sealDatabase() returns (the service differential tests pin
     * this).
     */
    void refresh();

    /** Latest refreshed selection of configuration @p config (index
     * into ServiceConfig::selections). refresh() must have run since
     * the feed. */
    core::SubsetSelection selection(size_t config) const;

    uint64_t numDispatches() const;

    /** Seal a TraceDatabase over the fed rows — the database the
     * differential tests and SPI projections run against. A session
     * without its state derives it first (rehydrateLocked), and
     * keeps it. */
    core::TraceDatabase sealDatabase();

    SessionStats stats() const;

    const std::string &name() const { return workloadName; }

  private:
    struct ConfigState
    {
        SelectionConfig config;
        core::IncrementalIntervals intervals;
        /** Null until refreshed; the memo slot's when the session
         * has a SelectionMemo. */
        std::shared_ptr<const core::SubsetSelection> selection;
    };

    /** Bring configuration @p c up to date: its held selection, the
     * artifact's SelectionMemo, or a clustering. */
    void refreshConfig(size_t c);

    /** Cluster configuration @p cs over the fed rows, deriving the
     * state first if the session lacks it. */
    std::shared_ptr<const core::SubsetSelection>
    recluster(const ConfigState &cs);

    /** Join epoch-assigned rows into the builder, feature columns and
     * every interval scheme, one feedLocked() each. Caller holds the
     * mutex. */
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
     * session stops being evicted (counted as a rehydration), and a
     * builder without the rows joins them from the artifact. Caller
     * holds the mutex. */
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
    /** The fed artifact's shared selections (null when fed none). */
    std::shared_ptr<SelectionMemo> artifactMemo;
    /** The one artifact addArtifact() fed; the builder holds its rows
     * only once derived. */
    std::shared_ptr<const core::ReplayArtifact> artifact;

    /** Rows fed (the artifact's; builder.numAppended() is below it
     * while the state is not derived). */
    uint64_t fed = 0;
    bool evicted = false;
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
    /** Derived builder/feature/interval state, summed over the
     * sessions (WorkloadSession::memoryBytes; 0 for an evicted
     * session or one that derived nothing). This is what the
     * byte-budget eviction bounds: it stays under
     * ServiceConfig::maxResidentBytes no matter how many workloads
     * accumulate. The rows are in artifactBytes. */
    uint64_t sessionBytes = 0;
    /** The session objects and their empty column/interval shells,
     * summed over every session (WorkloadSession::residueBytes; a
     * few KB each). Eviction frees none of it, so it grows with
     * workload count. */
    uint64_t sessionResidueBytes = 0;
    /** Selections sessions hold alone (WorkloadSession::memoBytes):
     * 0 in a service, whose every session shares its artifact's
     * SelectionMemo. */
    uint64_t memoBytes = 0;
    uint64_t planCacheBytes = 0; //!< shared execution plans
    /** Replay-artifact cache: complete outcomes, plus the
     * recordings pending entries hold until their replay ends. */
    uint64_t artifactBytes = 0;
    /** The artifacts' SelectionMemos, each counted once however
     * many sessions share its selections. */
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
 * refreshAll()/session() expose each submission's selections.
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

    /** The session of one submitted workload. */
    WorkloadSession &session(TenantId tenant, WorkloadId workload);

    gpu::SharedPlanCache &planCache() { return plans; }

    const ServiceConfig &config() const { return cfg; }

    ServiceStats stats() const;

    /**
     * Approximate resident bytes of the service: every session's
     * derived state, residue and selections plus the two shared
     * caches and the calling thread's trace-store decode cache.
     * Logged at eviction decisions; the eviction tests assert it
     * stays bounded as tenants accumulate.
     */
    ServiceFootprint memoryFootprint() const;

    /** ServiceConfig::archiveDir, unused by the service. Kept only
     * because the end-to-end benchmark (perfbench/flows.cc) calls
     * it; retire it with that call. */
    const std::string &archiveDirectory() const { return cfg.archiveDir; }

  private:
    struct Workload
    {
        WorkloadId id = 0;
        std::unique_ptr<WorkloadSession> session;
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
     * (WorkloadSession::addArtifact) and enforce the budget. */
    void feed(Workload &workload,
              const std::shared_ptr<const core::ReplayArtifact> &artifact,
              const std::shared_ptr<SelectionMemo> &memo);

    /** Evict sessions holding derived state (LRU-first)
     * until the resident-byte budget holds; no-op when unbounded.
     * Called after every feed and at the end of
     * refreshAll(). */
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

    std::atomic<uint64_t> useTicket{1};

    mutable std::mutex mutex; //!< tenants + pending futures
    std::vector<std::unique_ptr<Tenant>> tenants;
    /** Replay tasks and attached feeds drain() waits on. */
    std::vector<std::future<void>> pendingReplays;
};

} // namespace gt::serve

#endif // GT_SERVE_SERVICE_HH
