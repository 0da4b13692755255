#include "serve/service.hh"

#include <algorithm>
#include <cstdlib>

#include <unistd.h>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/pipeline.hh"
#include "core/trace_store.hh"

namespace gt::serve
{

using core::simpoint::Point;
using core::simpoint::UniqueIndex;

namespace
{

/** GT_SERVE_* environment defaults, parsed and logged once. They
 * fill ServiceConfig fields the caller left at their defaults — an
 * explicitly configured value always wins. */
struct ServeEnv
{
    bool haveMaxSessions = false;
    size_t maxSessions = 0;
    bool haveMaxBytes = false;
    uint64_t maxBytes = 0;
    bool haveEvict = false;
    bool evict = false;
    std::string archiveDir;
};

uint64_t
parseEnvCount(const char *name, const char *value)
{
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0')
        fatal(name, "='", value, "' is not a non-negative integer");
    return (uint64_t)parsed;
}

const ServeEnv &
serveEnv()
{
    static const ServeEnv parsed = [] {
        ServeEnv e;
        if (const char *v = std::getenv("GT_SERVE_MAX_SESSIONS");
            v && *v != '\0') {
            e.haveMaxSessions = true;
            e.maxSessions =
                (size_t)parseEnvCount("GT_SERVE_MAX_SESSIONS", v);
        }
        if (const char *v = std::getenv("GT_SERVE_MAX_BYTES");
            v && *v != '\0') {
            e.haveMaxBytes = true;
            e.maxBytes = parseEnvCount("GT_SERVE_MAX_BYTES", v);
        }
        if (const char *v = std::getenv("GT_SERVE_EVICT");
            v && *v != '\0') {
            std::string value(v);
            if (value != "0" && value != "1") {
                fatal("GT_SERVE_EVICT='", value,
                      "' is not a flag (expected '0' or '1')");
            }
            e.haveEvict = true;
            e.evict = value == "1";
        }
        if (const char *v = std::getenv("GT_SERVE_ARCHIVE_DIR");
            v && *v != '\0') {
            e.archiveDir = v;
        }
        if (e.haveMaxSessions || e.haveMaxBytes || e.haveEvict ||
            !e.archiveDir.empty()) {
            inform("serve: lifecycle env overrides:",
                   e.haveMaxSessions
                       ? " max-sessions=" +
                             std::to_string(e.maxSessions)
                       : "",
                   e.haveMaxBytes
                       ? " max-bytes=" + std::to_string(e.maxBytes)
                       : "",
                   e.haveEvict
                       ? std::string(" evict-on-drain=") +
                             (e.evict ? "1" : "0")
                       : "",
                   e.archiveDir.empty()
                       ? ""
                       : " archive-dir=" + e.archiveDir);
        }
        return e;
    }();
    return parsed;
}

/** Apply the env defaults to fields left unset, then resolve the
 * archive directory fallback chain. */
ServiceConfig
resolveConfig(ServiceConfig cfg)
{
    const ServeEnv &env = serveEnv();
    if (env.haveMaxSessions && cfg.maxResidentSessions == SIZE_MAX)
        cfg.maxResidentSessions = env.maxSessions;
    if (env.haveMaxBytes && cfg.maxResidentBytes == UINT64_MAX)
        cfg.maxResidentBytes = env.maxBytes;
    if (env.haveEvict && !cfg.evictOnDrain)
        cfg.evictOnDrain = env.evict;
    if (cfg.archiveDir.empty())
        cfg.archiveDir = env.archiveDir;
    if (cfg.archiveDir.empty()) {
        const char *tmp = std::getenv("TMPDIR");
        std::string base = tmp && *tmp != '\0' ? tmp : "/tmp";
        cfg.archiveDir =
            base + "/gt-serve-" + std::to_string(::getpid());
    }
    return cfg;
}

} // namespace

uint64_t
ReplayArtifact::memoryBytes() const
{
    uint64_t bytes = sizeof(*this);
    bytes += calls.size() * sizeof(ocl::ApiCallRecord);
    for (const ocl::ApiCallRecord &call : calls) {
        bytes += call.kernelName.size() +
                 call.uargs.size() * sizeof(uint64_t) +
                 call.payload.size();
    }
    bytes += profiles.size() * sizeof(gtpin::DispatchProfile);
    for (const gtpin::DispatchProfile &profile : profiles) {
        bytes += profile.footprintBytes() -
                 sizeof(gtpin::DispatchProfile);
    }
    bytes += timings.size() * sizeof(cfl::KernelTiming);
    bytes += epochs.size() * sizeof(std::pair<uint64_t, uint64_t>);
    return bytes;
}

WorkloadSession::WorkloadSession(std::string workload_name,
                                 const ServiceConfig &config,
                                 sched::ThreadPool &shared_pool)
    : workloadName(std::move(workload_name)), pool(shared_pool),
      clusterOptions(config.cluster),
      targetInstrs(config.targetInstrs)
{
    clusterOptions.pool = &pool;
    configs.reserve(config.selections.size());
    for (const SelectionConfig &sc : config.selections) {
        configs.push_back(ConfigState{
            sc, core::IncrementalIntervals(sc.scheme, targetInstrs),
            {}, 0, {}, {}, 0, false});
    }
}

void
WorkloadSession::observeCall(const ocl::ApiCallRecord &call)
{
    std::lock_guard<std::mutex> lock(mutex);
    builder.observeCall(call);
}

void
WorkloadSession::addDispatch(const gtpin::DispatchProfile &profile,
                             const cfl::KernelTiming &timing)
{
    std::lock_guard<std::mutex> lock(mutex);
    rehydrateLocked();
    builder.append(profile, timing);
    features.appendDispatch(profile);
    uint64_t i = builder.numAppended() - 1;
    uint64_t epoch = builder.syncEpoch(i);
    for (ConfigState &cs : configs)
        cs.intervals.append(epoch, profile.instrs, timing.seconds);
    ++fed;
    ++counters.dispatches;
}

void
WorkloadSession::addDispatches(
    const std::vector<gtpin::DispatchProfile> &profiles,
    const std::vector<cfl::KernelTiming> &timings,
    const std::vector<std::pair<uint64_t, uint64_t>> &epochs)
{
    GT_ASSERT(profiles.size() == timings.size() &&
                  profiles.size() == epochs.size(),
              "bulk append stream mismatch: ", profiles.size(),
              " profiles, ", timings.size(), " timings, ",
              epochs.size(), " epoch assignments");
    std::lock_guard<std::mutex> lock(mutex);
    rehydrateLocked();
    for (size_t i = 0; i < profiles.size(); ++i) {
        const gtpin::DispatchProfile &profile = profiles[i];
        GT_ASSERT(profile.seq == timings[i].seq,
                  "profile/timing sequence mismatch at bulk row ", i);
        GT_ASSERT(epochs[i].first == profile.seq,
                  "epoch assignment misaligned at bulk row ", i);
        builder.appendJoined(profile, timings[i].seconds,
                             epochs[i].second);
        features.appendDispatch(profile);
        for (ConfigState &cs : configs) {
            cs.intervals.append(epochs[i].second, profile.instrs,
                                timings[i].seconds);
        }
    }
    fed += profiles.size();
    counters.dispatches += profiles.size();
}

void
WorkloadSession::refresh()
{
    std::lock_guard<std::mutex> lock(mutex);
    ++counters.refreshes;
    if (evicted) {
        // Evictions memoize every selection first, so the common
        // evicted refresh is a pure memo sweep. Only a selection
        // that is genuinely stale (a direct evict() racing new rows
        // is impossible — both hold the session lock — but a caller
        // may evict, feed, and refresh) forces rehydration.
        bool stale = false;
        for (const ConfigState &cs : configs) {
            stale |= fed > 0 &&
                (!cs.hasSelection || cs.selectionAt != fed);
        }
        if (stale)
            rehydrateLocked();
    }
    for (ConfigState &cs : configs)
        refreshConfig(cs);
}

void
WorkloadSession::refreshConfig(ConfigState &cs)
{
    uint64_t now = fed;
    if (now == 0)
        return; // nothing to select from yet
    if (cs.hasSelection && cs.selectionAt == now) {
        // The population gained no dispatches: the memoized
        // selection is still exact. This is also the evicted steady
        // state — answering from the memo is what keeps refresh()
        // from rehydrating every archived session.
        ++counters.reusedSelections;
        return;
    }
    GT_ASSERT(!evicted, "recluster on an evicted session (refresh() "
                        "should have rehydrated)");

    // Grow the shared query-side state to the current key universe.
    // Projection rows are pure per-key, so the extended table agrees
    // bitwise with a fresh build — and with every cached point.
    features.refreshColumns();
    if (table.size() != features.numKeys()) {
        table = core::simpoint::ProjectionTable::build(
            features.uniqueKeys(), table);
    }

    std::vector<core::Interval> intervals = cs.intervals.snapshot();
    size_t total = intervals.size();
    size_t completed =
        std::min(cs.intervals.numCompleted(), total);
    GT_ASSERT(cs.stable <= completed,
              "stable point prefix shrank: ", cs.stable, " > ",
              completed);

    // Completed intervals are final: their cached points are the
    // bits a fresh projectAll would produce. Only the boundary-fresh
    // intervals and the open tail project anew.
    std::vector<Point> fresh = features.projectAll(
        std::span<const core::Interval>(intervals).subspan(cs.stable),
        cs.config.feature, table);
    cs.points.resize(cs.stable);
    cs.points.insert(cs.points.end(), fresh.begin(), fresh.end());
    counters.reusedPoints += cs.stable;
    counters.projectedPoints += total - cs.stable;

    // Extend the unique-value index over the newly completed prefix
    // (cached for the next refresh), then over the volatile tail
    // (per-refresh only: the open interval's point changes as more
    // dispatches accumulate into it).
    const double *flat =
        cs.points.empty() ? nullptr : cs.points.front().data();
    cs.uniq = core::simpoint::extendUniqueIndex(cs.uniq, flat,
                                                cs.stable, completed);
    cs.stable = completed;
    UniqueIndex full = core::simpoint::extendUniqueIndex(
        cs.uniq, flat, completed, total);

    core::simpoint::ClusterOptions options = clusterOptions;
    options.uniqueIndex = &full;
    cs.selection = core::selectFromProjected(
        cs.config.scheme, cs.config.feature, std::move(intervals),
        cs.points, builder.totalInstrs(), options);
    cs.selectionAt = now;
    cs.hasSelection = true;
    ++counters.reclustered;
}

core::SubsetSelection
WorkloadSession::selection(size_t config) const
{
    std::lock_guard<std::mutex> lock(mutex);
    GT_ASSERT(config < configs.size(), "selection config ", config,
              " out of range (", configs.size(), " configured)");
    GT_ASSERT(configs[config].hasSelection,
              "no refresh() has run since dispatches arrived");
    return configs[config].selection;
}

uint64_t
WorkloadSession::numDispatches() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return fed;
}

core::TraceDatabase
WorkloadSession::sealDatabase(core::TraceDbBackend backend) const
{
    std::lock_guard<std::mutex> lock(mutex);
    if (evicted && !archivePath.empty()) {
        // The archive *is* a columnar database of exactly the fed
        // rows; reopening it reproduces the sealed totals bit for
        // bit. For the mem backend, re-feed a throwaway builder in
        // the original append order.
        core::TraceDatabase db =
            core::TraceDatabase::openColumnarFile(archivePath);
        if (backend == core::TraceDbBackend::Columnar)
            return db;
        core::TraceDatabase::Builder rebuilt;
        for (uint64_t i = 0; i < db.numDispatches(); ++i) {
            rebuilt.appendJoined(db.profileAt(i), db.seconds(i),
                                 db.syncEpoch(i));
        }
        return std::move(rebuilt).seal(backend);
    }
    return builder.seal(backend);
}

void
WorkloadSession::evict(const std::string &archive_path)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (evicted)
        return;
    // Memoize every selection at the current prefix first: an
    // evicted session keeps answering refresh()/selection() from the
    // memo, so draining a fleet and refreshing it stays cheap and
    // never re-reads the archives.
    for (ConfigState &cs : configs)
        refreshConfig(cs);
    if (builder.numAppended() > 0) {
        builder.writeArchive(archive_path);
        archivePath = archive_path;
    }
    // Keep only the epoch-walk restart state (O(in-flight), tiny);
    // everything else is reclaimed and reproducible from the
    // archive.
    core::TraceDatabase::Builder::EpochWalk walk = builder.walkState();
    builder = core::TraceDatabase::Builder();
    builder.restoreWalk(std::move(walk));
    features = core::DispatchFeatureCache();
    table = core::simpoint::ProjectionTable();
    for (ConfigState &cs : configs) {
        cs.intervals = core::IncrementalIntervals(cs.config.scheme,
                                                  targetInstrs);
        cs.points.clear();
        cs.points.shrink_to_fit();
        cs.stable = 0;
        cs.uniq = UniqueIndex();
    }
    evicted = true;
    ++counters.evictions;
}

bool
WorkloadSession::isEvicted() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return evicted;
}

void
WorkloadSession::rehydrateLocked()
{
    if (!evicted)
        return;
    evicted = false;
    ++counters.rehydrations;
    if (archivePath.empty())
        return; // the session was empty when evicted
    core::TraceDatabase db =
        core::TraceDatabase::openColumnarFile(archivePath);
    for (uint64_t i = 0; i < db.numDispatches(); ++i) {
        // Copy out of the thread's decode cache before feeding: the
        // reference is only stable across a few block touches.
        gtpin::DispatchProfile profile = db.profileAt(i);
        double secs = db.seconds(i);
        uint64_t epoch = db.syncEpoch(i);
        uint64_t instrs = profile.instrs;
        features.appendDispatch(profile);
        builder.appendJoined(std::move(profile), secs, epoch);
        for (ConfigState &cs : configs)
            cs.intervals.append(epoch, instrs, secs);
    }
    GT_ASSERT(builder.numAppended() == fed,
              "rehydrated ", builder.numAppended(),
              " rows but the session had fed ", fed);
    // Points, the unique index, and the projection table rebuild
    // from scratch on the next refresh; per-key purity makes the
    // recomputed selections bitwise equal to a never-evicted
    // session's (pinned by the eviction differential tests).
}

uint64_t
WorkloadSession::memoryBytes() const
{
    std::lock_guard<std::mutex> lock(mutex);
    uint64_t bytes = sizeof(*this) + workloadName.size() +
                     archivePath.size();
    bytes += builder.memoryBytes();
    bytes += features.memoryBytes();
    bytes += table.size() * (sizeof(uint64_t) + sizeof(Point));
    for (const ConfigState &cs : configs) {
        bytes += sizeof(ConfigState);
        bytes += cs.intervals.memoryBytes();
        bytes += cs.points.size() * sizeof(Point);
        bytes += (cs.uniq.uid.size() + cs.uniq.rep.size() +
                  cs.uniq.count.size()) *
                 sizeof(uint32_t);
    }
    return bytes;
}

uint64_t
WorkloadSession::memoBytes() const
{
    std::lock_guard<std::mutex> lock(mutex);
    uint64_t bytes = 0;
    for (const ConfigState &cs : configs) {
        bytes += cs.selection.intervals.size() *
                     sizeof(core::Interval) +
                 cs.selection.selected.size() * sizeof(uint64_t) +
                 cs.selection.ratios.size() * sizeof(double);
    }
    return bytes;
}

SessionStats
WorkloadSession::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

ProfilingService::ProfilingService(ServiceConfig config)
    : cfg(resolveConfig(std::move(config))),
      pool(cfg.pool ? *cfg.pool : sched::ThreadPool::global()),
      admission(pool, cfg.replayWidth), plans(cfg.device),
      archiveRoot(cfg.archiveDir)
{
}

ProfilingService::~ProfilingService()
{
    std::vector<std::future<void>> work;
    {
        std::lock_guard<std::mutex> lock(mutex);
        work.swap(pendingReplays);
    }
    for (std::future<void> &f : work) {
        try {
            f.get();
        } catch (...) {
            // drain() is the reporting path; the destructor only
            // guarantees no replay outlives the service.
        }
    }
}

ProfilingService::TenantId
ProfilingService::openTenant(std::string name)
{
    std::lock_guard<std::mutex> lock(mutex);
    tenants.push_back(std::make_unique<Tenant>());
    tenants.back()->name = std::move(name);
    return tenants.size() - 1;
}

ProfilingService::WorkloadId
ProfilingService::submit(TenantId tenant, std::string workload_name,
                         cfl::Recording recording)
{
    uint64_t key = cfl::recordingContentHash(recording);
    Workload *wl = nullptr;
    WorkloadId id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex);
        GT_ASSERT(tenant < tenants.size(), "unknown tenant ",
                  tenant);
        Tenant &t = *tenants[tenant];
        auto workload = std::make_unique<Workload>();
        workload->tenant = tenant;
        workload->recording = std::move(recording);
        workload->session = std::make_unique<WorkloadSession>(
            std::move(workload_name), cfg, pool);
        workload->id = t.workloads.size();
        t.workloads.push_back(std::move(workload));
        wl = t.workloads.back().get();
        id = wl->id;
    }

    // The warm admission fast path: a known recording needs no
    // replay, no admission slot, and no pool hop — the cached rows
    // bulk-append synchronously on the calling thread, so warm
    // submission cost is O(rows) and independent of replay cost.
    if (std::shared_ptr<const ReplayArtifact> artifact =
            findArtifact(key)) {
        artifactHitCount.fetch_add(1, std::memory_order_relaxed);
        feedFromArtifact(*wl->session, *artifact);
        wl->lastUse.store(useTicket.fetch_add(1),
                          std::memory_order_relaxed);
        wl->drained.store(true, std::memory_order_release);
        enforceBudget();
        return id;
    }

    // Schedule outside the service lock: on a 1-thread pool submit()
    // runs the replay inline, and the replay takes the lock-free
    // feed path into the session.
    std::future<void> fut =
        pool.submit([this, wl] { runReplay(*wl); });
    {
        std::lock_guard<std::mutex> lock(mutex);
        pendingReplays.push_back(std::move(fut));
    }
    return id;
}

void
ProfilingService::drain()
{
    std::vector<std::future<void>> work;
    {
        std::lock_guard<std::mutex> lock(mutex);
        work.swap(pendingReplays);
    }
    for (std::future<void> &f : work)
        f.get();
}

void
ProfilingService::refreshAll()
{
    std::vector<Workload *> work;
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (const auto &t : tenants) {
            for (const auto &w : t->workloads)
                work.push_back(w.get());
        }
    }
    for (Workload *w : work) {
        w->session->refresh();
        w->lastUse.store(useTicket.fetch_add(1),
                         std::memory_order_relaxed);
    }
}

WorkloadSession &
ProfilingService::session(TenantId tenant, WorkloadId workload)
{
    std::lock_guard<std::mutex> lock(mutex);
    GT_ASSERT(tenant < tenants.size(), "unknown tenant ", tenant);
    Tenant &t = *tenants[tenant];
    GT_ASSERT(workload < t.workloads.size(), "unknown workload ",
              workload, " for tenant '", t.name, "'");
    return *t.workloads[workload]->session;
}

ServiceStats
ProfilingService::stats() const
{
    ServiceStats st;
    {
        std::lock_guard<std::mutex> lock(mutex);
        st.tenants = tenants.size();
        for (const auto &t : tenants) {
            st.workloads += t->workloads.size();
            for (const auto &w : t->workloads) {
                SessionStats s = w->session->stats();
                st.sessions.dispatches += s.dispatches;
                st.sessions.refreshes += s.refreshes;
                st.sessions.reclustered += s.reclustered;
                st.sessions.reusedSelections += s.reusedSelections;
                st.sessions.reusedPoints += s.reusedPoints;
                st.sessions.projectedPoints += s.projectedPoints;
                st.sessions.evictions += s.evictions;
                st.sessions.rehydrations += s.rehydrations;
            }
        }
    }
    st.replays = replayCount.load();
    st.artifactHits = artifactHitCount.load();
    st.planCache = plans.stats();
    st.checkpointCache = ckpts.stats();
    return st;
}

std::shared_ptr<const ReplayArtifact>
ProfilingService::findArtifact(uint64_t key)
{
    ArtifactShard &shard = artifactShards[gpu::cacheShardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    return it == shard.map.end() ? nullptr : it->second;
}

void
ProfilingService::insertArtifact(
    uint64_t key, std::shared_ptr<const ReplayArtifact> artifact)
{
    // First insert wins; a racing duplicate replay fed its own
    // session identically, so dropping its artifact loses nothing.
    ArtifactShard &shard = artifactShards[gpu::cacheShardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.emplace(key, std::move(artifact));
}

void
ProfilingService::runReplay(Workload &workload)
{
    {
        // The oversubscription guard: every replay runs on the one
        // shared pool, and at most admission.width() run
        // concurrently. Re-entrant: a replay submitted from inside
        // an already-admitted task (inline execution on a 1-thread
        // pool) must not wait on its own slot.
        sched::PoolHandle::Slot slot = admission.acquireReentrant();

        uint64_t key = cfl::recordingContentHash(workload.recording);
        if (std::shared_ptr<const ReplayArtifact> artifact =
                findArtifact(key)) {
            artifactHitCount.fetch_add(1, std::memory_order_relaxed);
            feedFromArtifact(*workload.session, *artifact);
        } else {
            replayCount.fetch_add(1, std::memory_order_relaxed);
            insertArtifact(key, replayStreaming(workload));
        }
    }
    workload.lastUse.store(useTicket.fetch_add(1),
                           std::memory_order_relaxed);
    workload.drained.store(true, std::memory_order_release);
    enforceBudget();
}

std::shared_ptr<ReplayArtifact>
ProfilingService::replayStreaming(Workload &workload)
{
    core::InstrumentedStack stack(cfg.device, cfg.trial, /*record=*/false,
                                  &plans, &ckpts);
    // Stream the replay: calls feed the session's epoch walk as they
    // issue; dispatch rows feed as they drain (kernels execute at
    // host/device alignment points, so rows arrive in sync-epoch
    // bursts — exactly the granularity the incremental interval
    // builder closes intervals at).
    cfl::StreamingReplay stream(workload.recording, stack.runtime);
    WorkloadSession &session = *workload.session;
    size_t calls_fed = 0;
    size_t rows_fed = 0;
    auto feed = [&] {
        const std::vector<ocl::ApiCallRecord> &calls =
            stack.tracer.callStream();
        for (; calls_fed < calls.size(); ++calls_fed)
            session.observeCall(calls[calls_fed]);
        const std::vector<gtpin::DispatchProfile> &profiles =
            stack.profileTool.profiles();
        const std::vector<cfl::KernelTiming> &timings =
            stack.tracer.kernelTimings();
        size_t avail = std::min(profiles.size(), timings.size());
        for (; rows_fed < avail; ++rows_fed)
            session.addDispatch(profiles[rows_fed],
                                timings[rows_fed]);
    };
    while (stream.nextDispatch())
        feed();
    stream.drain();
    feed();

    auto artifact = std::make_shared<ReplayArtifact>();
    artifact->calls = stack.tracer.callStream();
    artifact->profiles = stack.profileTool.takeProfiles();
    artifact->timings = stack.tracer.kernelTimings();
    // Run the epoch walk once here so every warm submission can
    // bulk-append without it.
    artifact->epochs =
        core::TraceDatabase::Builder::assignEpochs(artifact->calls);
    GT_ASSERT(artifact->epochs.size() == artifact->profiles.size(),
              "artifact epoch walk assigned ",
              artifact->epochs.size(), " dispatches but the replay "
              "profiled ", artifact->profiles.size());
    return artifact;
}

void
ProfilingService::feedFromArtifact(WorkloadSession &session,
                                   const ReplayArtifact &artifact)
{
    // Epoch assignment depends only on calls issued before each
    // dispatch's own Kernel call, and the artifact carries the
    // complete walk's assignments — so the bulk append reproduces
    // the streamed session state bit for bit, one lock for the
    // whole batch.
    GT_ASSERT(artifact.profiles.size() == artifact.timings.size(),
              "artifact profile/timing count mismatch");
    session.addDispatches(artifact.profiles, artifact.timings,
                          artifact.epochs);
}

SessionArchive &
ProfilingService::archiveCatalog()
{
    std::lock_guard<std::mutex> lock(archiveMutex);
    if (!archiveStore)
        archiveStore = std::make_unique<SessionArchive>(archiveRoot);
    return *archiveStore;
}

void
ProfilingService::enforceBudget()
{
    if (cfg.maxResidentSessions == SIZE_MAX &&
        cfg.maxResidentBytes == UINT64_MAX && !cfg.evictOnDrain)
        return;

    // Snapshot resident state under the service lock; the sessions
    // themselves are locked one at a time (service -> session lock
    // order, never the reverse).
    struct Candidate
    {
        Workload *workload;
        uint64_t lastUse;
        uint64_t bytes;
    };
    std::vector<Candidate> evictable;
    uint64_t residentBytes = 0;
    size_t residentCount = 0;
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (const auto &t : tenants) {
            for (const auto &w : t->workloads) {
                if (!w->session || w->session->isEvicted())
                    continue;
                uint64_t bytes = w->session->memoryBytes();
                residentBytes += bytes;
                ++residentCount;
                if (w->drained.load(std::memory_order_acquire)) {
                    evictable.push_back(
                        {w.get(),
                         w->lastUse.load(std::memory_order_relaxed),
                         bytes});
                }
            }
        }
    }
    std::sort(evictable.begin(), evictable.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.lastUse < b.lastUse;
              });

    for (const Candidate &cand : evictable) {
        bool over = residentCount > cfg.maxResidentSessions ||
                    residentBytes > cfg.maxResidentBytes;
        if (!cfg.evictOnDrain && !over)
            break;
        Workload &wl = *cand.workload;
        SessionArchive &catalog = archiveCatalog();
        std::string path = catalog.pathFor(wl.tenant, wl.id,
                                           wl.session->name());
        wl.session->evict(path);
        catalog.record(wl.session->name(), path,
                       wl.session->numDispatches());
        residentBytes -= std::min(cand.bytes, residentBytes);
        --residentCount;
        inform("serve: evicted '", wl.session->name(), "' (",
               humanBytes(cand.bytes), ") to ", path, "; ",
               residentCount, " sessions / ",
               humanBytes(residentBytes), " resident");
    }
}

ServiceFootprint
ProfilingService::memoryFootprint() const
{
    ServiceFootprint fp;
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (const auto &t : tenants) {
            for (const auto &w : t->workloads) {
                if (!w->session)
                    continue;
                uint64_t bytes = w->session->memoryBytes();
                if (w->session->isEvicted())
                    fp.evictedResidueBytes += bytes;
                else
                    fp.sessionBytes += bytes;
                fp.memoBytes += w->session->memoBytes();
            }
        }
    }
    fp.planCacheBytes = plans.memoryBytes();
    fp.checkpointCacheBytes = ckpts.memoryBytes();
    for (const ArtifactShard &shard : artifactShards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        for (const auto &[key, artifact] : shard.map) {
            (void)key;
            fp.artifactBytes += artifact->memoryBytes();
        }
    }
    fp.traceCacheBytes = core::trace_store::threadCacheResidentBytes();
    fp.totalBytes = fp.sessionBytes + fp.evictedResidueBytes +
                    fp.memoBytes + fp.planCacheBytes +
                    fp.checkpointCacheBytes + fp.artifactBytes +
                    fp.traceCacheBytes;
    return fp;
}

} // namespace gt::serve
