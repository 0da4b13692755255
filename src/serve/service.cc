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

/** Resolve the archive directory fallback chain: the configured
 * directory, else GT_SERVE_ARCHIVE_DIR, else TMPDIR (or /tmp) +
 * "/gt-serve-<pid>". */
ServiceConfig
resolveConfig(ServiceConfig cfg)
{
    if (!cfg.archiveDir.empty())
        return cfg;
    if (const char *dir = std::getenv("GT_SERVE_ARCHIVE_DIR");
        dir && *dir != '\0') {
        cfg.archiveDir = dir;
        return cfg;
    }
    const char *tmp = std::getenv("TMPDIR");
    std::string base = tmp && *tmp != '\0' ? tmp : "/tmp";
    cfg.archiveDir = base + "/gt-serve-" + std::to_string(::getpid());
    return cfg;
}

/** Approximate heap bytes of one selection. */
uint64_t
selectionBytes(const core::SubsetSelection &sel)
{
    return sel.intervals.size() * sizeof(core::Interval) +
           sel.selected.size() * sizeof(uint64_t) +
           sel.ratios.size() * sizeof(double);
}

} // namespace

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
WorkloadSession::addDispatches(
    const std::shared_ptr<const gtpin::KernelTable> &kernels,
    std::span<const gtpin::DispatchProfile> profiles,
    std::span<const cfl::KernelTiming> timings,
    std::span<const std::pair<uint64_t, uint64_t>> epochs,
    std::shared_ptr<SelectionMemo> memo)
{
    GT_ASSERT(profiles.size() == timings.size() &&
                  profiles.size() == epochs.size(),
              "bulk append stream mismatch: ", profiles.size(),
              " profiles, ", timings.size(), " timings, ",
              epochs.size(), " epoch assignments");
    std::lock_guard<std::mutex> lock(mutex);
    rehydrateLocked();
    // A memo speaks for exactly one artifact's rows: adopt it when
    // this batch fills the session from empty, drop it otherwise.
    artifactMemo = fed == 0 ? std::move(memo) : nullptr;
    builder.useKernels(kernels);
    for (size_t i = 0; i < profiles.size(); ++i) {
        GT_ASSERT(profiles[i].seq == timings[i].seq,
                  "profile/timing sequence mismatch at bulk row ", i);
        GT_ASSERT(epochs[i].first == profiles[i].seq,
                  "epoch assignment misaligned at bulk row ", i);
        feedLocked(profiles[i], timings[i].seconds, epochs[i].second);
    }
    fed += profiles.size();
    counters.dispatches += profiles.size();
}

void
WorkloadSession::feedLocked(const gtpin::DispatchProfile &profile,
                            double seconds, uint64_t epoch)
{
    builder.appendJoined(profile, seconds, epoch);
    // Lower the builder's own copy: @p profile may point into a
    // trace-store decode cache that later block touches recycle.
    const gtpin::DispatchProfile &joined =
        builder.profileAt(builder.numAppended() - 1);
    features.appendDispatch(joined, builder.kernels());
    for (ConfigState &cs : configs)
        cs.intervals.append(epoch, joined.instrs, seconds);
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
    for (size_t c = 0; c < configs.size(); ++c)
        refreshConfig(c);
}

void
WorkloadSession::refreshConfig(size_t c)
{
    ConfigState &cs = configs[c];
    if (fed == 0)
        return; // nothing to select from yet
    if (cs.hasSelection && cs.selectionAt == fed) {
        // The population gained no dispatches: the memoized
        // selection is still exact. This is also the evicted steady
        // state — answering from the memo is what keeps refresh()
        // from rehydrating every archived session.
        ++counters.reusedSelections;
        return;
    }
    if (!artifactMemo) {
        recluster(cs);
        return;
    }
    // The rows are exactly the memo's artifact: the first session to
    // get here clusters under the memo lock and publishes; every
    // other copies the bits it would have computed.
    std::lock_guard<std::mutex> lock(artifactMemo->mu);
    std::optional<core::SubsetSelection> &slot = artifactMemo->slots[c];
    if (slot) {
        cs.selection = *slot;
        cs.selectionAt = fed;
        cs.hasSelection = true;
        ++counters.sharedSelections;
        return;
    }
    recluster(cs);
    slot = cs.selection;
    artifactMemo->bytes += selectionBytes(cs.selection);
}

void
WorkloadSession::recluster(ConfigState &cs)
{
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
    cs.selectionAt = fed;
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
WorkloadSession::sealDatabase() const
{
    std::lock_guard<std::mutex> lock(mutex);
    // The archive *is* a columnar database of exactly the fed rows;
    // reopening it reproduces the sealed totals bit for bit.
    if (evicted && !archivePath.empty())
        return core::TraceDatabase::openColumnarFile(archivePath);
    return builder.seal();
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
    for (size_t c = 0; c < configs.size(); ++c)
        refreshConfig(c);
    if (builder.numAppended() > 0) {
        builder.writeArchive(archive_path);
        archivePath = archive_path;
    }
    // Everything else is reclaimed and reproducible from the
    // archive.
    builder = core::TraceDatabase::Builder();
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
    builder.useKernels(
        std::make_shared<const gtpin::KernelTable>(db.kernels()));
    builder.reserve(db.numDispatches());
    for (uint64_t i = 0; i < db.numDispatches(); ++i)
        feedLocked(db.profileAt(i), db.seconds(i), db.syncEpoch(i));
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
    for (const ConfigState &cs : configs)
        bytes += selectionBytes(cs.selection);
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
      plans(cfg.device),
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
                         const cfl::Recording &recording)
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
        workload->session = std::make_unique<WorkloadSession>(
            std::move(workload_name), cfg, pool);
        workload->id = t.workloads.size();
        t.workloads.push_back(std::move(workload));
        wl = t.workloads.back().get();
        id = wl->id;
    }

    // Single flight: the first submit of a recording owns its replay,
    // identical submits attach to the pending entry until the replay
    // publishes, and later ones find the complete artifact.
    std::shared_ptr<const core::ReplayArtifact> artifact;
    std::shared_ptr<SelectionMemo> memo;
    std::future<void> done;
    bool replay = false;
    {
        std::lock_guard<std::mutex> lock(artifacts.mu);
        auto [it, inserted] = artifacts.map.try_emplace(key);
        ArtifactEntry &entry = it->second;
        if (inserted) {
            entry.recording = recording;
            replay = true;
            ++artifacts.replays;
        } else {
            ++artifacts.hits;
            if (entry.artifact) {
                artifact = entry.artifact;
                memo = entry.memo;
            } else {
                entry.waiters.push_back({wl, {}});
                done = entry.waiters.back().fed.get_future();
            }
        }
    }

    if (artifact) {
        // The warm admission fast path: no replay and no pool hop —
        // the cached rows bulk-append on the calling thread, so warm
        // submission cost is O(rows) and independent of replay cost,
        // and the memo spares its refresh the clustering.
        feed(*wl, *artifact, memo);
        return id;
    }
    if (replay) {
        // Schedule outside every lock: on a 1-thread pool submit()
        // runs the replay inline.
        done = pool.submit([this, wl, key] { runReplay(*wl, key); });
    }
    std::lock_guard<std::mutex> lock(mutex);
    pendingReplays.push_back(std::move(done));
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
    std::exception_ptr first;
    for (std::future<void> &f : work) {
        try {
            f.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
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
    enforceBudget();
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
                st.sessions.sharedSelections += s.sharedSelections;
                st.sessions.reusedPoints += s.reusedPoints;
                st.sessions.projectedPoints += s.projectedPoints;
                st.sessions.evictions += s.evictions;
                st.sessions.rehydrations += s.rehydrations;
            }
        }
    }
    {
        std::lock_guard<std::mutex> lock(artifacts.mu);
        st.replays = artifacts.replays;
        st.artifactHits = artifacts.hits;
    }
    st.planCache = plans.stats();
    return st;
}

void
ProfilingService::runReplay(Workload &workload, uint64_t key)
{
    ArtifactEntry *entry = nullptr;
    {
        std::lock_guard<std::mutex> lock(artifacts.mu);
        entry = &artifacts.map.at(key);
    }
    std::shared_ptr<const core::ReplayArtifact> artifact;
    std::vector<Waiter> waiters;
    try {
        core::InstrumentedStack stack(cfg.device, cfg.trial,
                                      /*record=*/false, &plans);
        // Only this task writes a pending entry's recording, so it
        // reads it without the cache lock.
        cfl::replay(entry->recording, stack.runtime);
        artifact = std::make_shared<const core::ReplayArtifact>(
            stack.takeArtifact());
    } catch (...) {
        // Leave no entry behind, so a later submit replays again;
        // every attached submitter sees this failure from drain().
        {
            std::lock_guard<std::mutex> lock(artifacts.mu);
            waiters = std::move(entry->waiters);
            artifacts.map.erase(key);
        }
        for (Waiter &w : waiters)
            w.fed.set_exception(std::current_exception());
        throw;
    }
    auto memo = std::make_shared<SelectionMemo>(cfg.selections.size());
    {
        cfl::Recording replayed; // freed outside the cache lock
        std::lock_guard<std::mutex> lock(artifacts.mu);
        entry->artifact = artifact;
        entry->memo = memo;
        replayed = std::move(entry->recording);
        waiters = std::move(entry->waiters);
    }
    feed(workload, *artifact, memo);
    for (Waiter &w : waiters) {
        feed(*w.workload, *artifact, memo);
        w.fed.set_value();
    }
}

void
ProfilingService::feed(Workload &workload,
                       const core::ReplayArtifact &artifact,
                       const std::shared_ptr<SelectionMemo> &memo)
{
    workload.session->addDispatches(artifact.profiles.kernels,
                                    artifact.profiles.dispatches,
                                    artifact.timings, artifact.epochs,
                                    memo);
    workload.lastUse.store(useTicket.fetch_add(1),
                           std::memory_order_relaxed);
    workload.drained.store(true, std::memory_order_release);
    enforceBudget();
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
    if (cfg.maxResidentBytes == UINT64_MAX)
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
    size_t residentCount = 0; // for the log line only
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
        if (residentBytes <= cfg.maxResidentBytes)
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
    {
        std::lock_guard<std::mutex> lock(artifacts.mu);
        for (const auto &[key, entry] : artifacts.map) {
            (void)key;
            if (entry.artifact)
                fp.artifactBytes += entry.artifact->memoryBytes();
            if (entry.memo) {
                fp.selectionMemoBytes += entry.memo->bytes;
            }
            for (const ocl::ApiCallRecord &call : entry.recording.calls)
                fp.artifactBytes += call.footprintBytes();
        }
    }
    fp.traceCacheBytes = core::trace_store::threadCacheResidentBytes();
    fp.totalBytes = fp.sessionBytes + fp.evictedResidueBytes +
                    fp.memoBytes + fp.planCacheBytes +
                    fp.artifactBytes + fp.selectionMemoBytes +
                    fp.traceCacheBytes;
    return fp;
}

} // namespace gt::serve
