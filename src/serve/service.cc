#include "serve/service.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/pipeline.hh"
#include "core/trace_store.hh"

namespace gt::serve
{

namespace
{

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
            nullptr});
    }
}

void
WorkloadSession::addArtifact(
    std::shared_ptr<const core::ReplayArtifact> rows,
    std::shared_ptr<SelectionMemo> memo)
{
    const size_t n = rows->profiles.dispatches.size();
    GT_ASSERT(n == rows->timings.size() && n == rows->epochs.size(),
              "replay artifact mismatch: ", n, " profiles, ",
              rows->timings.size(), " timings, ", rows->epochs.size(),
              " epoch assignments");
    std::lock_guard<std::mutex> lock(mutex);
    GT_ASSERT(!artifact, "session '", workloadName,
              "' was already fed: a session takes one artifact");
    // Nothing is joined until a clustering or a seal needs the state.
    artifact = std::move(rows);
    artifactMemo = std::move(memo);
    fed = n;
    counters.dispatches += n;
}

void
WorkloadSession::feedRowsLocked(
    const std::shared_ptr<const gtpin::KernelTable> &kernels,
    std::span<const gtpin::DispatchProfile> profiles,
    std::span<const cfl::KernelTiming> timings,
    std::span<const std::pair<uint64_t, uint64_t>> epochs)
{
    builder.useKernels(kernels);
    for (size_t i = 0; i < profiles.size(); ++i) {
        GT_ASSERT(profiles[i].seq == timings[i].seq,
                  "profile/timing sequence mismatch at row ", i);
        GT_ASSERT(epochs[i].first == profiles[i].seq,
                  "epoch assignment misaligned at row ", i);
        feedLocked(profiles[i], timings[i].seconds, epochs[i].second);
    }
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
    // Evictions refresh every selection first, so the common evicted
    // refresh is a pure sweep; only a clustering derives state.
    for (size_t c = 0; c < configs.size(); ++c)
        refreshConfig(c);
}

void
WorkloadSession::refreshConfig(size_t c)
{
    ConfigState &cs = configs[c];
    if (fed == 0)
        return; // nothing to select from yet
    if (cs.selection) {
        // The rows never change after the one feed: a held selection
        // is still exact. This is also the evicted steady state.
        ++counters.reusedSelections;
        return;
    }
    if (!artifactMemo) {
        cs.selection = recluster(cs);
        return;
    }
    // The first session to get here clusters under the memo lock and
    // publishes; every other shares the selection it would have
    // computed.
    std::lock_guard<std::mutex> lock(artifactMemo->mu);
    std::shared_ptr<const core::SubsetSelection> &slot =
        artifactMemo->slots[c];
    if (slot) {
        ++counters.sharedSelections;
    } else {
        slot = recluster(cs);
        artifactMemo->bytes += selectionBytes(*slot);
    }
    cs.selection = slot;
}

std::shared_ptr<const core::SubsetSelection>
WorkloadSession::recluster(const ConfigState &cs)
{
    // A session without its state derives it first.
    rehydrateLocked();

    features.refreshColumns();
    if (table.size() != features.numKeys()) {
        table = core::simpoint::ProjectionTable::build(
            features.uniqueKeys());
    }
    std::vector<core::Interval> intervals = cs.intervals.snapshot();
    std::vector<core::simpoint::Point> points =
        features.projectAll(intervals, cs.config.feature, table);
    ++counters.reclustered;
    return std::make_shared<const core::SubsetSelection>(
        core::selectFromProjected(cs.config.scheme, cs.config.feature,
                                  std::move(intervals), points,
                                  builder.totalInstrs(),
                                  clusterOptions));
}

core::SubsetSelection
WorkloadSession::selection(size_t config) const
{
    std::lock_guard<std::mutex> lock(mutex);
    GT_ASSERT(config < configs.size(), "selection config ", config,
              " out of range (", configs.size(), " configured)");
    GT_ASSERT(configs[config].selection,
              "no refresh() has run since the feed");
    return *configs[config].selection;
}

uint64_t
WorkloadSession::numDispatches() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return fed;
}

core::TraceDatabase
WorkloadSession::sealDatabase()
{
    std::lock_guard<std::mutex> lock(mutex);
    rehydrateLocked();
    return builder.seal();
}

void
WorkloadSession::evict()
{
    std::lock_guard<std::mutex> lock(mutex);
    if (evicted)
        return;
    // Refresh every selection first: an evicted session keeps
    // answering refresh()/selection() from them, so draining a fleet
    // and refreshing it stays cheap and never re-derives state.
    for (size_t c = 0; c < configs.size(); ++c)
        refreshConfig(c);
    // Everything else is reclaimed and reproducible from the
    // artifact.
    builder = core::TraceDatabase::Builder();
    features = core::DispatchFeatureCache();
    table = core::simpoint::ProjectionTable();
    for (ConfigState &cs : configs) {
        cs.intervals = core::IncrementalIntervals(cs.config.scheme,
                                                  targetInstrs);
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
    if (evicted) {
        evicted = false;
        ++counters.rehydrations;
    }
    if (builder.numAppended() == fed)
        return; // the state holds every row (or none was fed)
    builder.reserve(fed);
    feedRowsLocked(artifact->profiles.kernels,
                   artifact->profiles.dispatches, artifact->timings,
                   artifact->epochs);
}

uint64_t
WorkloadSession::memoryBytes() const
{
    std::lock_guard<std::mutex> lock(mutex);
    if (builder.numAppended() == 0)
        return 0; // nothing derived
    uint64_t bytes = builder.memoryBytes() + features.memoryBytes();
    bytes += table.size() * sizeof(core::simpoint::Point);
    for (const ConfigState &cs : configs)
        bytes += cs.intervals.memoryBytes();
    return bytes;
}

uint64_t
WorkloadSession::residueBytes() const
{
    // The name and the config list are fixed at construction.
    return sizeof(*this) + workloadName.size() +
           configs.size() * sizeof(ConfigState);
}

uint64_t
WorkloadSession::memoBytes() const
{
    std::lock_guard<std::mutex> lock(mutex);
    if (artifactMemo)
        return 0; // every held selection is the memo's
    uint64_t bytes = 0;
    for (const ConfigState &cs : configs) {
        if (cs.selection)
            bytes += selectionBytes(*cs.selection);
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
    : cfg(std::move(config)),
      pool(cfg.pool ? *cfg.pool : sched::ThreadPool::global()),
      plans(cfg.device)
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
        // The warm admission fast path: no replay, no pool hop and no
        // row copied — the session takes the cached artifact on the
        // calling thread, and the memo spares its refresh the
        // clustering.
        feed(*wl, artifact, memo);
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
    feed(workload, artifact, memo);
    for (Waiter &w : waiters) {
        feed(*w.workload, artifact, memo);
        w.fed.set_value();
    }
}

void
ProfilingService::feed(
    Workload &workload,
    const std::shared_ptr<const core::ReplayArtifact> &artifact,
    const std::shared_ptr<SelectionMemo> &memo)
{
    workload.session->addArtifact(artifact, memo);
    workload.lastUse.store(useTicket.fetch_add(1),
                           std::memory_order_relaxed);
    enforceBudget();
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
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (const auto &t : tenants) {
            for (const auto &w : t->workloads) {
                // 0 for an evicted session, or one that derived
                // nothing (a session derives only after its feed):
                // evicting it would free nothing.
                uint64_t bytes = w->session->memoryBytes();
                if (bytes == 0)
                    continue;
                residentBytes += bytes;
                evictable.push_back(
                    {w.get(), w->lastUse.load(std::memory_order_relaxed),
                     bytes});
            }
        }
    }
    size_t residentCount = evictable.size(); // for the log line only
    std::sort(evictable.begin(), evictable.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.lastUse < b.lastUse;
              });

    for (const Candidate &cand : evictable) {
        if (residentBytes <= cfg.maxResidentBytes)
            break;
        WorkloadSession &session = *cand.workload->session;
        session.evict();
        residentBytes -= std::min(cand.bytes, residentBytes);
        --residentCount;
        inform("serve: evicted '", session.name(), "' (",
               humanBytes(cand.bytes), "); ", residentCount,
               " sessions / ", humanBytes(residentBytes), " resident");
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
                fp.sessionBytes += w->session->memoryBytes();
                fp.sessionResidueBytes += w->session->residueBytes();
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
    fp.totalBytes = fp.sessionBytes + fp.sessionResidueBytes +
                    fp.memoBytes + fp.planCacheBytes +
                    fp.artifactBytes + fp.selectionMemoBytes +
                    fp.traceCacheBytes;
    return fp;
}

} // namespace gt::serve
