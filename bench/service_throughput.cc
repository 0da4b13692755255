/**
 * @file
 * Multi-tenant profiling-service benchmark: aggregate dispatch
 * throughput, warm-vs-cold admission latency, and bounded resident
 * memory at 1, 16, 64, and 256 tenants.
 *
 * Each scale point opens T tenants and submits the same three small
 * recorded applications to every one of them. Tenant 0 is the *cold*
 * set — its recordings replay for real on the shared pool. Every
 * later identical recording is *warm*: its session takes the cached
 * replay artifact inline in submit() (no replay scheduling, no pool
 * hop, no row copied), which is what the warm-vs-cold per-workload
 * speedup gate (>= 5x) measures.
 *
 * Every service runs under a fixed resident-byte budget: drained
 * sessions holding derived state are evicted LRU-first, so the
 * per-session state the service keeps hot is bounded by the budget,
 * not by tenant count. The resident gate fails the binary if the
 * summed derived session bytes exceed budget + slack at any scale,
 * read once every session is refreshed — 256 tenants must not cost
 * more resident session memory than 64.
 *
 * After draining, refreshAll() is timed twice: once bringing every
 * session up to date (each (recording, configuration) clusters once,
 * in whichever session gets there first; every other session shares
 * the recording's published selection), once answered entirely from
 * the sessions' held selections. The benchmark re-derives the
 * first (evicted) and last tenants' selections with a one-shot
 * selectSubset() over a sealed database and asserts bitwise
 * identity — and a pool-width sweep at widths {1, 4} repeats the
 * oracle check for zero-byte-budget services plus a direct session
 * fed, refreshed, evicted and rehydrated by a seal, pinning the
 * service's central contract in the same binary that reports its
 * speed.
 *
 *     cd /path/to/repo && build/bench/service_throughput
 *
 * Pass --smoke for the {1,64}-tenant CI variant (the 256-tenant
 * point and the 16-tenant curve fill are skipped; every gate is
 * kept). Results land in BENCH_service.json, or in
 * BENCH_service.smoke.json under --smoke.
 */

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "serve/service.hh"

using namespace gt;

namespace
{

// The smallest applications of the suite: replay cost stays bounded
// at 256 tenants while the dispatch counts are still large enough to
// exercise every interval scheme.
const std::vector<std::string> benchApps = {
    "cb-gaussian-image",
    "cb-gaussian-buffer",
    "cb-histogram-image",
};

/** Resident-byte budget every scale point runs under. Warm sessions
 * derive nothing: only the sessions that cluster derive state (over
 * 0.7 MB for the three apps). The budget sits below that, so every
 * scale point must evict to stay inside it. */
constexpr uint64_t residentBudgetBytes = 512ull << 10;

/** Slack the resident gate allows on top of the configured budget. */
constexpr uint64_t residentSlackBytes = 2ull << 20;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
assertSameSelection(const core::SubsetSelection &got,
                    const core::SubsetSelection &want,
                    const std::string &where)
{
    GT_ASSERT(got.intervals.size() == want.intervals.size(), where,
              ": interval division diverges from one-shot oracle");
    for (size_t i = 0; i < got.intervals.size(); ++i) {
        const core::Interval &a = got.intervals[i];
        const core::Interval &b = want.intervals[i];
        GT_ASSERT(a.firstDispatch == b.firstDispatch &&
                      a.lastDispatch == b.lastDispatch &&
                      a.instrs == b.instrs && a.seconds == b.seconds,
                  where, ": interval ", i, " diverges");
    }
    GT_ASSERT(got.selected == want.selected, where,
              ": selected representatives diverge");
    GT_ASSERT(got.ratios.size() == want.ratios.size(), where,
              ": ratio count diverges");
    for (size_t i = 0; i < got.ratios.size(); ++i) {
        GT_ASSERT(got.ratios[i] == want.ratios[i], where,
                  ": ratio ", i, " diverges");
    }
    GT_ASSERT(got.selectedInstrs == want.selectedInstrs &&
                  got.totalInstrs == want.totalInstrs,
              where, ": instruction totals diverge");
}

/** One-shot oracle: seal the session's database (derived from its
 * replay artifact when the session is evicted or holds no state) and
 * re-derive every configured selection with batch selectSubset();
 * all must match the session's refreshed selections bit for bit. */
void
verifySession(serve::WorkloadSession &session,
              const serve::ServiceConfig &cfg,
              const std::string &where)
{
    core::TraceDatabase db = session.sealDatabase();
    for (size_t c = 0; c < cfg.selections.size(); ++c) {
        const serve::SelectionConfig &sc = cfg.selections[c];
        core::SubsetSelection got = session.selection(c);
        core::SubsetSelection want =
            core::selectSubset(db, sc.scheme, sc.feature,
                               cfg.cluster, cfg.targetInstrs);
        assertSameSelection(got, want, where);
        GT_ASSERT(core::projectedSpi(db, got) ==
                      core::projectedSpi(db, want),
                  where, ": projected SPI diverges");
    }
}

struct ScaleResult
{
    unsigned tenants = 0;
    uint64_t workloads = 0, dispatches = 0;
    uint64_t replays = 0, artifactHits = 0;
    uint64_t evictions = 0;
    double submitS = 0.0, coldS = 0.0, warmS = 0.0;
    double refreshS = 0.0, refreshMemoS = 0.0;
    uint64_t residentSessionBytes = 0, memoBytes = 0;
    uint64_t sessionResidueBytes = 0;
    uint64_t footprintBytes = 0;
    serve::ServiceStats stats;

    double throughput() const { return (double)dispatches / submitS; }

    double coldPerWorkloadS() const
    {
        return coldS / (double)benchApps.size();
    }

    /** Average warm submit() latency (0 when only one tenant ran). */
    double
    warmPerWorkloadS() const
    {
        uint64_t warm = workloads - benchApps.size();
        return warm ? warmS / (double)warm : 0.0;
    }
};

ScaleResult
runScale(unsigned tenant_count,
         const std::vector<cfl::Recording> &recordings)
{
    serve::ServiceConfig cfg;
    cfg.maxResidentBytes = residentBudgetBytes;
    serve::ProfilingService service(cfg);

    // Cold set: tenant 0's recordings replay for real.
    auto t0 = std::chrono::steady_clock::now();
    std::vector<serve::ProfilingService::TenantId> ids;
    ids.push_back(service.openTenant("tenant-0"));
    for (size_t w = 0; w < recordings.size(); ++w)
        service.submit(ids[0], benchApps[w], recordings[w]);
    service.drain();

    ScaleResult r;
    r.tenants = tenant_count;
    r.coldS = secondsSince(t0);

    // Warm set: every later tenant hits the replay-artifact cache
    // and takes the artifact inline in submit().
    auto warm0 = std::chrono::steady_clock::now();
    for (unsigned t = 1; t < tenant_count; ++t) {
        ids.push_back(
            service.openTenant("tenant-" + std::to_string(t)));
        for (size_t w = 0; w < recordings.size(); ++w)
            service.submit(ids.back(), benchApps[w], recordings[w]);
    }
    service.drain();
    r.warmS = secondsSince(warm0);
    r.submitS = secondsSince(t0);

    r.workloads = tenant_count * recordings.size();
    for (unsigned t = 0; t < tenant_count; ++t) {
        for (size_t w = 0; w < recordings.size(); ++w) {
            r.dispatches +=
                service.session(ids[t], w).numDispatches();
        }
    }

    // First refresh brings every session up to date: a session
    // shares its recording's published selections, clustering only
    // the ones no earlier session published. The second is answered
    // entirely from the held selections.
    t0 = std::chrono::steady_clock::now();
    service.refreshAll();
    r.refreshS = secondsSince(t0);

    // Resident memory once clustering has derived state and the
    // refresh has enforced the budget: everything over budget has
    // been evicted, so session bytes are bounded by the budget, not
    // the tenant count.
    serve::ServiceFootprint fp = service.memoryFootprint();
    r.residentSessionBytes = fp.sessionBytes;
    r.memoBytes = fp.memoBytes;
    r.sessionResidueBytes = fp.sessionResidueBytes;
    r.footprintBytes = fp.totalBytes;

    t0 = std::chrono::steady_clock::now();
    service.refreshAll();
    r.refreshMemoS = secondsSince(t0);

    // Oracle differential on the first tenant (its sessions clustered,
    // so only they hold state the budget evicts) and the last (which
    // shares, so is never evicted); every tenant was fed the identical stream, and the
    // service tests cover the exhaustive per-session sweep.
    for (unsigned t : {0u, tenant_count - 1}) {
        for (size_t w = 0; w < recordings.size(); ++w) {
            verifySession(service.session(ids[t], w), cfg,
                          benchApps[w] + "@tenant" +
                              std::to_string(t));
        }
        if (tenant_count == 1)
            break;
    }

    r.stats = service.stats();
    r.replays = r.stats.replays;
    r.artifactHits = r.stats.artifactHits;
    r.evictions = r.stats.sessions.evictions;
    return r;
}

/**
 * Selection determinism across pool widths, covering the evicted
 * and rehydrated lifecycles the scale runs only sample:
 *
 *  - a zero-byte-budget service, which evicts every session that
 *    clusters (every session answers from selections refreshed at
 *    eviction, databases are derived again from the replay
 *    artifacts);
 *  - a direct session fed one artifact, refreshed, evicted, and
 *    rehydrated by sealing its database.
 *
 * Every selection must equal the one-shot oracle and be bitwise
 * identical across widths, and the direct session's must equal the
 * service's session of the same recording.
 */
void
poolWidthSweep(const std::vector<cfl::Recording> &recordings)
{
    const unsigned widths[] = {1, 4};
    std::vector<std::vector<core::SubsetSelection>> service_sels;
    std::vector<std::vector<core::SubsetSelection>> rehydrate_sels;

    // The direct session's artifact: the first app's rows, as its
    // replay produced them.
    const core::ProfiledApp &app = bench::profiledApp(benchApps[0]);
    auto artifact = std::make_shared<core::ReplayArtifact>();
    artifact->profiles.kernels =
        std::make_shared<const gtpin::KernelTable>(app.db.kernels());
    for (uint64_t d = 0; d < app.db.numDispatches(); ++d) {
        const gtpin::DispatchProfile &profile = app.db.profileAt(d);
        cfl::KernelTiming timing;
        timing.seq = d;
        timing.kernelName =
            artifact->profiles.kernels->at(profile.kernelId).name;
        timing.seconds = app.db.seconds(d);
        artifact->profiles.dispatches.push_back(profile);
        artifact->timings.push_back(std::move(timing));
        artifact->epochs.push_back({d, app.db.syncEpoch(d)});
    }

    for (unsigned width : widths) {
        sched::ThreadPool pool(width);
        serve::ServiceConfig cfg;
        cfg.pool = &pool;
        cfg.maxResidentBytes = 0;

        {
            serve::ProfilingService service(cfg);
            auto tenant = service.openTenant("sweep");
            for (size_t w = 0; w < recordings.size(); ++w)
                service.submit(tenant, benchApps[w], recordings[w]);
            service.drain();
            service.refreshAll();
            GT_ASSERT(service.stats().sessions.evictions ==
                          recordings.size(),
                      "zero-budget sweep left sessions resident");

            std::vector<core::SubsetSelection> sels;
            for (size_t w = 0; w < recordings.size(); ++w) {
                serve::WorkloadSession &session =
                    service.session(tenant, w);
                verifySession(session, cfg,
                              benchApps[w] + "@width" +
                                  std::to_string(width));
                for (size_t c = 0; c < cfg.selections.size(); ++c)
                    sels.push_back(session.selection(c));
            }
            service_sels.push_back(std::move(sels));
        }

        // Feed, refresh, evict, then rehydrate through a seal.
        serve::WorkloadSession session(benchApps[0], cfg, pool);
        session.addArtifact(artifact, nullptr);
        session.refresh();
        session.evict();
        GT_ASSERT(session.isEvicted(), "eviction did not stick");
        verifySession(session, cfg,
                      "rehydrate@width" + std::to_string(width));
        GT_ASSERT(!session.isEvicted(),
                  "sealing did not rehydrate the session");
        GT_ASSERT(session.stats().rehydrations == 1,
                  "expected exactly one rehydration");
        std::vector<core::SubsetSelection> sels;
        for (size_t c = 0; c < cfg.selections.size(); ++c) {
            sels.push_back(session.selection(c));
            assertSameSelection(sels.back(), service_sels.back()[c],
                                "direct session vs service@width" +
                                    std::to_string(width));
        }
        rehydrate_sels.push_back(std::move(sels));
    }

    for (auto *group : {&service_sels, &rehydrate_sels}) {
        for (size_t i = 1; i < group->size(); ++i) {
            GT_ASSERT((*group)[i].size() == (*group)[0].size(),
                      "pool-width sweep selection count diverges");
            for (size_t s = 0; s < (*group)[i].size(); ++s) {
                assertSameSelection((*group)[i][s], (*group)[0][s],
                                    "pool width " +
                                        std::to_string(widths[i]) +
                                        " vs 1");
            }
        }
    }
    std::cout << "pool-width sweep {1,4}: evicted + rehydrated "
                 "selections bitwise == one-shot oracle\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    const bool smoke = bench::stripSmokeFlag(argc, argv);

    // Recordings come from the cached profiled apps, so the replayed
    // streams carry exactly the dispatch population the selections
    // describe.
    std::vector<cfl::Recording> recordings;
    for (const std::string &name : benchApps)
        recordings.push_back(bench::profiledApp(name).recording);

    // CI smoke keeps the endpoints that exercise eviction (64) and
    // the cold baseline (1); the full run fills in the curve.
    std::vector<unsigned> scales;
    if (smoke)
        scales = {1, 64};
    else
        scales = {1, 16, 64, 256};

    std::vector<ScaleResult> results;
    for (unsigned tenants : scales) {
        results.push_back(runScale(tenants, recordings));
        const ScaleResult &r = results.back();
        std::cout << r.tenants << " tenant"
                  << (r.tenants == 1 ? "" : "s") << ": "
                  << r.dispatches << " dispatches in "
                  << fixed(r.submitS, 3) << " s  ("
                  << fixed(r.throughput() / 1000.0, 1)
                  << "k dispatches/s; " << r.replays
                  << " replays, " << r.artifactHits
                  << " artifact hits, " << r.evictions
                  << " evictions)\n"
                  << "  resident sessions "
                  << humanBytes(r.residentSessionBytes)
                  << " (budget "
                  << humanBytes(residentBudgetBytes)
                  << ", memoized selections "
                  << humanBytes(r.memoBytes)
                  << "); warm submit "
                  << fixed(r.warmPerWorkloadS() * 1e3, 2)
                  << " ms vs cold "
                  << fixed(r.coldPerWorkloadS() * 1e3, 2)
                  << " ms; refresh "
                  << fixed(r.refreshS * 1000.0, 1)
                  << " ms, memoized "
                  << fixed(r.refreshMemoS * 1000.0, 1)
                  << " ms; selections bitwise == one-shot oracle\n";
    }

    poolWidthSweep(recordings);

    const double scaling =
        results.back().throughput() / results.front().throughput();
    std::cout << "throughput scaling (" << results.back().tenants
              << " tenants vs 1): " << fixed(scaling, 1) << "x\n";

    // Warm-vs-cold speedup: geometric mean over every multi-tenant
    // scale of (cold replay latency / warm cached-append latency)
    // per workload.
    bench::GeoMean warm_speedup;
    for (const ScaleResult &r : results) {
        if (r.tenants > 1 && r.warmPerWorkloadS() > 0.0) {
            warm_speedup.add(r.coldPerWorkloadS() /
                             r.warmPerWorkloadS());
        }
    }
    std::cout << "warm-vs-cold submission speedup: "
              << fixed(warm_speedup.value(), 1) << "x\n";

    // Resident sessions must stay inside the configured budget
    // (plus eviction residue slack) at every scale.
    bool resident_bounded = true;
    uint64_t worst_resident = 0;
    for (const ScaleResult &r : results) {
        worst_resident =
            std::max(worst_resident, r.residentSessionBytes);
        if (r.residentSessionBytes >
            residentBudgetBytes + residentSlackBytes)
            resident_bounded = false;
    }

    bench::BenchReport report("BENCH_service.json", smoke);
    for (const ScaleResult &r : results) {
        report.addRow()
            .field("tenants", (uint64_t)r.tenants)
            .field("workloads", r.workloads)
            .field("dispatches", r.dispatches)
            .field("replays", r.replays)
            .field("artifact_hits", r.artifactHits)
            .field("evictions", r.evictions)
            .field("submit_s", r.submitS)
            .field("dispatches_per_s", r.throughput())
            .field("cold_workload_s", r.coldPerWorkloadS())
            .field("warm_workload_s", r.warmPerWorkloadS())
            .field("resident_session_bytes", r.residentSessionBytes)
            .field("memo_bytes", r.memoBytes)
            .field("session_residue_bytes", r.sessionResidueBytes)
            .field("footprint_bytes", r.footprintBytes)
            .field("refresh_s", r.refreshS)
            .field("refresh_memo_s", r.refreshMemoS);
    }
    const serve::ServiceStats &top = results.back().stats;
    report.scalar("resident_budget_bytes", residentBudgetBytes);
    report.scalar("plan_cache_builds", top.planCache.builds);
    report.scalar("plan_cache_hits", top.planCache.hits);
    report.scalar("sessions_reclustered", top.sessions.reclustered);
    report.scalar("sessions_memoized",
                  top.sessions.reusedSelections);
    report.scalar("sessions_shared", top.sessions.sharedSelections);
    report.scalar("sessions_evicted", top.sessions.evictions);
    report.scalar("throughput_scaling", scaling);
    report.scalar("warm_speedup", warm_speedup.value());
    report.gate("scaling_gate", scaling >= 3.0,
                "multi-tenant throughput scaling regressed below 3x: " +
                    std::to_string(scaling));
    report.gate("warm_speedup_gate", warm_speedup.value() >= 5.0,
                "warm submission speedup below 5x: " +
                    std::to_string(warm_speedup.value()));
    report.gate("resident_gate", resident_bounded,
                "resident session bytes exceed the configured "
                "budget: " +
                    std::to_string(worst_resident) + " > " +
                    std::to_string(residentBudgetBytes +
                                   residentSlackBytes));
    report.gate("evictions_gate",
                results.back().evictions > 0,
                "the largest scale point never evicted — the "
                "resident gate is not being exercised");
    return report.finish();
}
