/**
 * @file
 * Profiling-service differential tests: the streaming
 * TraceDatabase::Builder, incremental interval division, streaming
 * feature columns, session selection refresh, eviction, and the
 * shared content-addressed caches.
 *
 * The service's central contract is "session == one-shot, bitwise":
 * a session fed one replay artifact must answer with exactly the
 * database, intervals, feature vectors, and selections a batch
 * pipeline run over the same rows produces, however it was evicted,
 * rehydrated or shared. These tests pin that equivalence across
 * schemes, artifact prefixes, budgets, and pool widths, plus the
 * cache-sharing rules ("fully built => const, shareable", one replay
 * per recording) under real concurrency — the `service` label puts
 * the whole file under TSan in the tsan preset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/pipeline.hh"
#include "gtpin/tools.hh"
#include "serve/service.hh"
#include "workloads/templates.hh"

namespace gt::serve
{
namespace
{

using core::Interval;
using core::IntervalScheme;
using core::TraceDatabase;

struct Inputs
{
    std::vector<gtpin::DispatchProfile> profiles;
    std::shared_ptr<const gtpin::KernelTable> kernels;
    std::vector<cfl::KernelTiming> timings;
    std::vector<ocl::ApiCallRecord> calls;
    core::EpochAssignments epochs; //!< assignEpochs(calls)
};

/** Deterministic synthetic suite shaped like the profiled apps: a
 * dozen distinct kernels, each with its own static block arrays,
 * re-dispatched many times, small block vectors, syncs every
 * handful of kernels. */
Inputs
makeInputs(uint64_t n, uint64_t seed = 0x5eedf00d)
{
    Rng rng(seed);
    Inputs in;
    auto kernels = std::make_shared<gtpin::KernelTable>();
    for (uint32_t kernel = 0; kernel < 12; ++kernel) {
        gtpin::KernelStatic k;
        k.name = "suite_kernel_" + std::to_string(kernel);
        for (size_t b = 0; b < 2 + kernel % 4; ++b) {
            k.blockLens.push_back(4 + (uint32_t)(rng.next() % 12));
            k.blockReadBytes.push_back((uint32_t)(rng.next() % 512));
            k.blockWriteBytes.push_back((uint32_t)(rng.next() % 512));
        }
        kernels->set(kernel, std::move(k));
    }
    in.kernels = kernels;
    uint64_t idx = 0;
    for (uint64_t i = 0; i < n; ++i) {
        uint32_t kernel = (uint32_t)(rng.next() % 12);
        const gtpin::KernelStatic &k = kernels->at(kernel);
        gtpin::DispatchProfile p;
        p.seq = i;
        p.kernelId = kernel;
        p.globalWorkSize = 64 << (kernel % 4);
        p.argsHash = rng.next();
        p.blockCounts.resize(k.numBlocks());
        for (size_t b = 0; b < k.numBlocks(); ++b) {
            p.blockCounts[b] = rng.next() % 5000;
            p.instrs += p.blockCounts[b] * k.blockLens[b];
            p.bytesRead += p.blockCounts[b] * k.blockReadBytes[b];
            p.bytesWritten += p.blockCounts[b] * k.blockWriteBytes[b];
        }
        in.profiles.push_back(std::move(p));

        cfl::KernelTiming t;
        t.seq = i;
        t.kernelName = k.name;
        t.seconds = (double)(rng.next() >> 11) * 0x1.0p-53 * 1e-3;
        in.timings.push_back(t);

        ocl::ApiCallRecord call;
        call.callIndex = idx++;
        call.id = ocl::ApiCallId::EnqueueNDRangeKernel;
        call.dispatchSeq = i;
        in.calls.push_back(call);
        if (rng.next() % 7 == 0) {
            ocl::ApiCallRecord sync;
            sync.callIndex = idx++;
            sync.id = ocl::ApiCallId::Finish;
            in.calls.push_back(sync);
        }
    }
    in.epochs = core::assignEpochs(in.calls);
    return in;
}

/** A replay artifact holding rows [first, last) of @p in. */
std::shared_ptr<const core::ReplayArtifact>
artifactOf(const Inputs &in, size_t first, size_t last)
{
    auto slice = [&](const auto &v) {
        return std::decay_t<decltype(v)>(v.begin() + (long)first,
                                         v.begin() + (long)last);
    };
    auto artifact = std::make_shared<core::ReplayArtifact>();
    artifact->profiles.kernels = in.kernels;
    artifact->profiles.dispatches = slice(in.profiles);
    artifact->timings = slice(in.timings);
    artifact->epochs = slice(in.epochs);
    return artifact;
}

void
expectSameDb(const TraceDatabase &got, const TraceDatabase &want)
{
    ASSERT_EQ(got.numDispatches(), want.numDispatches());
    EXPECT_EQ(got.totalInstrs(), want.totalInstrs());
    EXPECT_EQ(got.totalSeconds(), want.totalSeconds());
    EXPECT_EQ(got.numSyncEpochs(), want.numSyncEpochs());
    for (uint64_t d = 0; d < got.numDispatches(); ++d) {
        EXPECT_EQ(got.profileAt(d).instrs, want.profileAt(d).instrs);
        EXPECT_EQ(got.seconds(d), want.seconds(d));
        EXPECT_EQ(got.syncEpoch(d), want.syncEpoch(d));
    }
}

void
expectSameIntervals(const std::vector<Interval> &got,
                    const std::vector<Interval> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].firstDispatch, want[i].firstDispatch);
        EXPECT_EQ(got[i].lastDispatch, want[i].lastDispatch);
        EXPECT_EQ(got[i].instrs, want[i].instrs);
        EXPECT_EQ(got[i].seconds, want[i].seconds);
    }
}

void
expectSameSelection(const core::SubsetSelection &got,
                    const core::SubsetSelection &want)
{
    expectSameIntervals(got.intervals, want.intervals);
    EXPECT_EQ(got.selected, want.selected);
    ASSERT_EQ(got.ratios.size(), want.ratios.size());
    for (size_t i = 0; i < got.ratios.size(); ++i)
        EXPECT_EQ(got.ratios[i], want.ratios[i]);
    EXPECT_EQ(got.selectedInstrs, want.selectedInstrs);
    EXPECT_EQ(got.totalInstrs, want.totalInstrs);
}

/** Walk @p in in API-call order: @p consume(call) for every call,
 * @p row(d) right after dispatch d's Kernel call, so a row callback
 * knows the call-stream prefix issued up to its dispatch. */
template <typename CallFn, typename RowFn>
void
streamInputs(const Inputs &in, CallFn &&consume, RowFn &&row)
{
    for (const ocl::ApiCallRecord &call : in.calls) {
        consume(call);
        if (call.id == ocl::ApiCallId::EnqueueNDRangeKernel)
            row(call.dispatchSeq);
    }
}

// ---------------------------------------------------------------
// Incremental TraceDatabase::Builder vs. batch build().

TEST(ServeBuilder, SealMatchesBatchBuildAtEveryChunk)
{
    const uint64_t n = 300;
    Inputs in = makeInputs(n);
    for (uint64_t chunk : {uint64_t(1), uint64_t(3), uint64_t(256)}) {
        TraceDatabase::Builder builder;
        builder.useKernels(in.kernels);
        uint64_t calls_seen = 0;
        streamInputs(
            in, [&](const ocl::ApiCallRecord &) { ++calls_seen; },
            [&](uint64_t d) {
                builder.appendJoined(in.profiles[d],
                                     in.timings[d].seconds,
                                     in.epochs[d].second);
                if ((d + 1) % chunk != 0 && d + 1 != n)
                    return;
                // Batch-join the same prefix, walking epochs over
                // only the calls issued so far: the full stream's
                // assignments must agree on every prefix.
                TraceDatabase want = TraceDatabase::build(
                    {{in.profiles.begin(),
                      in.profiles.begin() + (long)(d + 1)},
                     in.kernels},
                    {in.timings.begin(),
                     in.timings.begin() + (long)(d + 1)},
                    {in.calls.begin(),
                     in.calls.begin() + (long)calls_seen});
                expectSameDb(builder.seal(), want);
            });
    }
}

// ---------------------------------------------------------------
// Incremental interval division vs. buildIntervals(), 3 schemes x
// feed granularities {1, 3, 256}.

struct IntervalCase
{
    IntervalScheme scheme;
    uint64_t target;
};

// Prints the fields, not the raw bytes with their uninitialised
// padding, so the listed test names are the same on every build.
void
PrintTo(const IntervalCase &c, std::ostream *os)
{
    *os << intervalSchemeName(c.scheme) << " target " << c.target;
}

class IncrementalIntervalTest
    : public ::testing::TestWithParam<IntervalCase>
{
};

TEST_P(IncrementalIntervalTest, AppendMatchesBatchAtEveryChunk)
{
    const IntervalCase param = GetParam();
    const uint64_t n = 300;
    Inputs in = makeInputs(n);

    for (uint64_t chunk : {uint64_t(1), uint64_t(3), uint64_t(256)}) {
        TraceDatabase::Builder builder;
        builder.useKernels(in.kernels);
        core::IncrementalIntervals inc(param.scheme, param.target);
        std::vector<Interval> prev;
        size_t prev_completed = 0;
        streamInputs(
            in, [](const ocl::ApiCallRecord &) {},
            [&](uint64_t d) {
                builder.appendJoined(in.profiles[d],
                                     in.timings[d].seconds,
                                     in.epochs[d].second);
                inc.append(builder.syncEpoch(d),
                           in.profiles[d].instrs,
                           in.timings[d].seconds);
                if ((d + 1) % chunk != 0 && d + 1 != n)
                    return;
                std::vector<Interval> got = inc.snapshot();
                expectSameIntervals(
                    got, core::buildIntervals(builder.seal(),
                                              param.scheme,
                                              param.target));
                // Completed intervals are final: the previous
                // snapshot's completed prefix reappears unchanged.
                ASSERT_LE(inc.numCompleted(), got.size());
                ASSERT_LE(prev_completed, inc.numCompleted());
                for (size_t i = 0; i < prev_completed; ++i) {
                    EXPECT_EQ(prev[i].lastDispatch,
                              got[i].lastDispatch);
                    EXPECT_EQ(prev[i].instrs, got[i].instrs);
                }
                prev = std::move(got);
                prev_completed = inc.numCompleted();
            });
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndTargets, IncrementalIntervalTest,
    ::testing::Values(
        IntervalCase{IntervalScheme::SyncBounded, 0},
        IntervalCase{IntervalScheme::ApproxInstructions, 0},
        IntervalCase{IntervalScheme::ApproxInstructions, 40000},
        IntervalCase{IntervalScheme::SingleKernel, 0}),
    [](const auto &info) {
        std::string out;
        for (char c : std::string(intervalSchemeName(info.param.scheme)))
            out += std::isalnum((unsigned char)c) ? c : '_';
        return out + "_target" + std::to_string(info.param.target);
    });

// ---------------------------------------------------------------
// Incremental feature columns vs. batch construction.

TEST(ServeFeatures, StreamingCacheMatchesBatch)
{
    const uint64_t n = 200;
    Inputs in = makeInputs(n);
    TraceDatabase db = TraceDatabase::build({in.profiles, in.kernels},
                                            in.timings, in.calls);

    core::DispatchFeatureCache batch(db);
    core::DispatchFeatureCache inc;
    for (uint64_t d = 0; d < n; ++d) {
        inc.appendDispatch(db.profileAt(d), db.kernels());
        if (d % 17 == 0)
            inc.refreshColumns(); // must not disturb later appends
    }
    inc.refreshColumns();
    ASSERT_EQ(inc.uniqueKeys(), batch.uniqueKeys());

    auto intervals =
        core::buildIntervals(db, IntervalScheme::SyncBounded);
    core::simpoint::ProjectionTable table =
        core::simpoint::ProjectionTable::build(batch.uniqueKeys());
    core::DispatchFeatureCache::Scratch sa, sb;
    for (const Interval &iv : intervals) {
        for (int k = 0; k < core::numFeatureKinds; ++k) {
            core::FeatureKind kind = (core::FeatureKind)k;
            EXPECT_EQ(inc.extract(iv, kind, sa).values(),
                      batch.extract(iv, kind, sb).values());
            EXPECT_EQ(inc.projectInto(iv, kind, sa, table),
                      batch.projectInto(iv, kind, sb, table));
        }
    }
}

// ---------------------------------------------------------------
// Session selection refresh vs. one-shot selectSubset().

TEST(ServeSession, RefreshMatchesOneShotAtEveryCadence)
{
    // One fresh session per artifact prefix, as the service makes one
    // per submission: every configured selection must equal a
    // one-shot batch selection over the database it seals.
    Inputs in = makeInputs(240);
    sched::ThreadPool pool(1);
    ServiceConfig cfg;
    for (size_t prefix : {61, 122, 183, 240}) {
        SCOPED_TRACE("prefix " + std::to_string(prefix));
        WorkloadSession session("synthetic", cfg, pool);
        session.addArtifact(artifactOf(in, 0, prefix), nullptr);
        session.refresh();
        TraceDatabase db = session.sealDatabase();
        EXPECT_EQ(db.numDispatches(), prefix);
        for (size_t c = 0; c < cfg.selections.size(); ++c) {
            const SelectionConfig &sc = cfg.selections[c];
            expectSameSelection(
                session.selection(c),
                core::selectSubset(db, sc.scheme, sc.feature,
                                   cfg.cluster, cfg.targetInstrs));
        }
        SessionStats stats = session.stats();
        EXPECT_EQ(stats.dispatches, prefix);
        EXPECT_EQ(stats.reclustered, cfg.selections.size());
    }
}

TEST(ServeSession, RefreshIsPoolWidthInvariant)
{
    Inputs in = makeInputs(160);
    ServiceConfig cfg;
    std::vector<core::SubsetSelection> want;
    for (unsigned width : {1u, 4u}) {
        sched::ThreadPool pool(width);
        WorkloadSession session("synthetic", cfg, pool);
        session.addArtifact(artifactOf(in, 0, in.profiles.size()),
                            nullptr);
        session.refresh();
        for (size_t c = 0; c < cfg.selections.size(); ++c) {
            if (width == 1)
                want.push_back(session.selection(c));
            else
                expectSameSelection(session.selection(c), want[c]);
        }
    }
}

TEST(ServeSession, MemoizedRefreshSkipsUnchangedConfigs)
{
    Inputs in = makeInputs(120);
    sched::ThreadPool pool(1);
    ServiceConfig cfg;
    WorkloadSession session("synthetic", cfg, pool);
    session.addArtifact(artifactOf(in, 0, in.profiles.size()), nullptr);
    session.refresh();
    SessionStats after_first = session.stats();
    EXPECT_EQ(after_first.reclustered, cfg.selections.size());
    EXPECT_EQ(after_first.reusedSelections, 0u);

    // The rows never change: the second refresh answers every config
    // from the held selection, and the selections are the same.
    std::vector<core::SubsetSelection> before;
    for (size_t c = 0; c < cfg.selections.size(); ++c)
        before.push_back(session.selection(c));
    session.refresh();
    SessionStats after_second = session.stats();
    EXPECT_EQ(after_second.reclustered, cfg.selections.size());
    EXPECT_EQ(after_second.reusedSelections, cfg.selections.size());
    for (size_t c = 0; c < cfg.selections.size(); ++c)
        expectSameSelection(session.selection(c), before[c]);
}

const core::ProfiledApp &gaussianApp();

/** Selections of every config of @p session against a one-shot
 * selectSubset() over the database it seals. */
void
expectMatchesOneShot(WorkloadSession &session, const ServiceConfig &cfg)
{
    TraceDatabase db = session.sealDatabase();
    for (size_t c = 0; c < cfg.selections.size(); ++c) {
        const SelectionConfig &sc = cfg.selections[c];
        expectSameSelection(session.selection(c),
                            core::selectSubset(db, sc.scheme, sc.feature,
                                               cfg.cluster,
                                               cfg.targetInstrs));
    }
}

TEST(ServeMemo, AdoptedMemoAnswersWithoutClustering)
{
    Inputs in = makeInputs(150);
    sched::ThreadPool pool(1);
    ServiceConfig cfg;
    const size_t configs = cfg.selections.size();
    auto memo = std::make_shared<SelectionMemo>(configs);
    auto rows = artifactOf(in, 0, in.profiles.size());

    // The first session fills every slot...
    WorkloadSession first("synthetic", cfg, pool);
    first.addArtifact(rows, memo);
    first.refresh();
    EXPECT_EQ(first.stats().reclustered, configs);
    EXPECT_EQ(first.stats().sharedSelections, 0u);
    for (size_t c = 0; c < configs; ++c)
        EXPECT_NE(memo->slots[c], nullptr);
    EXPECT_GT(memo->bytes.load(), 0u);

    // ...and a session fed the same rows shares them, bitwise equal
    // to the one-shot oracle, without running k-means or deriving
    // any state.
    WorkloadSession warm("synthetic", cfg, pool);
    warm.addArtifact(rows, memo);
    warm.refresh();
    SessionStats stats = warm.stats();
    EXPECT_EQ(stats.reclustered, 0u);
    EXPECT_EQ(stats.sharedSelections, configs);
    EXPECT_EQ(warm.memoryBytes(), 0u);
    expectMatchesOneShot(warm, cfg);
}

TEST(ServeMemo, SharedSlotsCostTheSessionNoMemoBytes)
{
    Inputs in = makeInputs(150);
    sched::ThreadPool pool(1);
    ServiceConfig cfg;
    auto memo = std::make_shared<SelectionMemo>(cfg.selections.size());
    auto rows = artifactOf(in, 0, in.profiles.size());

    // A session without a memo holds its selections alone.
    WorkloadSession alone("synthetic", cfg, pool);
    alone.addArtifact(rows, nullptr);
    alone.refresh();
    EXPECT_GT(alone.memoBytes(), 0u);

    // The session that publishes every slot and the warm one that
    // shares them both hold only the memo's selections: the memo
    // counts them once, neither session counts them again.
    WorkloadSession first("synthetic", cfg, pool);
    first.addArtifact(rows, memo);
    WorkloadSession warm("synthetic", cfg, pool);
    warm.addArtifact(rows, memo);
    first.refresh();
    warm.refresh();
    ASSERT_EQ(warm.stats().sharedSelections, cfg.selections.size());
    EXPECT_EQ(first.memoBytes(), 0u);
    EXPECT_EQ(warm.memoBytes(), 0u);
    EXPECT_EQ(memo->bytes.load(), alone.memoBytes());
    for (size_t c = 0; c < cfg.selections.size(); ++c)
        expectSameSelection(warm.selection(c), alone.selection(c));
}

// ---------------------------------------------------------------
// Recording content hash.

/** A small recording touching every hashed field. */
cfl::Recording
hashRecording()
{
    cfl::Recording rec;
    ocl::ApiCallRecord program;
    program.id = ocl::ApiCallId::CreateProgramWithSource;
    program.callIndex = 0;
    program.uargs = {1};
    program.sources.push_back({"scale", "elementwise", {4, -2, 9}});
    rec.calls.push_back(program);

    ocl::ApiCallRecord write;
    write.id = ocl::ApiCallId::EnqueueWriteBuffer;
    write.callIndex = 1;
    write.uargs = {1, 2, 0};
    for (int i = 0; i < 21; ++i)
        write.payload.push_back((uint8_t)(i * 37 + 5));
    rec.calls.push_back(write);

    ocl::ApiCallRecord dispatch;
    dispatch.id = ocl::ApiCallId::EnqueueNDRangeKernel;
    dispatch.callIndex = 2;
    dispatch.dispatchSeq = 7;
    dispatch.kernelName = "scale";
    dispatch.globalWorkSize = 4096;
    dispatch.argsHash = 0xfeedfacecafebeefULL;
    dispatch.uargs = {1, 3, 4096, 1};
    rec.calls.push_back(dispatch);
    return rec;
}

TEST(ServeHash, EqualContentHashesEqual)
{
    cfl::Recording a = hashRecording();
    cfl::Recording b = hashRecording();
    EXPECT_EQ(cfl::recordingContentHash(a),
              cfl::recordingContentHash(b));
    const cfl::Recording &app = gaussianApp().recording;
    cfl::Recording copy = app;
    EXPECT_EQ(cfl::recordingContentHash(copy),
              cfl::recordingContentHash(app));
    EXPECT_NE(cfl::recordingContentHash(a),
              cfl::recordingContentHash(app));
}

TEST(ServeHash, EveryFieldChangesTheHash)
{
    const uint64_t base = cfl::recordingContentHash(hashRecording());
    using Edit = std::function<void(cfl::Recording &)>;
    const std::vector<std::pair<const char *, Edit>> edits = {
        {"id",
         [](cfl::Recording &r) {
             r.calls[2].id = ocl::ApiCallId::Finish;
         }},
        {"callIndex", [](cfl::Recording &r) { r.calls[2].callIndex++; }},
        {"dispatchSeq",
         [](cfl::Recording &r) { r.calls[2].dispatchSeq++; }},
        {"kernelName",
         [](cfl::Recording &r) { r.calls[2].kernelName = "scalf"; }},
        {"globalWorkSize",
         [](cfl::Recording &r) { r.calls[2].globalWorkSize *= 2; }},
        {"argsHash", [](cfl::Recording &r) { r.calls[2].argsHash ^= 1; }},
        {"uarg", [](cfl::Recording &r) { r.calls[2].uargs[2]++; }},
        {"payload",
         [](cfl::Recording &r) { r.calls[1].payload[10] ^= 0x80; }},
        {"source name",
         [](cfl::Recording &r) { r.calls[0].sources[0].name += "x"; }},
        {"source template",
         [](cfl::Recording &r) {
             r.calls[0].sources[0].templateName = "reduce";
         }},
        {"source param",
         [](cfl::Recording &r) { r.calls[0].sources[0].params[1]--; }},
    };
    for (const auto &[what, edit] : edits) {
        cfl::Recording r = hashRecording();
        edit(r);
        EXPECT_NE(cfl::recordingContentHash(r), base) << what;
    }
}

TEST(ServeHash, PayloadTailBytesChangeTheHash)
{
    // 0-17 bytes covers an empty run, a lone partial word, exactly
    // one and two words, and a partial word after whole ones.
    std::vector<uint64_t> seen;
    for (size_t n = 0; n <= 17; ++n) {
        cfl::Recording r = hashRecording();
        std::vector<uint8_t> &payload = r.calls[1].payload;
        payload.resize(n);
        for (size_t i = 0; i < n; ++i)
            payload[i] = (uint8_t)(i * 29 + 3);
        uint64_t h = cfl::recordingContentHash(r);
        seen.push_back(h);
        if (n == 0)
            continue;
        for (uint8_t flip : {uint8_t(0x01), uint8_t(0x80)}) {
            payload.back() ^= flip;
            EXPECT_NE(cfl::recordingContentHash(r), h)
                << n << " bytes, flip " << (int)flip;
            payload.back() ^= flip;
        }
        // A zero last byte is not the same as a shorter payload.
        payload.back() = 0;
        EXPECT_NE(cfl::recordingContentHash(r), seen[n - 1]) << n;
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

// ---------------------------------------------------------------
// The full service on a real recorded application.

const core::ProfiledApp &
gaussianApp()
{
    static const core::ProfiledApp app = core::profileApp(
        *workloads::findWorkload("cb-gaussian-image"));
    return app;
}

TEST(ServeService, ReplayedSessionMatchesOneShot)
{
    const core::ProfiledApp &app = gaussianApp();
    ProfilingService service;
    auto tenant = service.openTenant("t0");
    auto wl = service.submit(tenant, app.name, app.recording);
    service.drain();
    service.refreshAll();

    WorkloadSession &session = service.session(tenant, wl);
    EXPECT_EQ(session.numDispatches(), app.db.numDispatches());
    TraceDatabase db = session.sealDatabase();
    expectSameDb(db, app.db);

    const ServiceConfig &cfg = service.config();
    for (size_t c = 0; c < cfg.selections.size(); ++c) {
        const SelectionConfig &sc = cfg.selections[c];
        expectSameSelection(
            session.selection(c),
            core::selectSubset(db, sc.scheme, sc.feature,
                               cfg.cluster, cfg.targetInstrs));
    }
}

TEST(ServeService, IdenticalRecordingsShareReplayArtifacts)
{
    const core::ProfiledApp &app = gaussianApp();
    ProfilingService service;
    auto t0 = service.openTenant("t0");
    auto t1 = service.openTenant("t1");
    auto w0 = service.submit(t0, app.name, app.recording);
    auto w1 = service.submit(t1, app.name, app.recording);
    service.drain();
    service.refreshAll();

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.tenants, 2u);
    EXPECT_EQ(stats.workloads, 2u);
    EXPECT_EQ(stats.replays, 1u);
    EXPECT_EQ(stats.artifactHits, 1u);
    EXPECT_GT(stats.planCache.builds, 0u);

    // The artifact-fed session is indistinguishable from the
    // replayed one.
    WorkloadSession &a = service.session(t0, w0);
    WorkloadSession &b = service.session(t1, w1);
    expectSameDb(a.sealDatabase(), b.sealDatabase());
    for (size_t c = 0; c < service.config().selections.size(); ++c)
        expectSameSelection(a.selection(c), b.selection(c));
}

TEST(ServeService, ConcurrentTenantsAgreeBitwise)
{
    const core::ProfiledApp &app = gaussianApp();
    sched::ThreadPool pool(4);
    ServiceConfig cfg;
    cfg.pool = &pool;
    ProfilingService service(cfg);

    const unsigned tenants = 6;
    std::vector<ProfilingService::TenantId> ids;
    for (unsigned t = 0; t < tenants; ++t) {
        ids.push_back(
            service.openTenant("t" + std::to_string(t)));
        service.submit(ids.back(), app.name, app.recording);
    }
    service.drain();
    service.refreshAll();

    // Single flight: one replay, every other submit attached to it
    // or hit the published artifact.
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.replays, 1u);
    EXPECT_EQ(stats.artifactHits, (uint64_t)tenants - 1);

    WorkloadSession &first = service.session(ids[0], 0);
    TraceDatabase db = first.sealDatabase();
    for (size_t c = 0; c < cfg.selections.size(); ++c) {
        const SelectionConfig &sc = cfg.selections[c];
        expectSameSelection(first.selection(c),
                            core::selectSubset(db, sc.scheme, sc.feature,
                                               cfg.cluster,
                                               cfg.targetInstrs));
    }
    for (unsigned t = 1; t < tenants; ++t) {
        WorkloadSession &other = service.session(ids[t], 0);
        EXPECT_EQ(other.numDispatches(), first.numDispatches());
        for (size_t c = 0; c < cfg.selections.size(); ++c)
            expectSameSelection(other.selection(c),
                                first.selection(c));
    }
}

TEST(ServeService, FailedReplayLeavesNoEntry)
{
    // The recording replays in full, then its last call fails
    // cfl::replay's argument check, so a concurrent identical submit
    // has time to attach to the pending entry.
    cfl::Recording bad = gaussianApp().recording;
    ocl::ApiCallRecord truncated;
    truncated.id = ocl::ApiCallId::ReleaseKernel;
    bad.calls.push_back(truncated);

    sched::ThreadPool pool(4);
    ServiceConfig cfg;
    cfg.pool = &pool;
    ProfilingService service(cfg);
    auto tenant = service.openTenant("t0");
    std::vector<std::thread> submitters;
    for (int i = 0; i < 2; ++i) {
        submitters.emplace_back(
            [&] { service.submit(tenant, "bad", bad); });
    }
    for (std::thread &t : submitters)
        t.join();
    EXPECT_THROW(service.drain(), FatalError);
    ServiceStats stats = service.stats();
    EXPECT_GE(stats.replays, 1u);
    EXPECT_EQ(stats.replays + stats.artifactHits, 2u);

    // No entry was left behind: a third submit replays again.
    service.submit(tenant, "bad", bad);
    EXPECT_THROW(service.drain(), FatalError);
    EXPECT_EQ(service.stats().replays, stats.replays + 1);
    EXPECT_EQ(service.memoryFootprint().artifactBytes, 0u);
    for (ProfilingService::WorkloadId w = 0; w < 3; ++w)
        EXPECT_EQ(service.session(tenant, w).numDispatches(), 0u);
}

TEST(ServeService, WarmSubmitAnswersFromArtifactMemo)
{
    const core::ProfiledApp &app = gaussianApp();
    ProfilingService service;
    const size_t configs = service.config().selections.size();
    auto cold_tenant = service.openTenant("cold");
    auto cold = service.submit(cold_tenant, app.name, app.recording);
    service.drain();
    service.refreshAll();
    EXPECT_EQ(service.session(cold_tenant, cold).stats().reclustered,
              configs);

    auto warm_tenant = service.openTenant("warm");
    auto warm = service.submit(warm_tenant, app.name, app.recording);
    WorkloadSession &session = service.session(warm_tenant, warm);
    session.refresh();
    SessionStats stats = session.stats();
    EXPECT_EQ(stats.reclustered, 0u);
    EXPECT_EQ(stats.sharedSelections, configs);
    expectMatchesOneShot(session, service.config());

    ServiceStats total = service.stats();
    EXPECT_EQ(total.sessions.reclustered, configs);
    EXPECT_EQ(total.sessions.sharedSelections, configs);

    // Both sessions share the memo's selections: it is counted once,
    // and no session holds a copy.
    ServiceFootprint fp = service.memoryFootprint();
    EXPECT_GT(fp.selectionMemoBytes, 0u);
    EXPECT_EQ(fp.memoBytes, 0u);
}

TEST(ServeService, ConcurrentWarmRefreshesClusterOnce)
{
    const core::ProfiledApp &app = gaussianApp();
    sched::ThreadPool pool(4);
    ServiceConfig cfg;
    cfg.pool = &pool;
    ProfilingService service(cfg);
    const unsigned threads = 8;
    std::vector<ProfilingService::TenantId> ids;
    for (unsigned t = 0; t < threads; ++t)
        ids.push_back(service.openTenant("t" + std::to_string(t)));

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&service, &app, &ids, t]() {
            service.submit(ids[t], app.name, app.recording);
        });
    }
    for (std::thread &w : workers)
        w.join();
    workers.clear();
    service.drain();
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back(
            [&service, &ids, t]() { service.session(ids[t], 0).refresh(); });
    }
    for (std::thread &w : workers)
        w.join();

    // One session clustered each configuration under the memo
    // lock; the other seven copied it.
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.replays, 1u);
    EXPECT_EQ(stats.sessions.reclustered, cfg.selections.size());
    EXPECT_EQ(stats.sessions.sharedSelections,
              (threads - 1) * cfg.selections.size());
    WorkloadSession &first = service.session(ids[0], 0);
    expectMatchesOneShot(first, cfg);
    for (unsigned t = 1; t < threads; ++t) {
        WorkloadSession &other = service.session(ids[t], 0);
        for (size_t c = 0; c < cfg.selections.size(); ++c)
            expectSameSelection(other.selection(c), first.selection(c));
    }
}

// ---------------------------------------------------------------
// Shared content-addressed caches.

TEST(ServeCaches, PlanCacheSharesAcrossDrivers)
{
    const core::ProfiledApp &app = gaussianApp();
    gpu::SharedPlanCache plans(gpu::DeviceConfig::hd4000());

    auto replayWithSharedPlans = [&]() {
        workloads::TemplateJit jit;
        ocl::GpuDriver driver(gpu::DeviceConfig::hd4000(), jit, {});
        driver.executor().setSharedPlanCache(&plans);
        gtpin::KernelProfileTool profile_tool;
        gtpin::GtPin pin;
        pin.addTool(&profile_tool);
        pin.attach(driver);
        ocl::ClRuntime runtime(driver);
        cfl::replay(app.recording, runtime);
        pin.detach();
        return profile_tool.takeProfiles();
    };

    auto first = replayWithSharedPlans();
    gpu::SharedCacheStats cold = plans.stats();
    EXPECT_GT(cold.builds, 0u);
    EXPECT_GT(cold.misses, 0u);

    auto second = replayWithSharedPlans();
    gpu::SharedCacheStats warm = plans.stats();
    // Same kernels: the second driver builds nothing and hits for
    // every plan the first one published.
    EXPECT_EQ(warm.builds, cold.builds);
    EXPECT_GT(warm.hits, cold.hits);

    // Adopted plans change nothing observable about execution.
    EXPECT_EQ(*first.kernels, *second.kernels);
    ASSERT_EQ(first.dispatches.size(), second.dispatches.size());
    for (size_t d = 0; d < first.dispatches.size(); ++d) {
        const gtpin::DispatchProfile &a = first.dispatches[d];
        const gtpin::DispatchProfile &b = second.dispatches[d];
        EXPECT_EQ(a.instrs, b.instrs);
        EXPECT_EQ(a.blockCounts, b.blockCounts);
        EXPECT_EQ(a.bytesRead, b.bytesRead);
        EXPECT_EQ(a.bytesWritten, b.bytesWritten);
    }
}

TEST(ServeCaches, PlanCacheConcurrentLookupsAreExact)
{
    gpu::SharedPlanCache cache(gpu::DeviceConfig::hd4000());
    const unsigned threads = 4;
    const uint64_t keys = 16, iters = 400;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&cache, t]() {
            Rng rng(0xc0ffee + t);
            for (uint64_t i = 0; i < iters; ++i) {
                uint64_t key = rng.next() % keys;
                auto plan = cache.find(key);
                if (!plan) {
                    auto built = std::make_shared<gpu::ExecPlan>();
                    built->numInstrs = key;
                    plan = cache.insert(key, std::move(built));
                }
                // Never a torn or foreign artifact.
                ASSERT_EQ(plan->numInstrs, key);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();

    gpu::SharedCacheStats stats = cache.stats();
    EXPECT_EQ(cache.size(), keys);
    // First insert wins exactly once per key...
    EXPECT_EQ(stats.builds, keys);
    // ...and every lookup is accounted for.
    EXPECT_EQ(stats.hits + stats.misses, threads * iters);
}

// ---------------------------------------------------------------
// Session eviction, rehydration, and budget enforcement.

/** The resident bytes of one drained, refreshed session of @p app,
 * and the footprint of the service holding it — the unit the
 * byte-budget tests size their budgets from. */
std::pair<uint64_t, ServiceFootprint>
probeOneSession(const core::ProfiledApp &app)
{
    ProfilingService probe;
    auto tenant = probe.openTenant("probe");
    probe.submit(tenant, app.name, app.recording);
    probe.drain();
    probe.refreshAll();
    uint64_t bytes = probe.session(tenant, 0).memoryBytes();
    EXPECT_GT(bytes, 0u);
    return {bytes, probe.memoryFootprint()};
}

TEST(ServeEviction, EvictRehydrateMatchesNeverEvicted)
{
    // Three evict/seal cycles: each eviction follows a refresh, and
    // each seal derives the state again from the artifact.
    const size_t n = 250;
    Inputs in = makeInputs(n);
    sched::ThreadPool pool(1);
    ServiceConfig cfg;
    auto rows = artifactOf(in, 0, n);
    WorkloadSession session("synthetic", cfg, pool);
    WorkloadSession oracle("synthetic", cfg, pool);
    session.addArtifact(rows, nullptr);
    oracle.addArtifact(rows, nullptr);
    oracle.refresh();
    TraceDatabase want = oracle.sealDatabase();

    for (uint64_t cycle = 1; cycle <= 3; ++cycle) {
        session.refresh();
        uint64_t resident_before_evict = session.memoryBytes();
        EXPECT_GT(resident_before_evict, 0u);
        session.evict();
        EXPECT_TRUE(session.isEvicted());
        // Eviction reclaims the builder/feature/interval state.
        EXPECT_EQ(session.memoryBytes(), 0u);

        // Sealing rehydrates: the same database bitwise, and the
        // session is resident again.
        expectSameDb(session.sealDatabase(), want);
        EXPECT_FALSE(session.isEvicted());
        SessionStats stats = session.stats();
        EXPECT_EQ(stats.evictions, cycle);
        EXPECT_EQ(stats.rehydrations, cycle);
    }

    // Only the first refresh clustered; every selection equals the
    // never-evicted session's.
    session.refresh();
    EXPECT_EQ(session.stats().reclustered, cfg.selections.size());
    for (size_t c = 0; c < cfg.selections.size(); ++c)
        expectSameSelection(session.selection(c),
                            oracle.selection(c));
}

TEST(ServeEviction, EvictedSessionAnswersFromMemo)
{
    Inputs in = makeInputs(120);
    sched::ThreadPool pool(1);
    ServiceConfig cfg;
    WorkloadSession session("synthetic", cfg, pool);
    session.addArtifact(artifactOf(in, 0, in.profiles.size()), nullptr);
    session.refresh();
    std::vector<core::SubsetSelection> before;
    for (size_t c = 0; c < cfg.selections.size(); ++c)
        before.push_back(session.selection(c));

    session.evict();
    ASSERT_TRUE(session.isEvicted());
    uint64_t reused_at_evict = session.stats().reusedSelections;

    // refresh() and selection() answer from the held selections
    // without deriving any state.
    session.refresh();
    EXPECT_TRUE(session.isEvicted());
    SessionStats stats = session.stats();
    EXPECT_EQ(stats.rehydrations, 0u);
    EXPECT_EQ(stats.reusedSelections,
              reused_at_evict + cfg.selections.size());
    for (size_t c = 0; c < cfg.selections.size(); ++c)
        expectSameSelection(session.selection(c), before[c]);

    // Eviction is idempotent.
    session.evict();
    EXPECT_EQ(session.stats().evictions, 1u);
    EXPECT_EQ(session.numDispatches(), in.profiles.size());
}

TEST(ServeEviction, MemoSessionEvictRehydrateMatchesOneShot)
{
    const size_t n = 150;
    Inputs in = makeInputs(n);
    sched::ThreadPool pool(1);
    ServiceConfig cfg;
    const size_t configs = cfg.selections.size();
    auto memo = std::make_shared<SelectionMemo>(configs);
    auto rows = artifactOf(in, 0, n);
    WorkloadSession first("synthetic", cfg, pool);
    first.addArtifact(rows, memo);
    first.refresh();

    WorkloadSession session("synthetic", cfg, pool);
    session.addArtifact(rows, memo);
    // Eviction's own refresh shares the memo: no k-means.
    session.evict();
    ASSERT_TRUE(session.isEvicted());
    EXPECT_EQ(session.stats().reclustered, 0u);
    EXPECT_EQ(session.stats().sharedSelections, configs);
    for (size_t c = 0; c < configs; ++c)
        expectSameSelection(session.selection(c), *memo->slots[c]);

    // Sealing rehydrates from the artifact; the shared selections
    // match the one-shot oracle over that database.
    expectMatchesOneShot(session, cfg);
    EXPECT_FALSE(session.isEvicted());
    SessionStats stats = session.stats();
    EXPECT_EQ(stats.rehydrations, 1u);
    EXPECT_EQ(stats.reclustered, 0u);
}

TEST(ServeEviction, RefreshAllEnforcesTheBudget)
{
    const core::ProfiledApp &app = gaussianApp();
    // A drained session has derived nothing; a refreshed one holds
    // the state its clustering derived: budget between the two, so
    // the feed fits and only the refresh breaks the budget.
    uint64_t drained_bytes = 0, refreshed_bytes = 0;
    {
        ProfilingService probe;
        auto tenant = probe.openTenant("probe");
        probe.submit(tenant, app.name, app.recording);
        probe.drain();
        drained_bytes = probe.session(tenant, 0).memoryBytes();
        probe.refreshAll();
        refreshed_bytes = probe.session(tenant, 0).memoryBytes();
    }
    EXPECT_EQ(drained_bytes, 0u);
    ASSERT_GT(refreshed_bytes, drained_bytes);

    ServiceConfig cfg;
    cfg.maxResidentBytes = (drained_bytes + refreshed_bytes) / 2;
    ProfilingService service(cfg);
    auto tenant = service.openTenant("t0");
    service.submit(tenant, app.name, app.recording);
    service.drain();
    EXPECT_EQ(service.stats().sessions.evictions, 0u);
    EXPECT_LE(service.memoryFootprint().sessionBytes,
              cfg.maxResidentBytes);

    service.refreshAll();
    EXPECT_EQ(service.stats().sessions.evictions, 1u);
    EXPECT_LE(service.memoryFootprint().sessionBytes,
              cfg.maxResidentBytes);
    WorkloadSession &session = service.session(tenant, 0);
    EXPECT_TRUE(session.isEvicted());
    expectMatchesOneShot(session, cfg);
}

TEST(ServeEviction, ServiceThresholdSweepIsBitwise)
{
    const core::ProfiledApp &app = gaussianApp();
    // Only the session that clusters derives state; the other two
    // share its selections and hold none, so a budget of half one
    // derived session is what still forces an eviction.
    const uint64_t one_session = probeOneSession(app).first;
    struct Budget
    {
        const char *tag;
        uint64_t bytes;
        bool evicts;
    };
    const Budget budgets[] = {
        {"unbounded", UINT64_MAX, false},
        {"half-a-session", one_session / 2, true},
        {"zero-bytes", 0, true},
    };
    const unsigned tenants = 3;

    // Selections must be bitwise identical no matter which budget
    // forced evictions along the way.
    std::vector<std::vector<core::SubsetSelection>> want;
    for (const Budget &budget : budgets) {
        ServiceConfig cfg;
        cfg.maxResidentBytes = budget.bytes;
        ProfilingService service(cfg);

        std::vector<ProfilingService::TenantId> ids;
        for (unsigned t = 0; t < tenants; ++t) {
            ids.push_back(
                service.openTenant("t" + std::to_string(t)));
            service.submit(ids.back(), app.name, app.recording);
        }
        service.drain();
        service.refreshAll();

        ServiceStats stats = service.stats();
        if (budget.evicts)
            EXPECT_GT(stats.sessions.evictions, 0u) << budget.tag;
        else
            EXPECT_EQ(stats.sessions.evictions, 0u) << budget.tag;

        for (unsigned t = 0; t < tenants; ++t) {
            WorkloadSession &session = service.session(ids[t], 0);
            std::vector<core::SubsetSelection> got;
            for (size_t c = 0; c < cfg.selections.size(); ++c)
                got.push_back(session.selection(c));
            if (want.size() <= t) {
                want.push_back(std::move(got));
                continue;
            }
            for (size_t c = 0; c < got.size(); ++c)
                expectSameSelection(got[c], want[t][c]);
        }
    }
}

TEST(ServeEviction, ConcurrentSubmitWhileEvicting)
{
    const core::ProfiledApp &app = gaussianApp();
    // At width 1 the replay runs inline on whichever submitting
    // thread inserts the entry, so the submitters replay, attach and
    // feed with nothing serialising them; width 4 hands the replay to
    // a pool worker.
    for (unsigned width : {1u, 4u}) {
        SCOPED_TRACE("pool width " + std::to_string(width));
        sched::ThreadPool pool(width);
        ServiceConfig cfg;
        cfg.pool = &pool;
        cfg.maxResidentBytes = 0; // evict all derived state
        ProfilingService service(cfg);

        // Warm submissions feed inline on the submitting thread while
        // earlier feeds enforce the budget — the TSan-covered
        // interleaving.
        const unsigned threads = 4;
        std::vector<ProfilingService::TenantId> ids;
        for (unsigned t = 0; t < threads; ++t)
            ids.push_back(service.openTenant("t" + std::to_string(t)));
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < threads; ++t) {
            workers.emplace_back([&service, &app, &ids, t]() {
                service.submit(ids[t], app.name, app.recording);
                service.submit(ids[t], app.name, app.recording);
            });
        }
        for (std::thread &w : workers)
            w.join();
        service.drain();
        service.refreshAll();

        ServiceStats stats = service.stats();
        EXPECT_EQ(stats.workloads, threads * 2u);
        EXPECT_EQ(stats.replays, 1u);
        EXPECT_EQ(stats.artifactHits, threads * 2u - 1);
        // Exactly the sessions that derived state — the one that
        // clustered each configuration — were evicted; the sessions
        // that shared its selections freed nothing and stay.
        uint64_t derived = 0;
        WorkloadSession &first = service.session(ids[0], 0);
        for (unsigned t = 0; t < threads; ++t) {
            for (ProfilingService::WorkloadId w = 0; w < 2; ++w) {
                WorkloadSession &other = service.session(ids[t], w);
                bool clustered = other.stats().reclustered > 0;
                derived += clustered;
                EXPECT_EQ(other.isEvicted(), clustered);
                EXPECT_EQ(other.numDispatches(),
                          first.numDispatches());
                for (size_t c = 0; c < cfg.selections.size(); ++c)
                    expectSameSelection(other.selection(c),
                                        first.selection(c));
            }
        }
        EXPECT_GT(derived, 0u);
        EXPECT_EQ(stats.sessions.evictions, derived);
        EXPECT_EQ(stats.sessions.reclustered, cfg.selections.size());
    }
}

TEST(ServeEviction, BudgetSkipsSessionsWithNothingDerived)
{
    const core::ProfiledApp &app = gaussianApp();
    ServiceConfig cfg;
    cfg.maxResidentBytes = 0;
    ProfilingService service(cfg);
    auto tenant = service.openTenant("t0");
    auto cold = service.submit(tenant, app.name, app.recording);
    service.drain();
    service.refreshAll();
    // The cold session clustered, so derived state: evicted.
    ASSERT_TRUE(service.session(tenant, cold).isEvicted());
    ASSERT_EQ(service.stats().sessions.evictions, 1u);

    // Warm sessions share the published selections and derive
    // nothing: a zero-byte budget evicts none of them, neither at
    // their feed nor after a refresh.
    const unsigned warm = 4;
    for (unsigned i = 0; i < warm; ++i)
        service.submit(tenant, app.name, app.recording);
    service.drain();
    service.refreshAll();
    EXPECT_EQ(service.stats().sessions.evictions, 1u);
    EXPECT_EQ(service.memoryFootprint().sessionBytes, 0u);
    WorkloadSession &first = service.session(tenant, cold);
    for (ProfilingService::WorkloadId w = 1; w <= warm; ++w) {
        WorkloadSession &session = service.session(tenant, w);
        EXPECT_FALSE(session.isEvicted());
        EXPECT_EQ(session.memoryBytes(), 0u);
        EXPECT_EQ(session.stats().reclustered, 0u);
        for (size_t c = 0; c < cfg.selections.size(); ++c)
            expectSameSelection(session.selection(c), first.selection(c));
    }
    expectMatchesOneShot(service.session(tenant, warm), cfg);
}

TEST(ServeEviction, FootprintStaysBoundedUnderByteBudget)
{
    const core::ProfiledApp &app = gaussianApp();

    // Measure one resident session to size the budget.
    auto [one_session, fp] = probeOneSession(app);
    EXPECT_EQ(fp.sessionBytes, one_session);
    EXPECT_GT(fp.sessionResidueBytes, 0u);
    EXPECT_GT(fp.selectionMemoBytes, 0u); // refreshed selections
    EXPECT_EQ(fp.totalBytes,
              fp.sessionBytes + fp.sessionResidueBytes + fp.memoBytes +
                  fp.planCacheBytes + fp.artifactBytes +
                  fp.selectionMemoBytes + fp.traceCacheBytes);
    EXPECT_GT(fp.planCacheBytes, 0u);
    EXPECT_GT(fp.artifactBytes, 0u);

    // A half-session budget: resident session bytes stay bounded no
    // matter how many workloads accumulate (allow one session of
    // slack for the in-flight feed). Only the session that clusters
    // derives state, so a larger budget would never evict.
    ServiceConfig cfg;
    cfg.maxResidentBytes = one_session / 2;
    ProfilingService service(cfg);
    auto tenant = service.openTenant("t0");
    for (unsigned i = 0; i < 6; ++i) {
        service.submit(tenant, app.name, app.recording);
        service.drain();
        EXPECT_LE(service.memoryFootprint().sessionBytes,
                  cfg.maxResidentBytes + one_session);
    }
    service.refreshAll();
    EXPECT_GT(service.stats().sessions.evictions, 0u);
    ServiceFootprint after = service.memoryFootprint();
    // Eviction frees derived state, never the residue: it grows with
    // the session count.
    EXPECT_GT(after.sessionResidueBytes, fp.sessionResidueBytes);
    EXPECT_LE(after.sessionBytes, cfg.maxResidentBytes);

    WorkloadSession &first = service.session(tenant, 0);
    for (ProfilingService::WorkloadId w = 1; w < 6; ++w) {
        WorkloadSession &other = service.session(tenant, w);
        for (size_t c = 0; c < cfg.selections.size(); ++c)
            expectSameSelection(other.selection(c),
                                first.selection(c));
    }
}

// ---------------------------------------------------------------
// Artifact-backed sessions: state derived only when needed.

TEST(ServeArtifact, WarmSessionCountsNoRowsUntilItClusters)
{
    const core::ProfiledApp &app = gaussianApp();
    ProfilingService service;
    const size_t configs = service.config().selections.size();

    auto tenant = service.openTenant("t0");
    auto cold = service.submit(tenant, app.name, app.recording);
    service.drain();
    auto warm = service.submit(tenant, app.name, app.recording);
    WorkloadSession &first = service.session(tenant, cold);
    WorkloadSession &second = service.session(tenant, warm);
    EXPECT_EQ(first.numDispatches(), app.db.numDispatches());
    EXPECT_EQ(second.numDispatches(), app.db.numDispatches());
    EXPECT_EQ(first.memoryBytes(), 0u);
    EXPECT_EQ(second.memoryBytes(), 0u);

    // Every memo slot is empty: the first refresh derives the state
    // and clusters.
    first.refresh();
    EXPECT_EQ(first.stats().reclustered, configs);
    EXPECT_GT(first.memoryBytes(),
              app.db.numDispatches() * sizeof(gtpin::DispatchProfile));

    // The second shares the published selections and still counts
    // no rows.
    second.refresh();
    EXPECT_EQ(second.stats().reclustered, 0u);
    EXPECT_EQ(second.stats().sharedSelections, configs);
    EXPECT_EQ(second.memoryBytes(), 0u);
    EXPECT_EQ(service.memoryFootprint().sessionBytes,
              first.memoryBytes());
}

TEST(ServeArtifact, SealLazyMaterializedAndEvictedIsBitwise)
{
    const core::ProfiledApp &app = gaussianApp();
    ProfilingService service;
    const ServiceConfig &cfg = service.config();
    auto tenant = service.openTenant("t0");
    service.submit(tenant, app.name, app.recording);
    service.drain();
    for (int i = 0; i < 2; ++i)
        service.submit(tenant, app.name, app.recording);
    WorkloadSession &lazy = service.session(tenant, 0);
    WorkloadSession &materialized = service.session(tenant, 1);
    WorkloadSession &evicted = service.session(tenant, 2);

    materialized.refresh(); // clusters, so derives its state
    evicted.evict();
    ASSERT_TRUE(evicted.isEvicted());

    // Sealing derives a missing state from the artifact, and an
    // evicted session rehydrates.
    expectSameDb(lazy.sealDatabase(), app.db);
    expectSameDb(materialized.sealDatabase(), app.db);
    expectSameDb(evicted.sealDatabase(), app.db);
    EXPECT_FALSE(evicted.isEvicted());
    EXPECT_EQ(evicted.stats().rehydrations, 1u);

    lazy.refresh();
    for (WorkloadSession *s : {&lazy, &materialized, &evicted})
        expectMatchesOneShot(*s, cfg);
    EXPECT_EQ(service.stats().sessions.reclustered,
              cfg.selections.size());
}

TEST(ServeArtifact, SecondFeedPanics)
{
    Inputs in = makeInputs(60);
    sched::ThreadPool pool(1);
    ServiceConfig cfg;
    WorkloadSession session("synthetic", cfg, pool);
    session.addArtifact(artifactOf(in, 0, 30), nullptr);
    // A session is a view of one artifact: neither more rows nor the
    // same rows again may follow.
    EXPECT_THROW(session.addArtifact(artifactOf(in, 30, 60), nullptr),
                 PanicError);
    EXPECT_THROW(session.addArtifact(artifactOf(in, 0, 30), nullptr),
                 PanicError);
    EXPECT_EQ(session.numDispatches(), 30u);
    session.refresh();
    expectMatchesOneShot(session, cfg);
}

TEST(ServeArtifact, ConcurrentSubmitAndRefreshClusterOnce)
{
    const core::ProfiledApp &app = gaussianApp();
    sched::ThreadPool pool(4);
    ServiceConfig cfg;
    cfg.pool = &pool;
    ProfilingService service(cfg);
    const size_t configs = cfg.selections.size();
    auto cold = service.openTenant("cold");
    service.submit(cold, app.name, app.recording);
    service.drain();

    // Each thread submits warm and refreshes at once: whichever
    // session first finds a memo slot empty derives its state and
    // clusters it, every other copies.
    const unsigned threads = 8;
    std::vector<ProfilingService::TenantId> ids;
    for (unsigned t = 0; t < threads; ++t)
        ids.push_back(service.openTenant("t" + std::to_string(t)));
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&service, &app, &ids, t]() {
            auto w = service.submit(ids[t], app.name, app.recording);
            service.session(ids[t], w).refresh();
        });
    }
    for (std::thread &w : workers)
        w.join();

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.replays, 1u);
    EXPECT_EQ(stats.sessions.reclustered, configs);
    EXPECT_EQ(stats.sessions.sharedSelections, (threads - 1) * configs);
    WorkloadSession &first = service.session(ids[0], 0);
    expectMatchesOneShot(first, cfg);
    for (unsigned t = 1; t < threads; ++t) {
        WorkloadSession &other = service.session(ids[t], 0);
        for (size_t c = 0; c < configs; ++c)
            expectSameSelection(other.selection(c), first.selection(c));
    }
}

} // anonymous namespace
} // namespace gt::serve
