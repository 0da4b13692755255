#include "flows.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <set>

#include "cfl/recorder.hh"
#include "cfl/tracer.hh"
#include "common/logging.hh"
#include "core/detailed_validator.hh"
#include "core/feature_engine.hh"
#include "core/pipeline.hh"
#include "digest.hh"
#include "gtpin/gtpin.hh"
#include "gtpin/tools.hh"
#include "serve/service.hh"
#include "workloads/templates.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace gt;

namespace
{

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

constexpr double failedMs = std::numeric_limits<double>::infinity();

/** Library errors an op may raise; either counts the op as failed. */
template <typename F>
bool
runOp(F &&body, std::string *what = nullptr)
{
    try {
        body();
        return true;
    } catch (const FatalError &e) {
        if (what)
            *what = e.what();
    } catch (const PanicError &e) {
        if (what)
            *what = e.what();
    }
    return false;
}

const workloads::Workload &
workloadNamed(const std::string &name)
{
    const workloads::Workload *w = workloads::findWorkload(name);
    if (!w)
        fatal("unknown workload '", name, "'");
    return *w;
}

core::simpoint::ClusterOptions
clusterOptionsOn(sched::ThreadPool *pool)
{
    core::simpoint::ClusterOptions o;
    o.pool = pool;
    return o;
}

/** Accumulates Accuracy over selections. */
class AccuracyAcc
{
  public:
    void
    add(double error_pct, const core::SubsetSelection &sel)
    {
        sum += error_pct;
        max = std::max(max, error_pct);
        logSpeedup += std::log(sel.speedup());
        ++n;
    }

    Accuracy
    value() const
    {
        Accuracy a;
        if (n) {
            a.errorPctMean = sum / (double)n;
            a.errorPctMax = max;
            a.selectionSpeedup = std::exp(logSpeedup / (double)n);
        }
        return a;
    }

  private:
    double sum = 0.0, max = 0.0, logSpeedup = 0.0;
    size_t n = 0;
};

void
digestDatabase(Digest &d, const core::TraceDatabase &db)
{
    d.u64(db.numDispatches());
    d.u64(db.totalInstrs());
    d.f64(db.totalSeconds());
    d.u64(db.numSyncEpochs());
    d.f64(db.measuredSpi());
}

void
digestApp(Digest &d, const core::ProfiledApp &app)
{
    const core::AppCharacterization &st = app.stats;
    d.str(app.name);
    for (uint64_t v : {st.totalApiCalls, st.uniqueKernels,
                       st.uniqueBlocks, st.kernelInvocations,
                       st.blockExecs, st.dynInstrs, st.bytesRead,
                       st.bytesWritten})
        d.u64(v);
    for (double v : {st.fracKernel, st.fracSync, st.fracOther})
        d.f64(v);
    for (uint64_t v : st.classCounts)
        d.u64(v);
    for (uint64_t v : st.simdCounts)
        d.u64(v);
    digestDatabase(d, app.db);
    d.u64(cfl::recordingContentHash(app.recording));
}

void
digestExploration(Digest &d, const core::Exploration &ex)
{
    for (const core::ConfigResult &r : ex.results) {
        d.selection(r.selection);
        d.f64(r.errorPct);
    }
}

/**
 * The driver / JIT / GT-Pin / tracer stack profileApp() and
 * replayTrial() build internally, held so the traced pass can time
 * its construction, use and destruction separately. Member order is
 * the locals' order in core/pipeline.cc, so destruction order is too.
 */
struct InstrumentedStack
{
    std::unique_ptr<workloads::TemplateJit> jit;
    std::unique_ptr<ocl::GpuDriver> driver;
    gtpin::KernelProfileTool profileTool;
    gtpin::BasicBlockCounterTool bbTool;
    gtpin::OpcodeMixTool mixTool;
    gtpin::MemBytesTool memTool;
    gtpin::GtPin pin;
    std::unique_ptr<ocl::ClRuntime> runtime;
    cfl::ApiTracer tracer;
    cfl::Recorder recorder;

    InstrumentedStack(Tracer *tr, const gpu::DeviceConfig &config,
                      const gpu::TrialConfig &trial, bool record)
    {
        {
            Span s(tr, "ocl.driver_setup");
            jit = std::make_unique<workloads::TemplateJit>();
            driver =
                std::make_unique<ocl::GpuDriver>(config, *jit, trial);
        }
        Span s(tr, "gtpin.setup");
        pin.addTool(&profileTool);
        pin.addTool(&bbTool);
        pin.addTool(&mixTool);
        pin.addTool(&memTool);
        pin.attach(*driver);
        runtime = std::make_unique<ocl::ClRuntime>(*driver);
        runtime->addObserver(&tracer);
        if (record)
            runtime->addObserver(&recorder);
    }
};

void
teardown(Tracer *tr, std::unique_ptr<InstrumentedStack> &stack)
{
    Span s(tr, "ocl.driver_teardown");
    stack.reset();
}

/** profileApp(), one span per layer. */
core::ProfiledApp
tracedProfileApp(Tracer *tr, const workloads::Workload &workload,
                 const gpu::DeviceConfig &config,
                 const gpu::TrialConfig &trial)
{
    auto st = std::make_unique<InstrumentedStack>(tr, config, trial,
                                                  true);
    {
        Span s(tr, "workloads.run");
        workload.run(*st->runtime);
    }
    core::ProfiledApp app;
    app.name = workload.info().name;
    {
        Span s(tr, "core.tracedb_build");
        app.db = core::TraceDatabase::build(
            st->profileTool.takeProfiles(), st->tracer.kernelTimings(),
            st->tracer.callStream());
    }
    {
        Span s(tr, "gtpin.postprocess");
        app.recording = st->recorder.take();
        core::AppCharacterization &c = app.stats;
        c.totalApiCalls = st->tracer.totalCalls();
        c.fracKernel =
            st->tracer.categoryFraction(ocl::ApiCategory::Kernel);
        c.fracSync = st->tracer.categoryFraction(
            ocl::ApiCategory::Synchronization);
        c.fracOther =
            st->tracer.categoryFraction(ocl::ApiCategory::Other);
        std::set<std::string> names;
        for (uint32_t k = 0; k < st->driver->numKernels(); ++k)
            names.insert(st->driver->binary(k).name);
        c.uniqueKernels = names.size();
        c.uniqueBlocks = st->bbTool.totalStaticBlocks();
        c.kernelInvocations = app.db.numDispatches();
        c.blockExecs = st->bbTool.totalBlockExecs();
        c.dynInstrs = app.db.totalInstrs();
        c.classCounts = st->mixTool.classCounts();
        c.simdCounts = st->mixTool.simdCounts();
        c.bytesRead = st->memTool.totalBytesRead();
        c.bytesWritten = st->memTool.totalBytesWritten();
        st->pin.detach();
    }
    teardown(tr, st);
    return app;
}

/** replayTrial(), one span per layer. */
core::TraceDatabase
tracedReplayTrial(Tracer *tr, const cfl::Recording &recording,
                  const gpu::DeviceConfig &config,
                  const gpu::TrialConfig &trial)
{
    auto st = std::make_unique<InstrumentedStack>(tr, config, trial,
                                                  false);
    {
        Span s(tr, "cfl.replay");
        cfl::replay(recording, *st->runtime);
    }
    core::TraceDatabase db;
    {
        Span s(tr, "core.tracedb_build");
        db = core::TraceDatabase::build(st->profileTool.takeProfiles(),
                                        st->tracer.kernelTimings(),
                                        st->tracer.callStream());
    }
    {
        Span s(tr, "gtpin.postprocess");
        st->pin.detach();
    }
    teardown(tr, st);
    return db;
}

/** exploreConfigs(): buildIntervals, FeatureEngine::projectAll,
 * selectFromProjected, selectionErrorPct per configuration, fanned
 * out on the pool exactly as the bundled call does. */
core::Exploration
tracedExploreConfigs(Tracer *tr, uint64_t op, uint64_t parent,
                     const core::TraceDatabase &db,
                     const core::simpoint::ClusterOptions &options)
{
    std::optional<core::FeatureEngine> engine;
    {
        Span s(tr, "core.features");
        engine.emplace(db);
    }
    constexpr size_t numConfigs =
        (size_t)core::numIntervalSchemes * core::numFeatureKinds;
    core::Exploration ex;
    ex.results.resize(numConfigs);
    options.pool->parallelFor(
        numConfigs,
        [&](size_t idx) {
            Span cfg(tr, "op.config", op, parent);
            auto scheme = (core::IntervalScheme)(idx /
                                                 core::numFeatureKinds);
            auto feature =
                (core::FeatureKind)(idx % core::numFeatureKinds);
            core::ConfigResult &r = ex.results[idx];
            std::vector<core::Interval> intervals;
            {
                Span s(tr, "core.intervals");
                intervals = core::buildIntervals(db, scheme);
            }
            std::vector<core::simpoint::Point> points;
            {
                Span s(tr, "core.features");
                points = engine->projectAll(intervals, feature);
            }
            {
                Span s(tr, "core.cluster");
                r.selection = core::selectFromProjected(
                    scheme, feature, std::move(intervals), points,
                    db.totalInstrs(), options);
            }
            Span s(tr, "core.error_eval");
            r.errorPct = core::selectionErrorPct(db, r.selection);
        },
        1);
    return ex;
}

double
skipFraction(const core::simpoint::KMeansStats &st)
{
    return st.assignSteps
        ? 1.0 - (double)st.fullScans / (double)st.assignSteps
        : 0.0;
}

uint64_t
residentBytes(const core::TraceDatabase &db)
{
    return db.memoryFootprint().residentBytes;
}

// ---------------------------------------------------------------- explore

class ExploreFlow : public Flow
{
  public:
    explicit ExploreFlow(ExploreInputs inputs) : in(std::move(inputs)) {}

    void
    setup(RunContext &ctx) override
    {
        apps.clear();
        for (const std::string &name : in.apps)
            apps.push_back(&workloadNamed(name));
        trial = gpu::TrialConfig{};
        trial.noiseSeed = in.noiseSeed;
        // First-use costs (code pages, backend selection) land here,
        // not in the first timed pass.
        core::ProfiledApp warm = core::profileApp(
            workloadNamed(in.warmupApp), config, trial);
        core::exploreConfigs(warm.db, clusterOptionsOn(ctx.pool));
    }

    PassOutput
    pass(RunContext &ctx) override
    {
        Tracer *tr = ctx.tracer;
        PassOutput out;
        const size_t n = apps.size();
        out.attempted = n;
        profiled.clear();
        explored.assign(n, {});
        appDigests.assign(n, 0);

        bool profiledOk = runOp([&] {
            if (!tr) {
                profiled = core::profileSuite(apps, config, trial,
                                              ctx.pool);
                return;
            }
            profiled.resize(n);
            ctx.pool->parallelFor(
                n,
                [&](size_t i) {
                    Span op(tr, "op.profile", i + 1);
                    profiled[i] =
                        tracedProfileApp(tr, *apps[i], config, trial);
                },
                1);
        });
        if (!profiledOk) {
            out.failed = n;
            out.opMs.assign(n, failedMs);
            return out;
        }

        Digest digest;
        AccuracyAcc accuracy;
        core::simpoint::KMeansStats kmeans;
        const core::simpoint::ClusterOptions options =
            clusterOptionsOn(ctx.pool);
        for (size_t i = 0; i < n; ++i) {
            const core::ProfiledApp &app = profiled[i];
            out.dispatches += app.db.numDispatches();
            out.counters["gpu.sim_instrs"] += (double)app.db.totalInstrs();
            out.counters["core.tracedb_resident_bytes"] +=
                (double)residentBytes(app.db);

            auto t0 = std::chrono::steady_clock::now();
            const core::ConfigResult *minError = nullptr;
            const core::ConfigResult *coOptimized = nullptr;
            bool ok = runOp([&] {
                Span op(tr, "op.explore", n + i + 1);
                explored[i] =
                    tr ? tracedExploreConfigs(tr, n + i + 1, op.id(),
                                              app.db, options)
                       : core::exploreConfigs(app.db, options);
                Span s(tr, "core.select");
                minError = &core::pickMinError(explored[i]);
                coOptimized = &core::pickCoOptimized(explored[i], 10.0);
            });
            out.opMs.push_back(ok ? msSince(t0) : failedMs);
            if (!ok) {
                ++out.failed;
                continue;
            }
            Digest one;
            digestApp(one, app);
            digestExploration(one, explored[i]);
            one.u64((uint64_t)(minError - explored[i].results.data()));
            one.u64((uint64_t)(coOptimized - explored[i].results.data()));
            appDigests[i] = one.value();
            digest.u64(appDigests[i]);
            accuracy.add(minError->errorPct, minError->selection);
            kmeans.merge(explored[i].clusterStats());
        }
        out.digest = digest.value();
        out.counters["gpu.dispatches"] = (double)out.dispatches;
        out.counters["ocl.drivers"] = (double)n;
        out.counters["core.kmeans_skip_frac"] = skipFraction(kmeans);
        acc = accuracy.value();
        return out;
    }

    /** The check app again, on a 1-thread pool: its profile and
     * exploration must be bitwise what the pooled pass produced. */
    void
    check(RunContext &, std::vector<std::string> &failures) override
    {
        size_t i = 0;
        while (i < in.apps.size() && in.apps[i] != in.checkApp)
            ++i;
        if (i == in.apps.size() || appDigests[i] == 0) {
            failures.push_back("explore: check app " + in.checkApp +
                               " missing from the pass");
            return;
        }
        sched::ThreadPool serial(1);
        core::ProfiledApp app =
            core::profileApp(*apps[i], config, trial);
        core::Exploration ex =
            core::exploreConfigs(app.db, clusterOptionsOn(&serial));
        Digest one;
        digestApp(one, app);
        digestExploration(one, ex);
        one.u64((uint64_t)(&core::pickMinError(ex) - ex.results.data()));
        one.u64((uint64_t)(&core::pickCoOptimized(ex, 10.0) -
                           ex.results.data()));
        if (one.value() != appDigests[i]) {
            failures.push_back("explore: " + in.checkApp +
                               " on a 1-thread pool differs from the "
                               "pooled pass");
        }
    }

    void
    release() override
    {
        profiled.clear();
        explored.clear();
    }

  private:
    ExploreInputs in;
    std::vector<const workloads::Workload *> apps;
    gpu::DeviceConfig config = gpu::DeviceConfig::hd4000();
    gpu::TrialConfig trial;

    std::vector<core::ProfiledApp> profiled;
    std::vector<core::Exploration> explored;
    std::vector<uint64_t> appDigests;
};

// --------------------------------------------------------------- validate

/** The simulated outcome of one replay op. */
struct ReplayOutcome
{
    bool ok = false;
    double errorPct = 0.0;
    uint64_t dispatches = 0;
    uint64_t instrs = 0;
    double totalSeconds = 0.0;
    double measuredSpi = 0.0;
    uint64_t residentBytes = 0;

    bool
    sameSimulation(const ReplayOutcome &o) const
    {
        return ok == o.ok && dispatches == o.dispatches &&
               instrs == o.instrs &&
               std::memcmp(&errorPct, &o.errorPct, sizeof(double)) == 0 &&
               std::memcmp(&totalSeconds, &o.totalSeconds,
                           sizeof(double)) == 0 &&
               std::memcmp(&measuredSpi, &o.measuredSpi,
                           sizeof(double)) == 0;
    }
};

class ValidateFlow : public Flow
{
  public:
    explicit ValidateFlow(ValidateInputs inputs) : in(std::move(inputs))
    {
    }

    void
    setup(RunContext &ctx) override
    {
        std::vector<const workloads::Workload *> apps;
        for (const std::string &name : in.apps)
            apps.push_back(&workloadNamed(name));
        gpu::TrialConfig trial;
        trial.noiseSeed = in.profileNoiseSeed;
        profiled = core::profileSuite(apps, gpu::DeviceConfig::hd4000(),
                                      trial, ctx.pool);
        selections.clear();
        for (const core::ProfiledApp &app : profiled) {
            core::Exploration ex = core::exploreConfigs(
                app.db, clusterOptionsOn(ctx.pool));
            selections.push_back(core::pickMinError(ex).selection);
        }
    }

    ReplayOutcome
    replayOne(Tracer *tr, const ReplayCondition &c) const
    {
        ReplayOutcome r;
        const core::ProfiledApp &app = profiled[c.app];
        core::TraceDatabase db =
            tr ? tracedReplayTrial(tr, app.recording, c.device(),
                                   c.trial())
               : core::replayTrial(app.recording, c.device(), c.trial());
        Span s(tr, "core.error_eval");
        r.errorPct = core::selectionErrorPct(db, selections[c.app]);
        r.dispatches = db.numDispatches();
        r.instrs = db.totalInstrs();
        r.totalSeconds = db.totalSeconds();
        r.measuredSpi = db.measuredSpi();
        r.residentBytes = residentBytes(db);
        r.ok = true;
        return r;
    }

    PassOutput
    pass(RunContext &ctx) override
    {
        Tracer *tr = ctx.tracer;
        PassOutput out;
        const size_t n = in.conditions.size();
        outcomes.assign(n, {});
        out.opMs.assign(n, failedMs);
        ctx.pool->parallelFor(
            n,
            [&](size_t i) {
                auto t0 = std::chrono::steady_clock::now();
                Span op(tr, "op.replay", i + 1);
                runOp([&] { outcomes[i] = replayOne(tr, in.conditions[i]); });
                if (outcomes[i].ok)
                    out.opMs[i] = msSince(t0);
            },
            1);

        Digest digest;
        AccuracyAcc accuracy;
        out.attempted = n + 1;
        for (size_t i = 0; i < n; ++i) {
            const ReplayOutcome &r = outcomes[i];
            if (!r.ok) {
                ++out.failed;
                continue;
            }
            digest.u64(r.dispatches);
            digest.u64(r.instrs);
            digest.f64(r.totalSeconds);
            digest.f64(r.measuredSpi);
            digest.f64(r.errorPct);
            accuracy.add(r.errorPct,
                         selections[in.conditions[i].app]);
            out.dispatches += r.dispatches;
            out.counters["gpu.sim_instrs"] += (double)r.instrs;
            out.counters["core.tracedb_resident_bytes"] +=
                (double)r.residentBytes;
        }

        // The detailed spot check: one app, three design points.
        bool detailedOk = runOp([&] {
            Span op(tr, "op.detailed", n + 1);
            const size_t a = in.detailedApp;
            std::unique_ptr<core::DetailedValidator> dv;
            {
                Span s(tr, "core.detailed_setup");
                dv = std::make_unique<core::DetailedValidator>(
                    profiled[a],
                    gpu::DetailedSimulator::defaultBackend(), ctx.pool);
            }
            for (const DesignSpec &spec : in.designPoints) {
                core::DesignPoint dp;
                dp.config = spec.hd4600 ? gpu::DeviceConfig::hd4600()
                                        : gpu::DeviceConfig::hd4000();
                dp.freqMhz = spec.freqMhz;
                Span s(tr, "core.detailed_validate");
                core::DetailedValidator::Report rep =
                    dv->validate(selections[a], dp);
                digest.f64(rep.fullSpi);
                digest.f64(rep.projectedSpi);
                digest.f64(rep.errorPct);
                digest.u64(rep.fullWalked);
                digest.u64(rep.subsetWalked);
            }
            out.counters["gpu.checkpoint_builds"] =
                (double)dv->checkpointBuilds();
            out.counters["gpu.detailed_cells"] = (double)dv->cellSims();
            Span s(tr, "ocl.driver_teardown");
            dv.reset();
        });
        if (!detailedOk)
            ++out.failed;

        out.digest = digest.value();
        out.counters["gpu.dispatches"] = (double)out.dispatches;
        out.counters["ocl.drivers"] = (double)(n + 1);
        acc = accuracy.value();
        return out;
    }

    /** A sample of the pooled replays again on this thread alone. */
    void
    check(RunContext &, std::vector<std::string> &failures) override
    {
        for (size_t i : in.serialCheck) {
            ReplayOutcome again;
            std::string what;
            runOp([&] { again = replayOne(nullptr, in.conditions[i]); },
                  &what);
            if (!again.sameSimulation(outcomes[i])) {
                failures.push_back(
                    "validate: serial recompute of replay " +
                    std::to_string(i) + " (" + in.apps[in.conditions[i].app] +
                    ", " + in.conditions[i].kind +
                    ") differs from the pooled replay " + what);
            }
        }
    }

    void release() override { outcomes.clear(); }

  private:
    ValidateInputs in;
    std::vector<core::ProfiledApp> profiled;
    std::vector<core::SubsetSelection> selections;
    std::vector<ReplayOutcome> outcomes;
};

// ------------------------------------------------------------------ serve

class ServeFlow : public Flow
{
  public:
    explicit ServeFlow(ServeInputs inputs) : in(std::move(inputs)) {}

    void
    setup(RunContext &ctx) override
    {
        std::vector<const workloads::Workload *> apps;
        for (const std::string &name : in.recordings)
            apps.push_back(&workloadNamed(name));
        gpu::TrialConfig trial;
        trial.noiseSeed = in.noiseSeed;
        std::vector<core::ProfiledApp> profiled = core::profileSuite(
            apps, gpu::DeviceConfig::hd4000(), trial, ctx.pool);
        recordings.clear();
        recordingInstrs.clear();
        recordingDispatches.clear();
        for (core::ProfiledApp &app : profiled) {
            recordingInstrs.push_back(app.db.totalInstrs());
            recordingDispatches.push_back(app.db.numDispatches());
            recordings.push_back(std::move(app.recording));
        }
    }

    PassOutput
    pass(RunContext &ctx) override
    {
        Tracer *tr = ctx.tracer;
        PassOutput out;
        config = serve::ServiceConfig{};
        config.trial.noiseSeed = in.noiseSeed;
        config.pool = ctx.pool;
        config.maxResidentBytes = in.residentBudgetBytes;
        config.archiveDir =
            ctx.scratchDir + "/serve-" + std::to_string(++passCount);
        service = std::make_unique<serve::ProfilingService>(config);
        sessions.clear();

        Digest digest;
        core::simpoint::KMeansStats kmeans;
        std::set<size_t> submitted;
        double simInstrs = 0.0, simDispatches = 0.0, footprint = 0.0;
        for (size_t r = 0; r < in.rounds.size(); ++r) {
            const ServeRound &round = in.rounds[r];
            out.attempted += 1;
            auto t0 = std::chrono::steady_clock::now();
            std::vector<std::pair<size_t, size_t>> mine;
            bool ok = runOp([&] {
                Span op(tr, "op.round", r + 1);
                serve::ProfilingService::TenantId tenant =
                    service->openTenant("tenant-" + std::to_string(r));
                for (size_t rec : round.batch) {
                    uint64_t hits =
                        tr ? service->stats().artifactHits : 0;
                    Span s(tr, "serve.submit_cold");
                    size_t wid = service->submit(
                        tenant, in.recordings[rec], recordings[rec]);
                    if (tr && service->stats().artifactHits > hits) {
                        s.rename("serve.submit_warm");
                    } else if (tr) {
                        simInstrs += (double)recordingInstrs[rec];
                        simDispatches += (double)recordingDispatches[rec];
                    }
                    mine.emplace_back(tenant, wid);
                    submitted.insert(rec);
                }
                {
                    Span s(tr, "serve.drain_wait");
                    service->drain();
                }
                Span s(tr, "serve.refresh");
                for (const auto &[t, w] : mine) {
                    serve::WorkloadSession &session =
                        service->session(t, w);
                    session.refresh();
                    digest.u64(session.numDispatches());
                    for (size_t c = 0; c < config.selections.size();
                         ++c) {
                        core::SubsetSelection sel = session.selection(c);
                        digest.selection(sel);
                        kmeans.merge(sel.clusterStats);
                    }
                    out.dispatches += session.numDispatches();
                }
            });
            out.opMs.push_back(ok ? msSince(t0) : failedMs);
            if (!ok)
                ++out.failed;
            sessions.insert(sessions.end(), mine.begin(), mine.end());
            if (tr) {
                footprint = std::max(
                    footprint,
                    (double)service->memoryFootprint().totalBytes);
            }
        }

        serve::ServiceStats st = service->stats();
        out.digest = digest.value();
        auto &c = out.counters;
        c["gpu.dispatches"] = simDispatches;
        c["gpu.sim_instrs"] = simInstrs;
        c["ocl.drivers"] = (double)st.replays;
        c["serve.replays"] = (double)st.replays;
        c["serve.artifact_hits"] = (double)st.artifactHits;
        c["serve.dup_replays"] =
            (double)st.replays - (double)submitted.size();
        c["serve.evictions"] = (double)st.sessions.evictions;
        c["serve.rehydrations"] = (double)st.sessions.rehydrations;
        c["serve.reclustered"] = (double)st.sessions.reclustered;
        c["serve.memo_answers"] = (double)st.sessions.reusedSelections;
        uint64_t lookups = st.planCache.hits + st.planCache.misses;
        c["serve.plan_cache_hit_frac"] =
            lookups ? (double)st.planCache.hits / (double)lookups : 0.0;
        c["serve.footprint_bytes"] = footprint;
        c["core.kmeans_skip_frac"] = skipFraction(kmeans);
        return out;
    }

    /**
     * Every session of the first two rounds (cold, and long evicted by
     * the end of the pass) and of the last round (resident) against a
     * one-shot selectSubset() over its sealed database, bitwise; the
     * self-validation errors of those selections are the workload's
     * accuracy figures.
     */
    void
    check(RunContext &ctx, std::vector<std::string> &failures) override
    {
        std::vector<size_t> rounds = {0, 1, in.rounds.size() - 1};
        size_t evictedChecked = 0;
        AccuracyAcc accuracy;
        core::simpoint::ClusterOptions options = config.cluster;
        options.pool = ctx.pool;
        for (const auto &[tenant, wid] : sessions) {
            if (std::find(rounds.begin(), rounds.end(), tenant) ==
                rounds.end())
                continue;
            serve::WorkloadSession &session =
                service->session(tenant, wid);
            evictedChecked += session.isEvicted();
            core::TraceDatabase db = session.sealDatabase();
            for (size_t c = 0; c < config.selections.size(); ++c) {
                const serve::SelectionConfig &sc = config.selections[c];
                core::SubsetSelection got = session.selection(c);
                core::SubsetSelection want = core::selectSubset(
                    db, sc.scheme, sc.feature, options,
                    config.targetInstrs);
                Digest a, b;
                a.selection(got);
                b.selection(want);
                if (a.value() != b.value()) {
                    failures.push_back(
                        "serve: session " + session.name() + " of round " +
                        std::to_string(tenant) + " config " +
                        std::to_string(c) +
                        " differs from the one-shot oracle");
                }
                accuracy.add(core::selectionErrorPct(db, got), got);
            }
        }
        if (evictedChecked == 0)
            failures.push_back("serve: no evicted session was checked");
        acc = accuracy.value();
    }

    void
    release() override
    {
        sessions.clear();
        if (service) {
            std::string dir = service->archiveDirectory();
            service.reset();
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
    }

  private:
    ServeInputs in;
    std::vector<cfl::Recording> recordings;
    std::vector<uint64_t> recordingInstrs;
    std::vector<uint64_t> recordingDispatches;
    serve::ServiceConfig config;
    std::unique_ptr<serve::ProfilingService> service;
    /** (tenant, workload) of every submission; tenant == round. */
    std::vector<std::pair<size_t, size_t>> sessions;
    size_t passCount = 0;
};

} // anonymous namespace

std::unique_ptr<Flow>
makeExploreFlow(ExploreInputs in)
{
    return std::make_unique<ExploreFlow>(std::move(in));
}

std::unique_ptr<Flow>
makeValidateFlow(ValidateInputs in)
{
    return std::make_unique<ValidateFlow>(std::move(in));
}

std::unique_ptr<Flow>
makeServeFlow(ServeInputs in)
{
    return std::make_unique<ServeFlow>(std::move(in));
}

std::unique_ptr<Flow>
makeFlow(WorkloadKind kind, uint64_t seed)
{
    switch (kind) {
    case WorkloadKind::Explore:
        return makeExploreFlow(makeExploreInputs(seed));
    case WorkloadKind::Validate:
        return makeValidateFlow(makeValidateInputs(seed));
    case WorkloadKind::Serve:
        return makeServeFlow(makeServeInputs(seed));
    }
    return nullptr;
}

} // namespace perfbench
