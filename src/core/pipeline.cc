#include "core/pipeline.hh"

#include <set>

#include "common/logging.hh"

namespace gt::core
{

InstrumentedStack::InstrumentedStack(const gpu::DeviceConfig &device,
                                     const gpu::TrialConfig &trial,
                                     bool record,
                                     gpu::SharedPlanCache *plans)
    : driver(device, jit, trial), runtime(driver)
{
    driver.executor().setSharedPlanCache(plans);
    pin.addTool(&profileTool);
    pin.addTool(&bbTool);
    pin.addTool(&mixTool);
    pin.addTool(&memTool);
    pin.attach(driver);
    runtime.addObserver(&tracer);
    if (record)
        runtime.addObserver(&recorder);
}

ReplayArtifact
InstrumentedStack::takeArtifact()
{
    ReplayArtifact artifact;
    artifact.calls = tracer.takeCallStream();
    artifact.profiles = profileTool.takeProfiles();
    artifact.timings = tracer.takeKernelTimings();
    artifact.epochs = assignEpochs(artifact.calls);
    // Dispatches execute in seq order at alignment points, so the
    // profiled ones are a prefix of the issued ones.
    GT_ASSERT(artifact.epochs.size() >= artifact.profiles.size(),
              "the call stream issued ", artifact.epochs.size(),
              " dispatches but GT-Pin profiled ",
              artifact.profiles.size());
    artifact.epochs.resize(artifact.profiles.size());
    return artifact;
}

ProfiledApp
profileApp(const workloads::Workload &workload,
           const gpu::DeviceConfig &config,
           const gpu::TrialConfig &trial)
{
    InstrumentedStack stack(config, trial, /*record=*/true);
    workload.run(stack.runtime);

    ProfiledApp app;
    app.name = workload.info().name;
    app.db = TraceDatabase::build(stack.takeArtifact());
    app.recording = stack.recorder.take();

    const cfl::ApiTracer &tracer = stack.tracer;
    AppCharacterization &st = app.stats;
    st.totalApiCalls = tracer.totalCalls();
    st.fracKernel = tracer.categoryFraction(ocl::ApiCategory::Kernel);
    st.fracSync = tracer.categoryFraction(ocl::ApiCategory::Synchronization);
    st.fracOther = tracer.categoryFraction(ocl::ApiCategory::Other);

    std::set<std::string> names;
    for (uint32_t k = 0; k < stack.driver.numKernels(); ++k)
        names.insert(stack.driver.binary(k).name);
    st.uniqueKernels = names.size();
    st.uniqueBlocks = stack.bbTool.totalStaticBlocks();

    st.kernelInvocations = app.db.numDispatches();
    st.blockExecs = stack.bbTool.totalBlockExecs();
    st.dynInstrs = app.db.totalInstrs();

    st.classCounts = stack.mixTool.classCounts();
    st.simdCounts = stack.mixTool.simdCounts();
    st.bytesRead = stack.memTool.totalBytesRead();
    st.bytesWritten = stack.memTool.totalBytesWritten();
    return app;
}

std::vector<ProfiledApp>
profileSuite(const std::vector<const workloads::Workload *> &apps,
             const gpu::DeviceConfig &config,
             const gpu::TrialConfig &trial,
             sched::ThreadPool *pool_arg)
{
    sched::ThreadPool &pool =
        pool_arg ? *pool_arg : sched::ThreadPool::global();
    std::vector<ProfiledApp> results(apps.size());
    pool.parallelFor(
        apps.size(),
        [&](size_t i) {
            GT_ASSERT(apps[i], "null workload in profileSuite");
            results[i] = profileApp(*apps[i], config, trial);
        },
        1);
    return results;
}

TraceDatabase
replayTrial(const cfl::Recording &recording,
            const gpu::DeviceConfig &config,
            const gpu::TrialConfig &trial, TraceDbBackend backend)
{
    InstrumentedStack stack(config, trial);
    cfl::replay(recording, stack.runtime);
    return TraceDatabase::build(stack.takeArtifact(), backend);
}

} // namespace gt::core
