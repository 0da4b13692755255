#include "core/pipeline.hh"

#include <set>

#include "common/logging.hh"

namespace gt::core
{

InstrumentedStack::InstrumentedStack(const gpu::DeviceConfig &device,
                                     const gpu::TrialConfig &trial,
                                     bool record,
                                     gpu::SharedPlanCache *plans,
                                     gpu::SharedCheckpointCache *ckpts)
    : driver(device, jit, trial), runtime(driver)
{
    driver.setSharedCaches(plans, ckpts);
    pin.addTool(&profileTool);
    pin.addTool(&bbTool);
    pin.addTool(&mixTool);
    pin.addTool(&memTool);
    pin.attach(driver);
    runtime.addObserver(&tracer);
    if (record)
        runtime.addObserver(&recorder);
}

TraceDatabase
InstrumentedStack::takeDatabase(TraceDbBackend backend)
{
    return TraceDatabase::build(profileTool.takeProfiles(),
                                tracer.kernelTimings(),
                                tracer.callStream(), backend);
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
    app.db = stack.takeDatabase();
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
    return stack.takeDatabase(backend);
}

} // namespace gt::core
