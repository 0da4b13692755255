/**
 * @file
 * End-to-end profiling and validation pipelines.
 *
 * profileApp() performs the paper's single native profiling run:
 * the workload executes on the modeled GPU with GT-Pin attached
 * (selection tool + characterization tools) and the CoFluent-style
 * tracer and recorder observing the host API. One call yields
 * everything Sections IV and V need: the characterization numbers,
 * the joined trace database, and a replayable recording.
 *
 * replayTrial() re-executes a recording under different conditions —
 * another trial seed, another GPU frequency, another architecture
 * generation — producing a new trace database against which a
 * trial-1 selection can be validated (Fig. 8).
 */

#ifndef GT_CORE_PIPELINE_HH
#define GT_CORE_PIPELINE_HH

#include "cfl/recorder.hh"
#include "core/explorer.hh"
#include "gpu/plan_cache.hh"
#include "gtpin/tools.hh"
#include "sched/thread_pool.hh"
#include "workloads/workload.hh"

namespace gt::core
{

/** Everything Figs. 3 and 4 plot for one application. */
struct AppCharacterization
{
    // Fig. 3a: OpenCL API call breakdown.
    uint64_t totalApiCalls = 0;
    double fracKernel = 0.0;
    double fracSync = 0.0;
    double fracOther = 0.0;

    // Fig. 3b: static GPU program structures.
    uint64_t uniqueKernels = 0;
    uint64_t uniqueBlocks = 0;

    // Fig. 3c: dynamic GPU work.
    uint64_t kernelInvocations = 0;
    uint64_t blockExecs = 0;
    uint64_t dynInstrs = 0;

    // Fig. 4a/4b: instruction mixes and SIMD widths.
    std::array<uint64_t, isa::numOpClasses> classCounts{};
    std::array<uint64_t, 5> simdCounts{};

    // Fig. 4c: memory activity.
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;
};

/** The result of one profiled native run. All selection
 * post-processing (exploreConfigs, selectSubset, the fig5–fig8
 * studies) runs off the immutable `db`; callers doing repeated
 * extraction should build one core::FeatureEngine over it and pass
 * that engine through, so the dispatch profiles are lowered once. */
struct ProfiledApp
{
    std::string name;
    TraceDatabase db;
    cfl::Recording recording;
    AppCharacterization stats;
};

/**
 * The one instrumented device stack every profiling run and replay
 * executes on: private JIT and driver, GT-Pin with the full tool set
 * (selection profile, BB counts, opcode mix, memory bytes, in that
 * order), host runtime, API tracer and, if @p record, the recorder.
 * Instrumentation load shifts kernels' relative SPI, so only replays
 * carrying exactly the profiling run's tools validate its selections
 * without bias; a same-trial replay is bitwise equal to the profile.
 *
 * **Timing contract:** the attached tool set is part of every
 * modeled time. Each tool's probes add instrumentation instructions,
 * and gpu::TimingModel::kernelTime charges them as trace-buffer
 * traffic, so a stack with fewer tools models different kernel
 * seconds and a different measured SPI. Dropping tools from a
 * replay is a labelled method change, never a speed-up.
 *
 * The shared plan cache may be null and must outlive the stack.
 * Members are in construction order, so GtPin detaches before the
 * driver dies.
 */
struct InstrumentedStack
{
    InstrumentedStack(const gpu::DeviceConfig &device,
                      const gpu::TrialConfig &trial, bool record = false,
                      gpu::SharedPlanCache *plans = nullptr);

    /** The run's outcome so far: moves the profiles, call stream
     * and timings out and walks the epochs once. */
    ReplayArtifact takeArtifact();

    workloads::TemplateJit jit;
    ocl::GpuDriver driver;
    gtpin::KernelProfileTool profileTool;
    gtpin::BasicBlockCounterTool bbTool;
    gtpin::OpcodeMixTool mixTool;
    gtpin::MemBytesTool memTool;
    gtpin::GtPin pin;
    ocl::ClRuntime runtime;
    cfl::ApiTracer tracer;
    cfl::Recorder recorder;
};

/**
 * Profile @p workload natively on @p config under @p trial on an
 * InstrumentedStack that also records the API stream.
 */
ProfiledApp profileApp(
    const workloads::Workload &workload,
    const gpu::DeviceConfig &config = gpu::DeviceConfig::hd4000(),
    const gpu::TrialConfig &trial = {});

/**
 * Profile every workload in @p apps concurrently on @p pool (null =
 * the process-wide pool, whose size honors GT_THREADS).
 *
 * Each task builds a private InstrumentedStack — profileApp()
 * shares no mutable state between calls — so
 * results[i] is bit-identical to a serial profileApp(*apps[i])
 * regardless of thread count, and results are returned in input
 * order.
 */
std::vector<ProfiledApp> profileSuite(
    const std::vector<const workloads::Workload *> &apps,
    const gpu::DeviceConfig &config = gpu::DeviceConfig::hd4000(),
    const gpu::TrialConfig &trial = {},
    sched::ThreadPool *pool = nullptr);

/**
 * Replay @p recording on @p config under @p trial on an
 * InstrumentedStack, returning the new trial's database.
 */
TraceDatabase replayTrial(const cfl::Recording &recording,
                          const gpu::DeviceConfig &config,
                          const gpu::TrialConfig &trial);

} // namespace gt::core

#endif // GT_CORE_PIPELINE_HH
