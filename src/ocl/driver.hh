/**
 * @file
 * The modeled GPU driver.
 *
 * In the paper's Fig. 1, the driver JIT-compiles kernel source when
 * clBuildProgram is issued and normally hands the machine-specific
 * binary straight to the GPU. GT-Pin modifies exactly two points of
 * that flow: an initialization hook when the runtime first comes up,
 * and a diversion of every freshly JIT-compiled binary through the
 * GT-Pin binary rewriter before it reaches the device. This class
 * exposes those same two hook points through DriverObserver.
 *
 * The driver owns the device: its memory, its functional executor,
 * its trace buffer, its checkpoint store, and the timing model that
 * stands in for the silicon's clock. The one thing drivers share is
 * an optional gpu::SharedPlanCache, attached through executor().
 */

#ifndef GT_OCL_DRIVER_HH
#define GT_OCL_DRIVER_HH

#include <memory>
#include <string>
#include <vector>

#include "gpu/detailed_sim.hh"
#include "gpu/executor.hh"
#include "gpu/timing.hh"
#include "isa/kernel.hh"

namespace gt::ocl
{

/** Everything known about one completed kernel dispatch. */
struct DispatchResult
{
    uint64_t seq = 0;            //!< global dispatch sequence number
    uint32_t kernelId = 0;       //!< driver kernel id
    std::string kernelName;
    uint64_t globalSize = 0;
    uint64_t argsHash = 0;       //!< hash of the argument values
    std::vector<uint32_t> args;  //!< the argument values themselves
    gpu::KernelTime time;        //!< modeled wall time
    gpu::ExecProfile profile;    //!< ground-truth device profile
};

/**
 * Hook interface for tools that modify or observe driver behaviour.
 * GT-Pin implements it: onKernelJit() is the binary-rewriter
 * diversion; onDispatchComplete() is where the CPU post-processor
 * collects trace-buffer results.
 */
class DriverObserver
{
  public:
    virtual ~DriverObserver() = default;

    /**
     * Called with each freshly JIT-compiled binary before it is
     * finalized for the device; may return a rewritten
     * (instrumented) binary.
     */
    virtual isa::KernelBinary
    onKernelJit(const isa::KernelSource &source,
                isa::KernelBinary binary)
    {
        (void)source;
        return binary;
    }

    /** Called after each dispatch finishes executing. */
    virtual void
    onDispatchComplete(const DispatchResult &result,
                       gpu::TraceBuffer &trace)
    {
        (void)result;
        (void)trace;
    }
};

/** JIT compilation, dispatch execution, and device ownership. */
class GpuDriver
{
  public:
    GpuDriver(const gpu::DeviceConfig &config,
              const isa::JitCompiler &jit,
              const gpu::TrialConfig &trial = {});

    /** Attach the (single) driver observer; null detaches. */
    void setObserver(DriverObserver *observer);
    DriverObserver *observer() const { return observerPtr; }

    /**
     * JIT-compile @p source, diverting the result through the
     * observer's rewriter if one is attached.
     * @return the driver kernel id.
     */
    uint32_t buildKernel(const isa::KernelSource &source);

    /** Number of kernels built so far. */
    uint32_t numKernels() const { return (uint32_t)kernels.size(); }

    const isa::KernelBinary &binary(uint32_t kernel_id) const;
    const isa::KernelSource &source(uint32_t kernel_id) const;

    /**
     * Execute one dispatch synchronously on the modeled device and
     * report timing and profile. Notifies the observer.
     */
    DispatchResult execute(uint32_t kernel_id, uint64_t global_size,
                           uint8_t simd_width,
                           const std::vector<uint32_t> &args);

    /** Seconds to move @p bytes between host and device. */
    double transferSeconds(uint64_t bytes) const;

    /**
     * Detailed-simulation hook: the functional checkpoint of the
     * dispatch (kernel_id, global_size, simd_width, args), built
     * through this driver's executor on first request and memoized
     * by dispatch identity (gpu::CheckpointStore), so a validation
     * sweep pays one Fast-mode pre-pass per distinct dispatch no
     * matter how many design points replay it. Not thread-safe —
     * warm the store before fanning replay cells out.
     */
    const gpu::DetailedCheckpoint &
    checkpoint(uint32_t kernel_id, uint64_t global_size,
               uint8_t simd_width, const std::vector<uint32_t> &args);

    /** The checkpoint memo table (hit/build stats, clearing). */
    gpu::CheckpointStore &checkpoints() { return ckpts; }

    /** Functional execution mode (Fast by default). */
    void setExecMode(gpu::Executor::Mode mode) { execMode = mode; }

    /**
     * Memory-trace consumer (forces Full execution; cache tools):
     * accesses are collected in the executor's SoA buffer and
     * delivered in fixed-size chunks, in execution order.
     */
    void
    setMemBatchCallback(gpu::MemBatchFn fn)
    {
        memBatch = std::move(fn);
    }

    gpu::DeviceMemory &memory() { return mem; }
    gpu::Executor &executor() { return exec; }
    gpu::TraceBuffer &traceBuffer() { return trace; }
    const gpu::DeviceConfig &config() const { return cfg; }

    /** Total dispatches executed. */
    uint64_t dispatchCount() const { return nextSeq; }

    /** Accumulated modeled device-busy time, in seconds. */
    double deviceBusySeconds() const { return busySeconds; }

  private:
    struct KernelEntry
    {
        isa::KernelSource src;
        std::unique_ptr<isa::KernelBinary> bin;
    };

    gpu::DeviceConfig cfg;
    const isa::JitCompiler &jit;
    gpu::DeviceMemory mem;
    gpu::Executor exec;
    gpu::TimingModel timing;
    gpu::TraceBuffer trace;
    DriverObserver *observerPtr = nullptr;
    gpu::Executor::Mode execMode = gpu::Executor::Mode::Fast;
    gpu::MemBatchFn memBatch;
    gpu::CheckpointStore ckpts;
    std::vector<KernelEntry> kernels;
    uint64_t nextSeq = 0;
    double busySeconds = 0.0;
};

} // namespace gt::ocl

#endif // GT_OCL_DRIVER_HH
