/**
 * @file
 * The GT-Pin framework.
 *
 * GtPin reproduces the workflow of the paper's Section III. When
 * attached to a GPU driver it (1) allocates the CPU/GPU-shared trace
 * buffer, (2) diverts every JIT-compiled kernel binary through the
 * binary rewriter, letting each registered tool inject the profiling
 * instructions it needs, and (3) after every dispatch, reads the
 * trace buffer's per-dispatch deltas on the CPU and hands them to
 * the tools for post-processing. No application source changes or
 * recompilation are involved, and the injected instructions do not
 * perturb the application's architectural state.
 *
 * Users write tools against the GtPinTool interface, exactly like
 * the paper's users write custom tools that collect only the
 * statistics they need to keep overheads low.
 */

#ifndef GT_GTPIN_GTPIN_HH
#define GT_GTPIN_GTPIN_HH

#include <memory>
#include <string>
#include <vector>

#include "gpu/memtrace.hh"
#include "gtpin/rewriter.hh"
#include "ocl/driver.hh"

namespace gt::gtpin
{

/** Read-only view of one dispatch's trace-buffer deltas. */
class SlotReader
{
  public:
    explicit SlotReader(const std::vector<uint64_t> &deltas)
        : data(deltas)
    {}

    /** @return the value slot @p slot accumulated this dispatch. */
    uint64_t
    operator()(uint32_t slot) const
    {
        return slot < data.size() ? data[slot] : 0;
    }

  private:
    const std::vector<uint64_t> &data;
};

/** Base class for GT-Pin profiling tools. */
class GtPinTool
{
  public:
    virtual ~GtPinTool() = default;

    /** Short tool name for reports. */
    virtual std::string name() const = 0;

    /**
     * Inject instrumentation for a freshly JIT-compiled kernel.
     * @p kernel_id is the driver kernel id later seen in dispatches.
     */
    virtual void onKernelBuild(uint32_t kernel_id,
                               Instrumenter &instrumenter) = 0;

    /** Post-process one dispatch's trace-buffer deltas. */
    virtual void
    onDispatchComplete(const ocl::DispatchResult &result,
                       const SlotReader &slots)
    {
        (void)result;
        (void)slots;
    }

    /**
     * Tools that simulate caches from memory traces need per-access
     * addresses, which forces full (per-lane) device execution.
     */
    virtual bool needsAddresses() const { return false; }

    /**
     * Per-access memory-trace hook, reached through the default
     * onMemBatch() replay for tools that return true from
     * needsAddresses().
     */
    virtual void
    onMemAccess(uint64_t addr, uint32_t bytes, bool is_write)
    {
        (void)addr;
        (void)bytes;
        (void)is_write;
    }

    /**
     * Bulk memory trace: one call per flushed SoA chunk, chunks and
     * records in execution order. The default implementation replays
     * the chunk through onMemAccess(), so tools written against the
     * per-access hook work unchanged; trace-hungry tools override
     * this for a native bulk consumer (see CacheSimTool).
     */
    virtual void
    onMemBatch(const gpu::MemBatch &batch)
    {
        for (size_t i = 0; i < batch.count; ++i) {
            uint32_t meta = batch.metas[i];
            onMemAccess(batch.addrs[i], gpu::MemBatch::bytes(meta),
                        gpu::MemBatch::isWrite(meta));
        }
    }
};

/** The framework: attach to a driver, register tools, profile. */
class GtPin : public ocl::DriverObserver
{
  public:
    GtPin() = default;
    ~GtPin() override;

    GtPin(const GtPin &) = delete;
    GtPin &operator=(const GtPin &) = delete;

    /**
     * Register @p tool before attaching. The framework keeps a
     * non-owning pointer; the tool must outlive the GtPin object.
     */
    void addTool(GtPinTool *tool);

    /** Hook the driver (runtime-initialization interception). */
    void attach(ocl::GpuDriver &driver);

    /** Unhook; the driver reverts to un-instrumented JIT output. */
    void detach();

    bool attached() const { return drv != nullptr; }

    /** Trace-buffer slots allocated across all tools. */
    uint32_t slotsAllocated() const { return slots.allocated(); }

    /** Instrumentation instructions inserted across all kernels. */
    uint64_t instructionsInserted() const { return inserted; }

    // DriverObserver interface -------------------------------------
    isa::KernelBinary onKernelJit(const isa::KernelSource &source,
                                  isa::KernelBinary binary) override;
    void onDispatchComplete(const ocl::DispatchResult &result,
                            gpu::TraceBuffer &trace) override;

  private:
    ocl::GpuDriver *drv = nullptr;
    std::vector<GtPinTool *> tools;
    /** Tools needing addresses, filtered once at attach so trace
     * delivery never re-scans the full tool list. */
    std::vector<GtPinTool *> addrTools;
    SlotAllocator slots;
    std::vector<uint64_t> snapshot;
    std::vector<uint64_t> deltas;
    uint64_t inserted = 0;
};

} // namespace gt::gtpin

#endif // GT_GTPIN_GTPIN_HH
