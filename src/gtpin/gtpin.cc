#include "gtpin/gtpin.hh"

#include "common/logging.hh"

namespace gt::gtpin
{

GtPin::~GtPin()
{
    if (drv)
        detach();
}

void
GtPin::addTool(GtPinTool *tool)
{
    GT_ASSERT(tool, "null tool");
    GT_ASSERT(!drv, "tools must be registered before attach()");
    tools.push_back(tool);
}

void
GtPin::attach(ocl::GpuDriver &driver)
{
    GT_ASSERT(!drv, "GtPin is already attached");
    // Register with the driver first: if another observer is already
    // attached this throws and we remain cleanly detached.
    driver.setObserver(this);
    drv = &driver;
    // Baseline the snapshot on this device's current trace buffer:
    // a fresh device starts from zero, and re-attaching to a device
    // with history must not report that history as a delta.
    snapshot = driver.traceBuffer().raw();

    inform("GT-Pin attached (", tools.size(), " tool",
           tools.size() == 1 ? "" : "s", ")");

    // The initialization hook of Fig. 1: allocate the CPU/GPU-shared
    // trace buffer and, if any tool simulates caches from memory
    // traces, ask the driver for trace visibility. The address-needing
    // tool list is filtered here, once, so delivery never re-scans the
    // full tool list per chunk.
    drv->traceBuffer().reserveSlots(slots.allocated());
    addrTools.clear();
    for (GtPinTool *tool : tools) {
        if (tool->needsAddresses())
            addrTools.push_back(tool);
    }
    if (!addrTools.empty()) {
        drv->setExecMode(gpu::Executor::Mode::Full);
        drv->setMemBatchCallback([this](const gpu::MemBatch &b) {
            for (GtPinTool *tool : addrTools)
                tool->onMemBatch(b);
        });
    }
}

void
GtPin::detach()
{
    GT_ASSERT(drv, "GtPin is not attached");
    // Drop the trace plumbing: the callback captures `this` and must
    // not outlive the attachment.
    if (!addrTools.empty())
        drv->setMemBatchCallback(nullptr);
    drv->setObserver(nullptr);
    drv = nullptr;
}

isa::KernelBinary
GtPin::onKernelJit(const isa::KernelSource &source,
                   isa::KernelBinary binary)
{
    (void)source;
    uint32_t kernel_id = drv->numKernels();
    Instrumenter instrumenter(binary, slots);
    for (GtPinTool *tool : tools)
        tool->onKernelBuild(kernel_id, instrumenter);
    inserted += instrumenter.requestCount();
    isa::KernelBinary rewritten = instrumenter.apply();
    drv->traceBuffer().reserveSlots(slots.allocated());
    return rewritten;
}

void
GtPin::onDispatchComplete(const ocl::DispatchResult &result,
                          gpu::TraceBuffer &trace)
{
    // CPU post-processing: diff the trace buffer against the last
    // snapshot to obtain this dispatch's contribution.
    const std::vector<uint64_t> &raw = trace.raw();
    if (snapshot.size() < raw.size())
        snapshot.resize(raw.size(), 0);
    deltas.assign(raw.size(), 0);
    for (size_t s = 0; s < raw.size(); ++s) {
        GT_ASSERT(raw[s] >= snapshot[s],
                  "trace buffer slot went backwards");
        deltas[s] = raw[s] - snapshot[s];
        snapshot[s] = raw[s];
    }

    SlotReader reader(deltas);
    for (GtPinTool *tool : tools)
        tool->onDispatchComplete(result, reader);
}

} // namespace gt::gtpin
