#include "gtpin/tools.hh"

#include "common/logging.hh"
#include "gpu/exec_profile.hh"

namespace gt::gtpin
{

// --- BasicBlockCounterTool ------------------------------------------

void
BasicBlockCounterTool::onKernelBuild(uint32_t kernel_id,
                                     Instrumenter &instrumenter)
{
    const isa::KernelBinary &bin = instrumenter.binary();
    KernelInfo info;
    info.firstSlot =
        instrumenter.allocSlot((uint32_t)bin.blocks.size());
    info.blockLens.reserve(bin.blocks.size());
    for (const auto &block : bin.blocks) {
        instrumenter.countBlockEntry(
            block.id, info.firstSlot + block.id, 1);
        info.blockLens.push_back((uint32_t)block.appInstrCount());
        staticInstrs += block.appInstrCount();
    }
    info.built = true;
    if (kernel_id >= kernels.size())
        kernels.resize(kernel_id + 1);
    kernels[kernel_id] = std::move(info);
}

void
BasicBlockCounterTool::onDispatchComplete(
    const ocl::DispatchResult &result, const SlotReader &slots)
{
    GT_ASSERT(result.kernelId < kernels.size() &&
                  kernels[result.kernelId].built,
              "dispatch of a kernel bbcount never instrumented");
    const KernelInfo &info = kernels[result.kernelId];

    lastCounts.assign(info.blockLens.size(), 0);
    lastInstrs = 0;
    slots.forRange(info.firstSlot, (uint32_t)info.blockLens.size(),
                   [&](uint32_t b, uint64_t count) {
                       lastCounts[b] = count;
                       dynBlocks += count;
                       lastInstrs += count * info.blockLens[b];
                   });
    dynInstrs += lastInstrs;
}

uint64_t
BasicBlockCounterTool::staticBlocks(uint32_t kernel_id) const
{
    return kernel_id < kernels.size()
               ? kernels[kernel_id].blockLens.size()
               : 0;
}

uint64_t
BasicBlockCounterTool::totalStaticBlocks() const
{
    uint64_t n = 0;
    for (const KernelInfo &info : kernels)
        n += info.blockLens.size();
    return n;
}

uint64_t
BasicBlockCounterTool::totalStaticInstrs() const
{
    return staticInstrs;
}

// --- OpcodeMixTool --------------------------------------------------

void
OpcodeMixTool::onKernelBuild(uint32_t kernel_id,
                             Instrumenter &instrumenter)
{
    const isa::KernelBinary &bin = instrumenter.binary();
    KernelInfo info;
    info.firstSlot =
        instrumenter.allocSlot((uint32_t)bin.blocks.size());
    for (const auto &block : bin.blocks) {
        instrumenter.countBlockEntry(
            block.id, info.firstSlot + block.id, 1);
    }
    info.summary = gpu::summarizeKernel(bin);
    info.built = true;
    if (kernel_id >= kernels.size())
        kernels.resize(kernel_id + 1);
    kernels[kernel_id] = std::move(info);
}

void
OpcodeMixTool::onDispatchComplete(const ocl::DispatchResult &result,
                                  const SlotReader &slots)
{
    GT_ASSERT(result.kernelId < kernels.size() &&
                  kernels[result.kernelId].built,
              "dispatch of a kernel opcodemix never instrumented");
    const KernelInfo &info = kernels[result.kernelId];

    const gpu::KernelSummary &sum = info.summary;
    slots.forRange(
        info.firstSlot, (uint32_t)sum.blocks.size(),
        [&](uint32_t b, uint64_t count) {
            const gpu::BlockSummary &bs = sum.blocks[b];
            for (uint32_t i = bs.opBegin; i < bs.opEnd; ++i) {
                const gpu::OpcodeCount &oc = sum.opcodes[i];
                dynOpcodes[oc.op] += count * oc.count;
            }
            for (int c = 0; c < isa::numOpClasses; ++c)
                dynClasses[c] += count * bs.classes[c];
            for (int w = 0; w < gpu::numSimdBins; ++w)
                dynSimd[w] += count * bs.simd[w];
        });
}

uint64_t
OpcodeMixTool::totalInstrs() const
{
    uint64_t n = 0;
    for (uint64_t c : dynClasses)
        n += c;
    return n;
}

// --- MemBytesTool ---------------------------------------------------

void
MemBytesTool::onKernelBuild(uint32_t kernel_id,
                            Instrumenter &instrumenter)
{
    const isa::KernelBinary &bin = instrumenter.binary();
    KernelInfo info;
    info.readSlot = instrumenter.allocSlot();
    info.writeSlot = instrumenter.allocSlot();
    for (const auto &block : bin.blocks) {
        for (uint32_t i = 0; i < block.instrs.size(); ++i) {
            const auto &ins = block.instrs[i];
            if (ins.op != isa::Opcode::Send)
                continue;
            instrumenter.recordSendBytes(
                block.id, i,
                ins.send.isWrite ? info.writeSlot : info.readSlot);
        }
    }
    kernels[kernel_id] = info;
}

void
MemBytesTool::onDispatchComplete(const ocl::DispatchResult &result,
                                 const SlotReader &slots)
{
    auto it = kernels.find(result.kernelId);
    GT_ASSERT(it != kernels.end(),
              "dispatch of a kernel membytes never instrumented");
    KernelInfo &info = it->second;
    uint64_t r = slots(info.readSlot);
    uint64_t w = slots(info.writeSlot);
    info.read += r;
    info.written += w;
    bytesRead += r;
    bytesWritten += w;
}

uint64_t
MemBytesTool::kernelBytesRead(uint32_t kernel_id) const
{
    auto it = kernels.find(kernel_id);
    return it == kernels.end() ? 0 : it->second.read;
}

uint64_t
MemBytesTool::kernelBytesWritten(uint32_t kernel_id) const
{
    auto it = kernels.find(kernel_id);
    return it == kernels.end() ? 0 : it->second.written;
}

// --- SimdUtilizationTool ----------------------------------------------

void
SimdUtilizationTool::onKernelBuild(uint32_t kernel_id,
                                   Instrumenter &instrumenter)
{
    const isa::KernelBinary &bin = instrumenter.binary();
    KernelInfo info;
    info.firstSlot =
        instrumenter.allocSlot((uint32_t)bin.blocks.size());
    gpu::KernelSummary sum = gpu::summarizeKernel(bin);
    info.blockLanes.resize(bin.blocks.size());
    info.blockLens.resize(bin.blocks.size());
    for (const auto &block : bin.blocks) {
        instrumenter.countBlockEntry(
            block.id, info.firstSlot + block.id, 1);
        const gpu::BlockSummary &bs = sum.blocks[block.id];
        uint64_t lanes = 0;
        for (int w = 0; w < gpu::numSimdBins; ++w)
            lanes += (uint64_t)bs.simd[w] * gpu::simdBinWidth(w);
        info.blockLanes[block.id] = lanes;
        info.blockLens[block.id] = bs.appInstrs;
    }
    kernels[kernel_id] = std::move(info);
}

void
SimdUtilizationTool::onDispatchComplete(
    const ocl::DispatchResult &result, const SlotReader &slots)
{
    auto it = kernels.find(result.kernelId);
    GT_ASSERT(it != kernels.end(),
              "dispatch of a kernel simdutil never instrumented");
    KernelInfo &info = it->second;
    slots.forRange(info.firstSlot, (uint32_t)info.blockLanes.size(),
                   [&](uint32_t b, uint64_t count) {
                       uint64_t lanes = count * info.blockLanes[b];
                       uint64_t instrs = count * info.blockLens[b];
                       info.activeLanes += lanes;
                       info.instrs += instrs;
                       totalActiveLanes += lanes;
                       totalInstrs += instrs;
                   });
}

double
SimdUtilizationTool::kernelUtilization(uint32_t kernel_id) const
{
    auto it = kernels.find(kernel_id);
    if (it == kernels.end() || it->second.instrs == 0)
        return 0.0;
    return (double)it->second.activeLanes /
        ((double)it->second.instrs * isa::maxSimdWidth);
}

double
SimdUtilizationTool::overallUtilization() const
{
    if (totalInstrs == 0)
        return 0.0;
    return (double)totalActiveLanes /
        ((double)totalInstrs * isa::maxSimdWidth);
}

// --- KernelTimerTool ------------------------------------------------

void
KernelTimerTool::onKernelBuild(uint32_t kernel_id,
                               Instrumenter &instrumenter)
{
    uint32_t slot = instrumenter.allocSlot();
    instrumenter.timeKernel(slot);
    kernels[kernel_id] = {slot, 0};
}

void
KernelTimerTool::onDispatchComplete(const ocl::DispatchResult &result,
                                    const SlotReader &slots)
{
    auto it = kernels.find(result.kernelId);
    GT_ASSERT(it != kernels.end(),
              "dispatch of a kernel ktimer never instrumented");
    uint64_t c = slots(it->second.first);
    it->second.second += c;
    cycles += c;
}

uint64_t
KernelTimerTool::kernelCycles(uint32_t kernel_id) const
{
    auto it = kernels.find(kernel_id);
    return it == kernels.end() ? 0 : it->second.second;
}

} // namespace gt::gtpin
