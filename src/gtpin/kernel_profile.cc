#include "gtpin/kernel_profile.hh"

#include "common/logging.hh"
#include "gpu/exec_profile.hh"

namespace gt::gtpin
{

void
DispatchProfile::checkShape() const
{
    GT_ASSERT(blockLens.size() == blockCounts.size() &&
                  blockReadBytes.size() == blockCounts.size() &&
                  blockWriteBytes.size() == blockCounts.size(),
              "dispatch ", seq, " has ragged per-block arrays: ",
              blockCounts.size(), " counts, ", blockLens.size(),
              " lens, ", blockReadBytes.size(), " read, ",
              blockWriteBytes.size(), " write");
}

uint64_t
DispatchProfile::footprintBytes() const
{
    return sizeof(DispatchProfile) + kernelName.size() +
           args.size() * sizeof(uint32_t) +
           blockCounts.size() * sizeof(uint64_t) +
           blockLens.size() * sizeof(uint32_t) +
           blockReadBytes.size() * sizeof(uint32_t) +
           blockWriteBytes.size() * sizeof(uint32_t);
}

void
encodeProfilePayload(const DispatchProfile &profile,
                     uint32_t name_id, std::vector<uint8_t> &out)
{
    profile.checkShape();
    putVarint(out, profile.seq);
    putVarint(out, profile.kernelId);
    putVarint(out, name_id);
    putVarint(out, profile.globalWorkSize);
    putVarint(out, profile.argsHash);
    putVarint(out, profile.args.size());
    for (uint32_t a : profile.args)
        putVarint(out, a);
    putVarint(out, profile.instrs);
    putVarint(out, profile.blockCounts.size());
    for (uint64_t c : profile.blockCounts)
        putVarint(out, c);
    for (uint32_t l : profile.blockLens)
        putVarint(out, l);
    for (uint32_t r : profile.blockReadBytes)
        putVarint(out, r);
    for (uint32_t w : profile.blockWriteBytes)
        putVarint(out, w);
    putVarint(out, profile.bytesRead);
    putVarint(out, profile.bytesWritten);
}

DispatchProfile
decodeProfilePayload(ByteReader &reader,
                     const std::vector<std::string> &names)
{
    DispatchProfile p;
    p.seq = reader.getVarint();
    p.kernelId = (uint32_t)reader.getVarint();
    uint64_t name_id = reader.getVarint();
    if (name_id >= names.size())
        fatal("trace store: profile names kernel ", name_id,
              " but the name table holds ", names.size());
    p.kernelName = names[name_id];
    p.globalWorkSize = reader.getVarint();
    p.argsHash = reader.getVarint();
    uint64_t num_args = reader.getCount(1 << 20);
    p.args.resize(num_args);
    for (uint64_t i = 0; i < num_args; ++i)
        p.args[i] = (uint32_t)reader.getVarint();
    p.instrs = reader.getVarint();
    uint64_t num_blocks = reader.getCount(1 << 26);
    p.blockCounts.resize(num_blocks);
    for (uint64_t i = 0; i < num_blocks; ++i)
        p.blockCounts[i] = reader.getVarint();
    p.blockLens.resize(num_blocks);
    for (uint64_t i = 0; i < num_blocks; ++i)
        p.blockLens[i] = (uint32_t)reader.getVarint();
    p.blockReadBytes.resize(num_blocks);
    for (uint64_t i = 0; i < num_blocks; ++i)
        p.blockReadBytes[i] = (uint32_t)reader.getVarint();
    p.blockWriteBytes.resize(num_blocks);
    for (uint64_t i = 0; i < num_blocks; ++i)
        p.blockWriteBytes[i] = (uint32_t)reader.getVarint();
    p.bytesRead = reader.getVarint();
    p.bytesWritten = reader.getVarint();
    return p;
}

void
KernelProfileTool::onKernelBuild(uint32_t kernel_id,
                                 Instrumenter &instrumenter)
{
    const isa::KernelBinary &bin = instrumenter.binary();
    KernelInfo info;
    info.firstSlot =
        instrumenter.allocSlot((uint32_t)bin.blocks.size());
    gpu::KernelSummary sum = gpu::summarizeKernel(bin);
    info.blockLens.resize(bin.blocks.size());
    info.blockReadBytes.resize(bin.blocks.size());
    info.blockWriteBytes.resize(bin.blocks.size());
    for (const auto &block : bin.blocks) {
        instrumenter.countBlockEntry(
            block.id, info.firstSlot + block.id, 1);
        const gpu::BlockSummary &bs = sum.blocks[block.id];
        info.blockLens[block.id] = bs.appInstrs;
        info.blockReadBytes[block.id] = (uint32_t)bs.readBytes;
        info.blockWriteBytes[block.id] = (uint32_t)bs.writeBytes;
    }
    kernels[kernel_id] = std::move(info);
}

void
KernelProfileTool::onDispatchComplete(
    const ocl::DispatchResult &result, const SlotReader &slots)
{
    auto it = kernels.find(result.kernelId);
    GT_ASSERT(it != kernels.end(),
              "dispatch of a kernel kernelprofile never saw");
    const KernelInfo &info = it->second;

    DispatchProfile rec;
    rec.seq = result.seq;
    rec.kernelId = result.kernelId;
    rec.kernelName = result.kernelName;
    rec.globalWorkSize = result.globalSize;
    rec.argsHash = result.argsHash;
    rec.args = result.args;
    rec.blockLens = info.blockLens;
    rec.blockReadBytes = info.blockReadBytes;
    rec.blockWriteBytes = info.blockWriteBytes;
    rec.blockCounts.resize(info.blockLens.size());

    slots.forRange(info.firstSlot, (uint32_t)info.blockLens.size(),
                   [&](uint32_t b, uint64_t count) {
                       rec.blockCounts[b] = count;
                       rec.instrs += count * info.blockLens[b];
                       rec.bytesRead += count * info.blockReadBytes[b];
                       rec.bytesWritten +=
                           count * info.blockWriteBytes[b];
                   });

    instrTotal += rec.instrs;
    records.push_back(std::move(rec));
}

std::vector<DispatchProfile>
KernelProfileTool::takeProfiles()
{
    std::vector<DispatchProfile> out;
    out.swap(records);
    return out;
}

} // namespace gt::gtpin
