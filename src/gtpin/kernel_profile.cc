#include "gtpin/kernel_profile.hh"

#include "common/logging.hh"
#include "gpu/exec_profile.hh"

namespace gt::gtpin
{

uint64_t
KernelStatic::footprintBytes() const
{
    return sizeof(KernelStatic) + name.size() +
           (blockLens.size() + blockReadBytes.size() +
            blockWriteBytes.size()) *
               sizeof(uint32_t);
}

void
KernelTable::set(uint32_t kernel_id, KernelStatic row)
{
    GT_ASSERT(row.blockReadBytes.size() == row.numBlocks() &&
                  row.blockWriteBytes.size() == row.numBlocks(),
              "kernel ", kernel_id, " has ragged per-block arrays: ",
              row.numBlocks(), " lens, ", row.blockReadBytes.size(),
              " read, ", row.blockWriteBytes.size(), " write");
    if (kernel_id >= rows.size())
        rows.resize((size_t)kernel_id + 1);
    rows[kernel_id] = std::move(row);
}

const KernelStatic &
KernelTable::at(uint64_t kernel_id) const
{
    const KernelStatic *row = find(kernel_id);
    GT_ASSERT(row, "kernel ", kernel_id, " missing from the table (",
              rows.size(), " ids)");
    return *row;
}

uint64_t
KernelTable::footprintBytes() const
{
    uint64_t bytes = sizeof(*this) + rows.size() * sizeof(rows[0]);
    for (const auto &row : rows) {
        if (row)
            bytes += row->footprintBytes() - sizeof(KernelStatic);
    }
    return bytes;
}

void
DispatchProfile::checkShape(const KernelTable &kernels) const
{
    const KernelStatic *row = kernels.find(kernelId);
    GT_ASSERT(row, "dispatch ", seq, " names kernel ", kernelId,
              ", which the kernel table lacks");
    GT_ASSERT(row->numBlocks() == blockCounts.size(), "dispatch ",
              seq, " has ", blockCounts.size(),
              " block counts but kernel ", kernelId, " has ",
              row->numBlocks(), " blocks");
}

uint64_t
DispatchProfile::footprintBytes() const
{
    return sizeof(DispatchProfile) + args.size() * sizeof(uint32_t) +
           blockCounts.size() * sizeof(uint64_t);
}

void
encodeProfilePayload(const DispatchProfile &profile,
                     std::vector<uint8_t> &out)
{
    putVarint(out, profile.seq);
    putVarint(out, profile.kernelId);
    putVarint(out, profile.globalWorkSize);
    putVarint(out, profile.argsHash);
    putVarint(out, profile.args.size());
    for (uint32_t a : profile.args)
        putVarint(out, a);
    putVarint(out, profile.instrs);
    putVarint(out, profile.blockCounts.size());
    for (uint64_t c : profile.blockCounts)
        putVarint(out, c);
    putVarint(out, profile.bytesRead);
    putVarint(out, profile.bytesWritten);
}

DispatchProfile
decodeProfilePayload(ByteReader &reader, const KernelTable &kernels)
{
    DispatchProfile p;
    p.seq = reader.getVarint();
    uint64_t kernel_id = reader.getVarint();
    const KernelStatic *row = kernels.find(kernel_id);
    if (!row) {
        fatal("trace store: kernelId ", kernel_id, " of dispatch ",
              p.seq, " is missing from the kernel table (",
              kernels.idLimit(), " ids)");
    }
    p.kernelId = (uint32_t)kernel_id;
    p.globalWorkSize = reader.getVarint();
    p.argsHash = reader.getVarint();
    uint64_t num_args = reader.getCount(1 << 20);
    p.args.resize(num_args);
    for (uint64_t i = 0; i < num_args; ++i)
        p.args[i] = (uint32_t)reader.getVarint();
    p.instrs = reader.getVarint();
    uint64_t num_blocks = reader.getVarint();
    if (num_blocks != row->numBlocks()) {
        fatal("trace store: blockCounts of dispatch ", p.seq,
              " holds ", num_blocks, " entries but kernel ", kernel_id,
              " has ", row->numBlocks(), " blocks in the kernel table");
    }
    p.blockCounts.resize(num_blocks);
    for (uint64_t i = 0; i < num_blocks; ++i)
        p.blockCounts[i] = reader.getVarint();
    p.bytesRead = reader.getVarint();
    p.bytesWritten = reader.getVarint();
    return p;
}

void
encodeKernelTable(const KernelTable &kernels, std::vector<uint8_t> &out)
{
    putVarint(out, kernels.idLimit());
    for (uint64_t id = 0; id < kernels.idLimit(); ++id) {
        const KernelStatic *row = kernels.find(id);
        putVarint(out, row ? 1 : 0);
        if (!row)
            continue;
        putVarint(out, row->name.size());
        putBytes(out, row->name.data(), row->name.size());
        putVarint(out, row->numBlocks());
        for (uint32_t l : row->blockLens)
            putVarint(out, l);
        for (uint32_t r : row->blockReadBytes)
            putVarint(out, r);
        for (uint32_t w : row->blockWriteBytes)
            putVarint(out, w);
    }
}

KernelTable
decodeKernelTable(ByteReader &reader)
{
    // Every id takes at least one byte and every block three, so the
    // remaining length caps both counts before anything is sized.
    KernelTable kernels;
    uint64_t limit = reader.getCount(reader.remaining());
    for (uint64_t id = 0; id < limit; ++id) {
        uint64_t present = reader.getVarint();
        if (present > 1) {
            fatal("trace store kernel table: presence flag ", present,
                  " of kernel ", id, " is neither 0 nor 1");
        }
        if (!present)
            continue;
        KernelStatic row;
        row.name.resize(reader.getCount(1u << 16));
        reader.getBytes(row.name.data(), row.name.size());
        uint64_t num_blocks = reader.getCount(reader.remaining() / 3);
        for (auto *column : {&row.blockLens, &row.blockReadBytes,
                             &row.blockWriteBytes}) {
            column->resize(num_blocks);
            for (uint32_t &value : *column)
                value = (uint32_t)reader.getVarint();
        }
        kernels.set((uint32_t)id, std::move(row));
    }
    return kernels;
}

void
KernelProfileTool::onKernelBuild(uint32_t kernel_id,
                                 Instrumenter &instrumenter)
{
    const isa::KernelBinary &bin = instrumenter.binary();
    uint32_t first = instrumenter.allocSlot((uint32_t)bin.blocks.size());
    gpu::KernelSummary sum = gpu::summarizeKernel(bin);
    KernelStatic row;
    row.name = bin.name;
    row.blockLens.resize(bin.blocks.size());
    row.blockReadBytes.resize(bin.blocks.size());
    row.blockWriteBytes.resize(bin.blocks.size());
    for (const auto &block : bin.blocks) {
        instrumenter.countBlockEntry(block.id, first + block.id, 1);
        const gpu::BlockSummary &bs = sum.blocks[block.id];
        row.blockLens[block.id] = bs.appInstrs;
        row.blockReadBytes[block.id] = (uint32_t)bs.readBytes;
        row.blockWriteBytes[block.id] = (uint32_t)bs.writeBytes;
    }
    firstSlot[kernel_id] = first;
    // A table already handed out by takeProfiles() stays immutable.
    if (table.use_count() > 1)
        table = std::make_shared<KernelTable>(*table);
    table->set(kernel_id, std::move(row));
}

void
KernelProfileTool::onDispatchComplete(
    const ocl::DispatchResult &result, const SlotReader &slots)
{
    auto it = firstSlot.find(result.kernelId);
    GT_ASSERT(it != firstSlot.end(),
              "dispatch of a kernel kernelprofile never saw");
    const KernelStatic &info = table->at(result.kernelId);

    DispatchProfile rec;
    rec.seq = result.seq;
    rec.kernelId = result.kernelId;
    rec.globalWorkSize = result.globalSize;
    rec.argsHash = result.argsHash;
    rec.args = result.args;
    rec.blockCounts.resize(info.numBlocks());

    slots.forRange(it->second, (uint32_t)info.numBlocks(),
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

ProfileSet
KernelProfileTool::takeProfiles()
{
    ProfileSet out;
    out.dispatches.swap(records);
    out.kernels = table;
    return out;
}

} // namespace gt::gtpin
