/**
 * @file
 * The custom GT-Pin tool behind the paper's subset selection.
 *
 * Section III-B: "for the simulation subset selection in Section V,
 * we wrote a custom GT-Pin tool that collected only instruction
 * counts and opcodes, basic block counts, and memory bytes read and
 * written per instruction." This tool is that collector: it emits
 * one DispatchProfile per kernel invocation containing everything
 * the interval builder and feature extractor need, and nothing more.
 *
 * A kernel's static per-block data (instruction count, bytes read
 * and written per block execution) and its name are the same for
 * every dispatch of that kernel, so the tool keeps them once, in a
 * KernelTable indexed by kernel id, and each DispatchProfile carries
 * only the dynamic fields: seq, kernelId, gws, argsHash, args,
 * instrs, the block counts and the bytes moved. takeProfiles() hands
 * the records out together with the table (a ProfileSet); every
 * artifact, database and trace-store file downstream keeps that one
 * table rather than a copy per record.
 */

#ifndef GT_GTPIN_KERNEL_PROFILE_HH
#define GT_GTPIN_KERNEL_PROFILE_HH

#include <map>
#include <memory>
#include <optional>

#include "common/varint.hh"
#include "gtpin/gtpin.hh"

namespace gt::gtpin
{

/**
 * One kernel's static per-block data: what every dispatch of the
 * kernel shares. Only the block counts change from one dispatch to
 * the next, so a trace keeps one of these per kernel, in a
 * KernelTable, and none in its dispatch records.
 */
struct KernelStatic
{
    std::string name;

    /** Static application-instruction length per basic block. */
    std::vector<uint32_t> blockLens;

    /** Static bytes read/written per execution, per basic block. */
    std::vector<uint32_t> blockReadBytes;
    std::vector<uint32_t> blockWriteBytes;

    size_t numBlocks() const { return blockLens.size(); }

    /** Heap plus struct bytes, by element size. */
    uint64_t footprintBytes() const;

    bool operator==(const KernelStatic &) const = default;
};

/**
 * The static data of every kernel a run built, indexed by the
 * driver's dense kernel id. Immutable once handed out: artifacts,
 * builders and databases share one table through
 * std::shared_ptr<const KernelTable>.
 */
class KernelTable
{
  public:
    /** Set (or replace) kernel @p kernel_id's row. Asserts the
     * three per-block arrays agree in length. */
    void set(uint32_t kernel_id, KernelStatic row);

    /** Kernel @p kernel_id's row, or null if the table lacks it. */
    const KernelStatic *
    find(uint64_t kernel_id) const
    {
        return kernel_id < rows.size() && rows[kernel_id]
                   ? &*rows[kernel_id]
                   : nullptr;
    }

    /** Kernel @p kernel_id's row; asserts it is present. */
    const KernelStatic &at(uint64_t kernel_id) const;

    /** One past the largest kernel id (ids below may be absent). */
    size_t idLimit() const { return rows.size(); }

    /** Heap plus struct bytes of every row. */
    uint64_t footprintBytes() const;

    bool operator==(const KernelTable &) const = default;

  private:
    std::vector<std::optional<KernelStatic>> rows;
};

/** Selection-relevant data for one kernel invocation. The kernel's
 * name and static per-block arrays live in the KernelTable row of
 * kernelId; a record holds only what changes per dispatch. */
struct DispatchProfile
{
    uint64_t seq = 0;          //!< dispatch sequence number
    uint32_t kernelId = 0;     //!< row of the run's KernelTable
    uint64_t globalWorkSize = 0;
    uint64_t argsHash = 0;

    /** Kernel argument values (buffer args carry device addresses),
     * so selected intervals can later be re-dispatched for detailed
     * simulation. */
    std::vector<uint32_t> args;

    /** Dynamic application instructions in this invocation. */
    uint64_t instrs = 0;

    /** Execution count per basic block of the kernel. */
    std::vector<uint64_t> blockCounts;

    /** Dynamic bytes moved by this invocation. */
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;

    /** Basic blocks in this invocation's kernel. */
    size_t numBlocks() const { return blockCounts.size(); }

    /** Assert @p kernels holds this dispatch's kernel and that the
     * row has one entry per block count — the shape contract every
     * indexed consumer (feature lowering, the BB extractors) relies
     * on. */
    void checkShape(const KernelTable &kernels) const;

    /** Deep resident size: the struct plus its args and block
     * counts, by element size. The trace database's memory-footprint
     * accounting sums this. */
    uint64_t footprintBytes() const;
};

/** A run's dispatch profiles together with the table their
 * kernelIds index. */
struct ProfileSet
{
    std::vector<DispatchProfile> dispatches;
    std::shared_ptr<const KernelTable> kernels;
};

/**
 * Columnar extraction of one profile into a varint payload — the
 * per-dispatch record format of core/trace_store. Every field is
 * LEB128, in order: seq, kernelId, gws, argsHash, args (count, then
 * values), instrs, block counts (count, then values), bytes R/W.
 * The kernel's name and static arrays are written once per file, in
 * its kernel table, never per row.
 */
void encodeProfilePayload(const DispatchProfile &profile,
                          std::vector<uint8_t> &out);

/**
 * Inverse of encodeProfilePayload(): decode one profile from
 * @p reader, checking its kernel against @p kernels. A row naming a
 * kernel the table lacks, or carrying a different block count than
 * its kernel's row, fails with a FatalError naming the field. Every
 * field round-trips exactly, so the result is bitwise identical to
 * the profile that was packed.
 */
DispatchProfile decodeProfilePayload(ByteReader &reader,
                                     const KernelTable &kernels);

/** Append @p kernels to @p out (the trace-store kernel-table
 * section): the id limit, then per id a presence flag and, for a
 * present row, its name and the three per-block arrays. */
void encodeKernelTable(const KernelTable &kernels,
                       std::vector<uint8_t> &out);

/** Inverse of encodeKernelTable(); fatal on a truncated or
 * malformed section. */
KernelTable decodeKernelTable(ByteReader &reader);

/** Collects DispatchProfiles for every kernel invocation. */
class KernelProfileTool : public GtPinTool
{
  public:
    std::string name() const override { return "kernelprofile"; }

    void onKernelBuild(uint32_t kernel_id,
                       Instrumenter &instrumenter) override;
    void onDispatchComplete(const ocl::DispatchResult &result,
                            const SlotReader &slots) override;

    /** All profiles collected so far, in dispatch order. */
    const std::vector<DispatchProfile> &profiles() const
    {
        return records;
    }

    /** Static data of every kernel built so far. */
    const KernelTable &kernels() const { return *table; }

    /** Total dynamic application instructions across dispatches. */
    uint64_t totalInstrs() const { return instrTotal; }

    /** Release collected profiles together with the kernel table
     * (shared, not copied; keeps instrumentation state). */
    ProfileSet takeProfiles();

  private:
    /** First instrumentation slot of each built kernel. */
    std::map<uint32_t, uint32_t> firstSlot;
    /** Copied on write once takeProfiles() has shared it. */
    std::shared_ptr<KernelTable> table =
        std::make_shared<KernelTable>();
    std::vector<DispatchProfile> records;
    uint64_t instrTotal = 0;
};

} // namespace gt::gtpin

#endif // GT_GTPIN_KERNEL_PROFILE_HH
