/**
 * @file
 * Built-in GT-Pin tools.
 *
 * These cover the data kinds Section III-B lists: static and dynamic
 * instruction counts, opcode distributions, SIMD width counts, basic
 * block counts, kernel thread cycles, and memory bytes read/written
 * per instruction. Each tool inserts only what it needs — a block
 * counter per basic block, a byte accumulator per send, a timer pair
 * per kernel — mirroring the paper's overhead-minimization strategy.
 */

#ifndef GT_GTPIN_TOOLS_HH
#define GT_GTPIN_TOOLS_HH

#include <array>
#include <map>

#include "gpu/exec_profile.hh"
#include "gtpin/gtpin.hh"

namespace gt::gtpin
{

/**
 * Counts basic-block executions (one counter inserted per block) and
 * derives dynamic instruction counts from the static block lengths,
 * the paper's one-increment-per-block technique.
 */
class BasicBlockCounterTool : public GtPinTool
{
  public:
    std::string name() const override { return "bbcount"; }

    void onKernelBuild(uint32_t kernel_id,
                       Instrumenter &instrumenter) override;
    void onDispatchComplete(const ocl::DispatchResult &result,
                            const SlotReader &slots) override;

    /** Static program structure: unique basic blocks per kernel. */
    uint64_t staticBlocks(uint32_t kernel_id) const;
    uint64_t totalStaticBlocks() const;
    uint64_t totalStaticInstrs() const;

    /** Dynamic totals across all dispatches seen. */
    uint64_t totalBlockExecs() const { return dynBlocks; }
    uint64_t totalDynInstrs() const { return dynInstrs; }

    /** Per-dispatch values of the most recent dispatch. */
    const std::vector<uint64_t> &lastBlockCounts() const
    {
        return lastCounts;
    }
    uint64_t lastDynInstrs() const { return lastInstrs; }

  private:
    struct KernelInfo
    {
        uint32_t firstSlot = 0;
        bool built = false; //!< instrumented by onKernelBuild
        std::vector<uint32_t> blockLens; //!< app instrs per block
    };

    /** Indexed by kernel id — driver ids are dense and sequential,
     * so a vector replaces the former std::map lookup per dispatch. */
    std::vector<KernelInfo> kernels;
    uint64_t dynBlocks = 0;
    uint64_t dynInstrs = 0;
    uint64_t staticInstrs = 0;
    std::vector<uint64_t> lastCounts;
    uint64_t lastInstrs = 0;
};

/**
 * Dynamic opcode-class and SIMD-width distributions (Figs. 4a/4b):
 * per-block counters times the static per-block summaries
 * (gpu::KernelSummary), for the blocks a dispatch executed.
 */
class OpcodeMixTool : public GtPinTool
{
  public:
    std::string name() const override { return "opcodemix"; }

    void onKernelBuild(uint32_t kernel_id,
                       Instrumenter &instrumenter) override;
    void onDispatchComplete(const ocl::DispatchResult &result,
                            const SlotReader &slots) override;

    /** Dynamic totals per opcode class. */
    const std::array<uint64_t, isa::numOpClasses> &
    classCounts() const
    {
        return dynClasses;
    }

    /** Dynamic totals per opcode. */
    const std::array<uint64_t, isa::numOpcodes> &
    opcodeCounts() const
    {
        return dynOpcodes;
    }

    /** Dynamic totals per SIMD width bin (1,2,4,8,16). */
    const std::array<uint64_t, 5> &simdCounts() const
    {
        return dynSimd;
    }

    uint64_t totalInstrs() const;

  private:
    struct KernelInfo
    {
        uint32_t firstSlot = 0;
        bool built = false; //!< instrumented by onKernelBuild
        gpu::KernelSummary summary; //!< static per-block bins
    };

    /** Indexed by kernel id (dense, see BasicBlockCounterTool). */
    std::vector<KernelInfo> kernels;
    std::array<uint64_t, isa::numOpcodes> dynOpcodes{};
    std::array<uint64_t, isa::numOpClasses> dynClasses{};
    std::array<uint64_t, 5> dynSimd{};
};

/**
 * Bytes read and written per kernel (Fig. 4c): one accumulator pair
 * per kernel, fed by a ProfMem insertion after every send.
 */
class MemBytesTool : public GtPinTool
{
  public:
    std::string name() const override { return "membytes"; }

    void onKernelBuild(uint32_t kernel_id,
                       Instrumenter &instrumenter) override;
    void onDispatchComplete(const ocl::DispatchResult &result,
                            const SlotReader &slots) override;

    uint64_t totalBytesRead() const { return bytesRead; }
    uint64_t totalBytesWritten() const { return bytesWritten; }

    /** Per-kernel dynamic byte totals. */
    uint64_t kernelBytesRead(uint32_t kernel_id) const;
    uint64_t kernelBytesWritten(uint32_t kernel_id) const;

  private:
    struct KernelInfo
    {
        uint32_t readSlot = 0;
        uint32_t writeSlot = 0;
        uint64_t read = 0;
        uint64_t written = 0;
    };

    std::map<uint32_t, KernelInfo> kernels;
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;
};

/**
 * Utilization of per-EU SIMD channels (Section III-B's last listed
 * statistic): the fraction of the 16 physical channels a kernel's
 * dynamic instructions actually drive, derived from per-block
 * counters and the static width of each instruction.
 */
class SimdUtilizationTool : public GtPinTool
{
  public:
    std::string name() const override { return "simdutil"; }

    void onKernelBuild(uint32_t kernel_id,
                       Instrumenter &instrumenter) override;
    void onDispatchComplete(const ocl::DispatchResult &result,
                            const SlotReader &slots) override;

    /** Average active-channel fraction for one kernel (0..1). */
    double kernelUtilization(uint32_t kernel_id) const;

    /** Average active-channel fraction across all kernels. */
    double overallUtilization() const;

  private:
    struct KernelInfo
    {
        uint32_t firstSlot = 0;
        /** Static sum of instruction widths per block. */
        std::vector<uint64_t> blockLanes;
        /** Static application-instruction count per block. */
        std::vector<uint32_t> blockLens;
        uint64_t activeLanes = 0;
        uint64_t instrs = 0;
    };

    std::map<uint32_t, KernelInfo> kernels;
    uint64_t totalActiveLanes = 0;
    uint64_t totalInstrs = 0;
};

/**
 * Thread cycles spent in each kernel, via timer-register reads at
 * entry and before every thread exit.
 */
class KernelTimerTool : public GtPinTool
{
  public:
    std::string name() const override { return "ktimer"; }

    void onKernelBuild(uint32_t kernel_id,
                       Instrumenter &instrumenter) override;
    void onDispatchComplete(const ocl::DispatchResult &result,
                            const SlotReader &slots) override;

    /** Accumulated thread cycles per kernel. */
    uint64_t kernelCycles(uint32_t kernel_id) const;
    uint64_t totalCycles() const { return cycles; }

  private:
    std::map<uint32_t, std::pair<uint32_t, uint64_t>> kernels;
    uint64_t cycles = 0;
};

} // namespace gt::gtpin

#endif // GT_GTPIN_TOOLS_HH
