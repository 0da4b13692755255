/**
 * @file
 * Per-dispatch execution profiles.
 *
 * An ExecProfile is the ground truth the rest of the system consumes:
 * dynamic instruction counts, per-basic-block execution counts,
 * opcode-class and SIMD-width histograms, and memory traffic, for one
 * kernel dispatch aggregated across all hardware threads — the same
 * aggregation convention the paper uses for data below kernel
 * granularity. Everything except the block counts and cycles is
 * derived exactly from blockCounts x static block contents, which
 * KernelSummary precomputes once per binary: deriving a profile then
 * costs one multiply-add per executed block and nonzero bin, not a
 * walk over the block's instructions.
 */

#ifndef GT_GPU_EXEC_PROFILE_HH
#define GT_GPU_EXEC_PROFILE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/kernel.hh"

namespace gt::gpu
{

/** Number of distinct SIMD width bins (1, 2, 4, 8, 16). */
constexpr int numSimdBins = 5;

/** @return the histogram bin for a SIMD width (1->0 ... 16->4). */
int simdBin(uint8_t width);

/** @return the SIMD width for a histogram bin (0->1 ... 4->16). */
uint8_t simdBinWidth(int bin);

/** One opcode's static count within a block (KernelSummary). */
struct OpcodeCount
{
    uint16_t op = 0;
    uint32_t count = 0;
};

/**
 * Static per-execution totals of one basic block: what one execution
 * of the block adds to a profile.
 */
struct BlockSummary
{
    uint32_t appInstrs = 0;
    uint32_t instrumentationInstrs = 0;
    uint32_t sends = 0;
    /** Send bytes per execution (bytesPerLane x width, summed). */
    uint64_t readBytes = 0;
    uint64_t writeBytes = 0;
    /** Application instructions per class and SIMD width bin. */
    std::array<uint32_t, isa::numOpClasses> classes{};
    std::array<uint32_t, numSimdBins> simd{};
    /** The block's opcodes: KernelSummary::opcodes[opBegin, opEnd),
     * ascending, one entry per distinct application opcode. */
    uint32_t opBegin = 0;
    uint32_t opEnd = 0;
};

/** Per-block static totals of one binary, indexed by block id. */
struct KernelSummary
{
    std::vector<BlockSummary> blocks;
    /** Sparse per-block opcode lists, flattened. */
    std::vector<OpcodeCount> opcodes;

    /** Heap bytes of the two arrays (plan footprint accounting). */
    uint64_t memoryBytes() const;
};

/** Summarize every block of @p bin (instrumentation included). */
KernelSummary summarizeKernel(const isa::KernelBinary &bin);

/** Execution statistics for one kernel dispatch. */
struct ExecProfile
{
    /** Hardware threads the dispatch ran (ceil(globalSize/simd)). */
    uint64_t numThreads = 0;

    /** Dynamic application instructions (instrumentation excluded). */
    uint64_t dynInstrs = 0;

    /** Dynamic injected instrumentation instructions. */
    uint64_t instrumentationInstrs = 0;

    /** Execution count of each basic block, summed over threads. */
    std::vector<uint64_t> blockCounts;

    /** Dynamic count per opcode (application instructions only). */
    std::array<uint64_t, isa::numOpcodes> opcodeCounts{};

    /** Dynamic count per opcode class (application only). */
    std::array<uint64_t, isa::numOpClasses> classCounts{};

    /** Dynamic count per SIMD width bin (application only). */
    std::array<uint64_t, numSimdBins> simdCounts{};

    /** Bytes moved by Send messages, summed over threads. */
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;

    /** Dynamic Send message count. */
    uint64_t sendCount = 0;

    /**
     * EU issue cycles summed across threads, including
     * instrumentation cost. The timing model turns this into time.
     */
    double threadCycles = 0.0;

    /**
     * Fill the derived fields (opcode/class/SIMD counts, bytes,
     * sends, dynInstrs, instrumentationInstrs) from blockCounts and
     * the binary's block summaries. blockCounts must already be
     * populated. Integer sums regroup exactly mod 2^64, so the result
     * equals a per-instruction walk bit for bit.
     */
    void deriveFromBlocks(const KernelSummary &summary);

    /** Accumulate another profile (e.g. across dispatches). */
    void accumulate(const ExecProfile &other);
};

/**
 * @return the EU issue-cycle cost of one instruction. SIMD lanes
 * beyond the EU's FPU width take extra issue cycles; transcendental
 * operations and sends are multi-cycle; instrumentation instructions
 * pay a trace-buffer-update cost.
 */
double issueCycles(const isa::Instruction &ins, uint32_t fpu_lanes);

} // namespace gt::gpu

#endif // GT_GPU_EXEC_PROFILE_HH
