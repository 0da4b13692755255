#include "gpu/exec_profile.hh"

#include "common/logging.hh"

namespace gt::gpu
{

int
simdBin(uint8_t width)
{
    switch (width) {
      case 1: return 0;
      case 2: return 1;
      case 4: return 2;
      case 8: return 3;
      case 16: return 4;
      default:
        panic("invalid SIMD width ", (int)width);
    }
}

uint8_t
simdBinWidth(int bin)
{
    GT_ASSERT(bin >= 0 && bin < numSimdBins, "bad SIMD bin");
    return (uint8_t)(1u << bin);
}

double
issueCycles(const isa::Instruction &ins, uint32_t fpu_lanes)
{
    using isa::Opcode;
    double lanes = (double)ins.simdWidth;
    double base = lanes / (double)fpu_lanes;
    if (base < 1.0)
        base = 1.0;

    switch (ins.op) {
      case Opcode::FDiv:
      case Opcode::Sqrt:
      case Opcode::Rsqrt:
      case Opcode::Sin:
      case Opcode::Cos:
      case Opcode::Exp:
      case Opcode::Log:
        // Extended-math pipe: roughly 4x the throughput cost.
        return base * 4.0;
      case Opcode::Send:
        // Message dispatch occupies the issue port; memory latency
        // itself is modeled separately by the timing model.
        return base + 2.0;
      case Opcode::ProfCount:
      case Opcode::ProfAdd:
      case Opcode::ProfMem:
        // Trace-buffer accumulate: a scattered read-modify-write
        // into the shared buffer.
        return 12.0;
      case Opcode::ProfTimer:
        // Timer-register read; the paper reports <10 cycles.
        return 10.0;
      default:
        return base;
    }
}

uint64_t
KernelSummary::memoryBytes() const
{
    return blocks.size() * sizeof(BlockSummary) +
           opcodes.size() * sizeof(OpcodeCount);
}

KernelSummary
summarizeKernel(const isa::KernelBinary &bin)
{
    KernelSummary out;
    out.blocks.resize(bin.blocks.size());
    std::array<uint32_t, isa::numOpcodes> ops;
    for (const auto &block : bin.blocks) {
        BlockSummary &bs = out.blocks[block.id];
        ops.fill(0);
        for (const auto &ins : block.instrs) {
            isa::OpClass cls = ins.cls();
            if (cls == isa::OpClass::Instrumentation) {
                ++bs.instrumentationInstrs;
                continue;
            }
            ++bs.appInstrs;
            ++ops[(int)ins.op];
            ++bs.classes[(int)cls];
            ++bs.simd[simdBin(ins.simdWidth)];
            if (ins.op == isa::Opcode::Send) {
                uint64_t bytes =
                    (uint64_t)ins.send.bytesPerLane * ins.simdWidth;
                (ins.send.isWrite ? bs.writeBytes : bs.readBytes) +=
                    bytes;
                ++bs.sends;
            }
        }
        bs.opBegin = (uint32_t)out.opcodes.size();
        for (int op = 0; op < isa::numOpcodes; ++op) {
            if (ops[op])
                out.opcodes.push_back({(uint16_t)op, ops[op]});
        }
        bs.opEnd = (uint32_t)out.opcodes.size();
    }
    return out;
}

void
ExecProfile::deriveFromBlocks(const KernelSummary &summary)
{
    GT_ASSERT(blockCounts.size() == summary.blocks.size(),
              "block count vector does not match binary");

    dynInstrs = 0;
    instrumentationInstrs = 0;
    bytesRead = 0;
    bytesWritten = 0;
    sendCount = 0;
    opcodeCounts.fill(0);
    classCounts.fill(0);
    simdCounts.fill(0);

    for (size_t b = 0; b < blockCounts.size(); ++b) {
        uint64_t execs = blockCounts[b];
        if (execs == 0)
            continue;
        const BlockSummary &bs = summary.blocks[b];
        dynInstrs += execs * bs.appInstrs;
        instrumentationInstrs += execs * bs.instrumentationInstrs;
        for (uint32_t i = bs.opBegin; i < bs.opEnd; ++i) {
            const OpcodeCount &oc = summary.opcodes[i];
            opcodeCounts[oc.op] += execs * oc.count;
        }
        for (int c = 0; c < isa::numOpClasses; ++c)
            classCounts[c] += execs * bs.classes[c];
        for (int w = 0; w < numSimdBins; ++w)
            simdCounts[w] += execs * bs.simd[w];
        if (bs.sends) {
            bytesRead += execs * bs.readBytes;
            bytesWritten += execs * bs.writeBytes;
            sendCount += execs * bs.sends;
        }
    }
}

void
ExecProfile::accumulate(const ExecProfile &other)
{
    numThreads += other.numThreads;
    dynInstrs += other.dynInstrs;
    instrumentationInstrs += other.instrumentationInstrs;
    bytesRead += other.bytesRead;
    bytesWritten += other.bytesWritten;
    sendCount += other.sendCount;
    threadCycles += other.threadCycles;
    for (int i = 0; i < isa::numOpcodes; ++i)
        opcodeCounts[i] += other.opcodeCounts[i];
    for (int i = 0; i < isa::numOpClasses; ++i)
        classCounts[i] += other.classCounts[i];
    for (int i = 0; i < numSimdBins; ++i)
        simdCounts[i] += other.simdCounts[i];
    // Block counts are only meaningful when both profiles refer to
    // the same binary; accumulate elementwise where shapes match.
    if (blockCounts.size() == other.blockCounts.size()) {
        for (size_t i = 0; i < blockCounts.size(); ++i)
            blockCounts[i] += other.blockCounts[i];
    }
}

} // namespace gt::gpu
