#include "gpu/eu_pipeline.hh"

#include <algorithm>
#include <array>
#include <limits>

#include "common/logging.hh"
#include "gpu/exec_profile.hh"

namespace gt::gpu
{

using isa::Instruction;
using isa::Opcode;
using isa::Operand;

namespace
{

constexpr int scoreboardSize = isa::numRegisters + isa::numFlags;

/** Which completion rule an instruction's result follows. */
enum class Latency : uint8_t { Alu, Math, Send };

/** The static facts of one instruction the pipeline reads, decoded
 * once per simulateEu() call at the EU's FPU lane count. */
struct DecodedInstr
{
    double issue = 0.0;  //!< issue-port cycles
    double tx = 0.0;     //!< Send: bandwidth-queue cycles
    Latency latency = Latency::Alu;
    uint8_t numSrcs = 0;
    uint8_t numDsts = 0;
    std::array<uint16_t, 5> srcs{};  //!< scoreboard slots read
    std::array<uint16_t, 2> dsts{};  //!< scoreboard slots written
};

DecodedInstr
decode(const Instruction &ins, const EuParams &params)
{
    DecodedInstr d;
    d.issue = issueCycles(ins, params.fpuLanes);
    switch (ins.op) {
      case Opcode::Send:
        d.latency = Latency::Send;
        d.tx = (double)ins.send.bytesPerLane * ins.simdWidth /
               params.bwBytesPerCycle;
        break;
      case Opcode::FDiv:
      case Opcode::Sqrt:
      case Opcode::Rsqrt:
      case Opcode::Sin:
      case Opcode::Cos:
      case Opcode::Exp:
      case Opcode::Log:
        d.latency = Latency::Math;
        break;
      default:
        break;
    }
    auto read = [&](const Operand &opnd) {
        if (opnd.isReg())
            d.srcs[d.numSrcs++] = opnd.reg;
    };
    read(ins.src0);
    read(ins.src1);
    read(ins.src2);
    if (ins.op == Opcode::Send)
        d.srcs[d.numSrcs++] = ins.send.addrReg;
    if (isa::readsFlag(ins.op))
        d.srcs[d.numSrcs++] = (uint16_t)(isa::numRegisters + ins.flag);
    if (ins.writesReg())
        d.dsts[d.numDsts++] = ins.dst;
    if (ins.writesFlag())
        d.dsts[d.numDsts++] = (uint16_t)(isa::numRegisters + ins.flag);
    return d;
}

/** One SMT context replaying the control-flow trace. */
struct Context
{
    size_t tracePos = 0;  //!< index into the block trace
    uint32_t pc = 0;      //!< next instruction, index into the code
    uint32_t end = 0;     //!< end of the current block in the code
    double ready = 0.0;   //!< earliest cycle the context can issue
};

} // anonymous namespace

EuResult
simulateEu(const isa::KernelBinary &bin,
           const std::vector<uint32_t> &trace, uint32_t num_ctx,
           const EuParams &params)
{
    GT_ASSERT(!trace.empty(), bin.name, ": empty block trace");
    GT_ASSERT(num_ctx > 0, bin.name, ": EU with no contexts");

    // Decode every block once into one flat code array.
    std::vector<DecodedInstr> code;
    std::vector<uint32_t> blockBase(bin.blocks.size() + 1, 0);
    for (size_t b = 0; b < bin.blocks.size(); ++b) {
        blockBase[b] = (uint32_t)code.size();
        for (const Instruction &ins : bin.blocks[b].instrs)
            code.push_back(decode(ins, params));
    }
    blockBase[bin.blocks.size()] = (uint32_t)code.size();
    for (uint32_t b : trace) {
        GT_ASSERT(b < bin.blocks.size() &&
                      blockBase[b] < blockBase[b + 1],
                  bin.name, ": trace names block ", b,
                  ", which is missing or empty");
    }

    std::vector<Context> ctxs(num_ctx);
    std::vector<double> regReady((size_t)num_ctx * scoreboardSize, 0.0);
    // The cycle each context's next instruction can issue at:
    // max(ready, its operands' ready times). Both depend only on the
    // context's own state, which changes only when it issues, so the
    // value is refreshed then and nowhere else. Finished contexts
    // sit at +inf, which the scan below never picks: `cycle` only
    // ever takes finite values.
    std::vector<double> nextIssue(num_ctx);
    auto refresh = [&](uint32_t c) {
        const Context &ctx = ctxs[c];
        const DecodedInstr &d = code[ctx.pc];
        const double *sb = &regReady[(size_t)c * scoreboardSize];
        double t = 0.0;
        for (uint8_t k = 0; k < d.numSrcs; ++k)
            t = std::max(t, sb[d.srcs[k]]);
        nextIssue[c] = std::max(ctx.ready, t);
    };
    for (uint32_t c = 0; c < num_ctx; ++c) {
        ctxs[c].pc = blockBase[trace[0]];
        ctxs[c].end = blockBase[trace[0] + 1];
        // Stagger starts slightly to avoid artificial lockstep.
        ctxs[c].ready = (double)c;
        refresh(c);
    }

    double cycle = 0.0;
    double bw_free = 0.0;
    uint64_t issued = 0;
    uint32_t live = num_ctx;
    uint32_t rr = 0;

    while (live > 0) {
        // Find an issuable context, round-robin from rr.
        uint32_t chosen = num_ctx;
        double earliest = std::numeric_limits<double>::max();
        for (uint32_t k = 0, c = rr; k < num_ctx; ++k) {
            double t = nextIssue[c];
            if (t <= cycle) {
                chosen = c;
                break;
            }
            earliest = std::min(earliest, t);
            if (++c == num_ctx)
                c = 0;
        }

        if (chosen == num_ctx) {
            // Nothing issuable this cycle: jump to the next event.
            cycle = earliest;
            continue;
        }

        Context &ctx = ctxs[chosen];
        const DecodedInstr &d = code[ctx.pc];

        double done_at;
        switch (d.latency) {
          case Latency::Send: {
            double start = std::max(cycle, bw_free);
            bw_free = start + d.tx;
            done_at = start + d.tx + params.memLatCycles;
            break;
          }
          case Latency::Math:
            done_at = cycle + d.issue + params.mathLatency;
            break;
          default:
            done_at = cycle + d.issue + params.aluLatency;
            break;
        }

        double *sb = &regReady[(size_t)chosen * scoreboardSize];
        for (uint8_t k = 0; k < d.numDsts; ++k)
            sb[d.dsts[k]] = done_at;

        // The issue port is busy for `issue` cycles; the context may
        // not issue its next instruction before then either.
        cycle += d.issue;
        ctx.ready = cycle;
        ++issued;
        rr = chosen + 1 == num_ctx ? 0 : chosen + 1;

        // Advance the context's position in the trace.
        if (++ctx.pc == ctx.end) {
            if (++ctx.tracePos == trace.size()) {
                nextIssue[chosen] =
                    std::numeric_limits<double>::infinity();
                --live;
                continue;
            }
            uint32_t b = trace[ctx.tracePos];
            ctx.pc = blockBase[b];
            ctx.end = blockBase[b + 1];
        }
        refresh(chosen);
    }

    // Drain: the EU is busy until the last write completes.
    for (double t : regReady)
        cycle = std::max(cycle, t);

    EuResult result;
    result.cycles = cycle;
    result.issued = issued;
    return result;
}

} // namespace gt::gpu
