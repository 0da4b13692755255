/**
 * @file
 * Test-only reference for the EU pipeline core.
 *
 * This is the straightforward form of gpu::simulateEu(): every
 * scheduling step re-derives each context's operand readiness from
 * its scoreboard, and every issue re-derives the instruction's issue
 * cycles, latency class and scoreboard slots from the ISA. The
 * library's simulateEu() caches each context's next-issue time and
 * decodes instructions once per call; the differential tests in
 * test_detailed_sim.cc require both to agree bit for bit.
 */

#ifndef GT_TESTS_EU_REFERENCE_HH
#define GT_TESTS_EU_REFERENCE_HH

#include <algorithm>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "gpu/eu_pipeline.hh"
#include "gpu/exec_profile.hh"

namespace gt::gpu::reference
{

using isa::Instruction;
using isa::Opcode;
using isa::Operand;

/** Scoreboard index for a flag register. */
inline int
flagSlot(uint8_t flag)
{
    return isa::numRegisters + flag;
}

constexpr int scoreboardSize = isa::numRegisters + isa::numFlags;

/** One SMT context replaying the control-flow trace. */
struct Context
{
    size_t tracePos = 0;     //!< index into the block trace
    size_t instrIdx = 0;     //!< index within the current block
    double ready = 0.0;      //!< earliest cycle the context can issue
    bool done = false;
    std::vector<double> regReady;

    Context() : regReady(scoreboardSize, 0.0) {}
};

/** gpu::simulateEu(), re-deriving everything at every step. */
inline EuResult
simulateEu(const isa::KernelBinary &bin,
           const std::vector<uint32_t> &trace, uint32_t num_ctx,
           const EuParams &params)
{
    GT_ASSERT(!trace.empty(), bin.name, ": empty block trace");
    GT_ASSERT(num_ctx > 0, bin.name, ": EU with no contexts");

    std::vector<Context> ctxs(num_ctx);
    // Stagger starts slightly to avoid artificial lockstep.
    for (uint32_t c = 0; c < num_ctx; ++c)
        ctxs[c].ready = (double)c;

    double cycle = 0.0;
    double bw_free = 0.0;
    uint64_t issued = 0;
    uint32_t live = num_ctx;
    uint32_t rr = 0;

    auto src_ready = [&](const Context &ctx,
                         const Instruction &ins) -> double {
        double t = 0.0;
        auto reg_time = [&](const Operand &opnd) {
            if (opnd.isReg())
                t = std::max(t, ctx.regReady[opnd.reg]);
        };
        reg_time(ins.src0);
        reg_time(ins.src1);
        reg_time(ins.src2);
        if (ins.op == Opcode::Send)
            t = std::max(t, ctx.regReady[ins.send.addrReg]);
        if (isa::readsFlag(ins.op))
            t = std::max(t, ctx.regReady[flagSlot(ins.flag)]);
        return t;
    };

    while (live > 0) {
        // Find an issuable context, round-robin from rr.
        int chosen = -1;
        double earliest = std::numeric_limits<double>::max();
        for (uint32_t k = 0; k < num_ctx; ++k) {
            uint32_t c = (rr + k) % num_ctx;
            Context &ctx = ctxs[c];
            if (ctx.done)
                continue;
            const auto &block = bin.blocks[trace[ctx.tracePos]];
            const Instruction &ins = block.instrs[ctx.instrIdx];
            double t = std::max(ctx.ready, src_ready(ctx, ins));
            if (t <= cycle) {
                chosen = (int)c;
                break;
            }
            earliest = std::min(earliest, t);
        }

        if (chosen < 0) {
            // Nothing issuable this cycle: jump to the next event.
            cycle = earliest;
            continue;
        }

        Context &ctx = ctxs[(uint32_t)chosen];
        const auto &block = bin.blocks[trace[ctx.tracePos]];
        const Instruction &ins = block.instrs[ctx.instrIdx];

        double issue = issueCycles(ins, params.fpuLanes);
        double done_at;
        switch (ins.op) {
          case Opcode::Send: {
            double bytes =
                (double)ins.send.bytesPerLane * ins.simdWidth;
            double tx = bytes / params.bwBytesPerCycle;
            double start = std::max(cycle, bw_free);
            bw_free = start + tx;
            done_at = start + tx + params.memLatCycles;
            break;
          }
          case Opcode::FDiv:
          case Opcode::Sqrt:
          case Opcode::Rsqrt:
          case Opcode::Sin:
          case Opcode::Cos:
          case Opcode::Exp:
          case Opcode::Log:
            done_at = cycle + issue + params.mathLatency;
            break;
          default:
            done_at = cycle + issue + params.aluLatency;
            break;
        }

        if (ins.writesReg())
            ctx.regReady[ins.dst] = done_at;
        if (ins.writesFlag())
            ctx.regReady[flagSlot(ins.flag)] = done_at;

        // The issue port is busy for `issue` cycles; the context may
        // not issue its next instruction before then either.
        cycle += issue;
        ctx.ready = cycle;
        ++issued;
        rr = ((uint32_t)chosen + 1) % num_ctx;

        // Advance the context's position in the trace.
        ++ctx.instrIdx;
        if (ctx.instrIdx >= block.instrs.size()) {
            ctx.instrIdx = 0;
            ++ctx.tracePos;
            if (ctx.tracePos >= trace.size()) {
                ctx.done = true;
                --live;
            }
        }
    }

    // Drain: the EU is busy until the last write completes.
    for (const auto &ctx : ctxs) {
        for (double t : ctx.regReady)
            cycle = std::max(cycle, t);
    }

    EuResult result;
    result.cycles = cycle;
    result.issued = issued;
    return result;
}

} // namespace gt::gpu::reference

#endif // GT_TESTS_EU_REFERENCE_HH
