#include "isa/slice.hh"

#include <deque>

namespace gt::isa
{

namespace
{

struct Loc
{
    uint32_t block;
    uint32_t instr;
};

void
collectReads(const Instruction &ins, std::vector<uint16_t> &regs)
{
    auto push = [&](const Operand &opnd) {
        if (opnd.isReg())
            regs.push_back(opnd.reg);
    };
    push(ins.src0);
    push(ins.src1);
    push(ins.src2);
    if (ins.op == Opcode::Send)
        regs.push_back(ins.send.addrReg);
}

} // anonymous namespace

Relevance
analyzeRelevance(const KernelBinary &bin)
{
    Relevance result;
    result.relevant.resize(bin.blocks.size());
    for (const auto &block : bin.blocks) {
        result.relevant[block.id].assign(block.instrs.size(), false);
        result.totalCount += block.instrs.size();
    }

    // Map each register to the locations that write it.
    std::vector<std::vector<Loc>> writers(numRegisters);
    for (const auto &block : bin.blocks) {
        for (uint32_t i = 0; i < block.instrs.size(); ++i) {
            const Instruction &ins = block.instrs[i];
            if (ins.writesReg())
                writers[ins.dst].push_back({block.id, i});
        }
    }

    std::vector<bool> regRelevant(numRegisters, false);
    std::deque<uint16_t> regWork;

    auto markReg = [&](uint16_t r) {
        if (r < numRegisters && !regRelevant[r]) {
            regRelevant[r] = true;
            regWork.push_back(r);
        }
    };

    auto markInstr = [&](const Loc &loc) {
        if (result.relevant[loc.block][loc.instr])
            return;
        result.relevant[loc.block][loc.instr] = true;
        const Instruction &ins =
            bin.blocks[loc.block].instrs[loc.instr];
        std::vector<uint16_t> reads;
        collectReads(ins, reads);
        // Loads feed their destination from memory; if a load is part
        // of a control slice, fast mode cannot supply the value.
        if (ins.op == Opcode::Send && !ins.send.isWrite)
            result.needsFullExec = true;
        for (uint16_t r : reads)
            markReg(r);
    };

    // Roots: control flow, flag-writing compares, and instrumentation
    // instructions that read application registers (they always
    // execute, so their inputs must be live).
    for (const auto &block : bin.blocks) {
        for (uint32_t i = 0; i < block.instrs.size(); ++i) {
            const Instruction &ins = block.instrs[i];
            bool root = false;
            switch (ins.cls()) {
              case OpClass::Control:
                root = true;
                break;
              case OpClass::Instrumentation:
                // Profiling instructions always execute — they are
                // what produces the profile.
                root = true;
                break;
              default:
                root = ins.op == Opcode::Cmp;
                break;
            }
            if (root)
                markInstr({block.id, i});
        }
    }

    // Propagate: every writer of a relevant register is relevant.
    while (!regWork.empty()) {
        uint16_t r = regWork.front();
        regWork.pop_front();
        for (const Loc &loc : writers[r])
            markInstr(loc);
    }

    // Control depends on the thread if the slice reaches the id
    // registers r0 (per-lane global ids) or r1 (dispatch metadata;
    // lane 0 is the thread index).
    result.threadDependent = regRelevant[0] || regRelevant[1];

    for (const auto &flags : result.relevant) {
        for (bool f : flags) {
            if (f)
                ++result.relevantCount;
        }
    }
    return result;
}

} // namespace gt::isa
