/**
 * @file
 * Functional-executor tests: instruction semantics in Full mode,
 * Fast/Full profile equivalence (the core soundness property of the
 * fast profiling path), homogeneous-thread scaling, heterogeneous
 * thread execution, memory behaviour, guard rails, and the device
 * memory arena's contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <memory>

#include "common/logging.hh"
#include "gpu/executor.hh"
#include "gtpin/rewriter.hh"
#include "isa/builder.hh"
#include "ocl/driver.hh"
#include "workloads/templates.hh"

namespace gt::gpu
{
namespace
{

using isa::CmpOp;
using isa::Flag;
using isa::KernelBinary;
using isa::KernelBuilder;
using isa::Reg;
using isa::fimm;
using isa::imm;

class ExecutorTest : public ::testing::Test
{
  protected:
    ExecutorTest()
        : config(DeviceConfig::hd4000()), memory(16 << 20),
          exec(config, memory)
    {}

    /** Run one 16-item dispatch in Full mode. */
    ExecProfile
    runFull(const KernelBinary &bin, std::vector<uint32_t> args,
            uint64_t gws = 16)
    {
        Dispatch d;
        d.binary = &bin;
        d.globalSize = gws;
        d.simdWidth = 16;
        d.args = std::move(args);
        return exec.run(d, Executor::Mode::Full);
    }

    DeviceConfig config;
    DeviceMemory memory;
    Executor exec;
};

// --- arithmetic and logic semantics -----------------------------------

TEST_F(ExecutorTest, StoreWritesPerLaneValues)
{
    uint64_t base = memory.allocate(256);
    KernelBuilder b("store", 1);
    Reg a = b.reg();
    b.shl(a, b.globalIds(), imm(2), 16);
    b.add(a, a, b.arg(0), 16);
    Reg v = b.reg();
    b.mul(v, b.globalIds(), imm(3), 16);
    b.store(v, a, 4, 16);
    b.halt();
    KernelBinary bin = b.finish();

    runFull(bin, {(uint32_t)base});
    for (uint32_t lane = 0; lane < 16; ++lane)
        EXPECT_EQ(memory.read32(base + lane * 4), lane * 3);
}

TEST_F(ExecutorTest, LoadReadsMemory)
{
    uint64_t src = memory.allocate(256);
    uint64_t dst = memory.allocate(256);
    for (uint32_t i = 0; i < 16; ++i)
        memory.write32(src + i * 4, 100 + i);

    KernelBuilder b("load", 2);
    Reg a = b.reg(), o = b.reg(), v = b.reg();
    b.shl(a, b.globalIds(), imm(2), 16);
    b.add(o, a, b.arg(1), 16);
    b.add(a, a, b.arg(0), 16);
    b.load(v, a, 4, 16);
    b.add(v, v, imm(1), 16);
    b.store(v, o, 4, 16);
    b.halt();
    KernelBinary bin = b.finish();

    runFull(bin, {(uint32_t)src, (uint32_t)dst});
    for (uint32_t i = 0; i < 16; ++i)
        EXPECT_EQ(memory.read32(dst + i * 4), 101 + i);
}

TEST_F(ExecutorTest, IntegerOpsSemantics)
{
    uint64_t out = memory.allocate(1024);
    KernelBuilder b("intops", 1);
    Reg a = b.reg(), r = b.reg(), addr = b.reg();
    b.mov(a, imm(0xf0f0), 16);

    auto emit_store = [&](int slot) {
        b.shl(addr, b.globalIds(), imm(2), 16);
        b.add(addr, addr, b.arg(0), 16);
        b.store(r, addr, 4, 16, slot * 64);
    };

    b.and_(r, a, imm(0xff00), 16);
    emit_store(0);
    b.or_(r, a, imm(0x000f), 16);
    emit_store(1);
    b.xor_(r, a, imm(0xffff), 16);
    emit_store(2);
    b.shr(r, a, imm(4), 16);
    emit_store(3);
    b.asr(r, imm((uint32_t)-16), imm(2), 16);
    emit_store(4);
    b.sub(r, imm(10), imm(3), 16);
    emit_store(5);
    b.mad(r, imm(3), imm(4), imm(5), 16);
    emit_store(6);
    b.min_(r, imm((uint32_t)-2), imm(3), 16);
    emit_store(7);
    b.max_(r, imm((uint32_t)-2), imm(3), 16);
    emit_store(8);
    b.avg(r, imm(3), imm(4), 16);
    emit_store(9);
    b.not_(r, imm(0), 16);
    emit_store(10);
    b.halt();
    runFull(b.finish(), {(uint32_t)out});

    EXPECT_EQ(memory.read32(out + 0 * 64), 0xf000u);
    EXPECT_EQ(memory.read32(out + 1 * 64), 0xf0ffu);
    EXPECT_EQ(memory.read32(out + 2 * 64), 0x0f0fu);
    EXPECT_EQ(memory.read32(out + 3 * 64), 0x0f0fu);
    EXPECT_EQ(memory.read32(out + 4 * 64), (uint32_t)-4);
    EXPECT_EQ(memory.read32(out + 5 * 64), 7u);
    EXPECT_EQ(memory.read32(out + 6 * 64), 17u);
    EXPECT_EQ(memory.read32(out + 7 * 64), (uint32_t)-2);
    EXPECT_EQ(memory.read32(out + 8 * 64), 3u);
    EXPECT_EQ(memory.read32(out + 9 * 64), 4u);
    EXPECT_EQ(memory.read32(out + 10 * 64), 0xffffffffu);
}

TEST_F(ExecutorTest, FloatOpsSemantics)
{
    uint64_t out = memory.allocate(1024);
    KernelBuilder b("fops", 1);
    Reg r = b.reg(), addr = b.reg();

    auto emit_store = [&](int slot) {
        b.shl(addr, b.globalIds(), imm(2), 16);
        b.add(addr, addr, b.arg(0), 16);
        b.store(r, addr, 4, 16, slot * 64);
    };

    b.fadd(r, fimm(1.5f), fimm(2.25f), 16);
    emit_store(0);
    b.fmul(r, fimm(3.0f), fimm(0.5f), 16);
    emit_store(1);
    b.fmad(r, fimm(2.0f), fimm(3.0f), fimm(1.0f), 16);
    emit_store(2);
    b.fdiv(r, fimm(7.0f), fimm(2.0f), 16);
    emit_store(3);
    b.sqrt(r, fimm(16.0f), 16);
    emit_store(4);
    b.rsqrt(r, fimm(4.0f), 16);
    emit_store(5);
    b.frc(r, fimm(2.75f), 16);
    emit_store(6);
    b.exp2(r, fimm(3.0f), 16);
    emit_store(7);
    b.log2(r, fimm(8.0f), 16);
    emit_store(8);
    b.lrp(r, fimm(0.25f), fimm(8.0f), fimm(0.0f), 16);
    emit_store(9);
    b.halt();
    runFull(b.finish(), {(uint32_t)out});

    auto f = [&](int slot) {
        return std::bit_cast<float>(memory.read32(out + slot * 64));
    };
    EXPECT_FLOAT_EQ(f(0), 3.75f);
    EXPECT_FLOAT_EQ(f(1), 1.5f);
    EXPECT_FLOAT_EQ(f(2), 7.0f);
    EXPECT_FLOAT_EQ(f(3), 3.5f);
    EXPECT_FLOAT_EQ(f(4), 4.0f);
    EXPECT_FLOAT_EQ(f(5), 0.5f);
    EXPECT_FLOAT_EQ(f(6), 0.75f);
    EXPECT_FLOAT_EQ(f(7), 8.0f);
    EXPECT_FLOAT_EQ(f(8), 3.0f);
    EXPECT_FLOAT_EQ(f(9), 2.0f);
}

TEST_F(ExecutorTest, SelUsesFlag)
{
    uint64_t out = memory.allocate(256);
    KernelBuilder b("sel", 1);
    Flag f = b.flag();
    Reg r = b.reg(), addr = b.reg();
    // flag[lane] = (lane < 8)
    b.cmp(CmpOp::Lt, f, b.globalIds(), imm(8), 16);
    b.sel(r, f, imm(111), imm(222), 16);
    b.shl(addr, b.globalIds(), imm(2), 16);
    b.add(addr, addr, b.arg(0), 16);
    b.store(r, addr, 4, 16);
    b.halt();
    runFull(b.finish(), {(uint32_t)out});

    for (uint32_t lane = 0; lane < 16; ++lane) {
        EXPECT_EQ(memory.read32(out + lane * 4),
                  lane < 8 ? 111u : 222u);
    }
}

TEST_F(ExecutorTest, LoopIterationCount)
{
    uint64_t out = memory.allocate(256);
    KernelBuilder b("loop", 1);
    Reg c = b.reg(), acc = b.reg(), addr = b.reg();
    b.mov(acc, imm(0), 16);
    b.beginLoop(c, imm(37));
    b.add(acc, acc, imm(2), 16);
    b.endLoop();
    b.shl(addr, b.globalIds(), imm(2), 16);
    b.add(addr, addr, b.arg(0), 16);
    b.store(acc, addr, 4, 16);
    b.halt();
    runFull(b.finish(), {(uint32_t)out});
    EXPECT_EQ(memory.read32(out), 74u);
}

TEST_F(ExecutorTest, CallRetExecutes)
{
    uint64_t out = memory.allocate(256);
    KernelBuilder b("callret", 1);
    Reg acc = b.reg(), addr = b.reg();
    b.mov(acc, imm(1), 1);
    b.call("twice");
    b.call("twice");
    b.shl(addr, b.globalIds(), imm(2), 1);
    b.add(addr, addr, b.arg(0), 1);
    b.store(acc, addr, 4, 1);
    b.halt();
    b.label("twice");
    b.mul(acc, acc, imm(2), 1);
    b.ret();
    runFull(b.finish(), {(uint32_t)out});
    EXPECT_EQ(memory.read32(out), 4u);
}

TEST_F(ExecutorTest, FlagModesAnyAll)
{
    uint64_t out = memory.allocate(256);
    KernelBuilder b("flags", 1);
    Flag f = b.flag();
    Reg r = b.reg(), addr = b.reg();
    b.mov(r, imm(0), 1);
    // Lanes 0..7 true, 8..15 false.
    b.cmp(CmpOp::Lt, f, b.globalIds(), imm(8), 16);
    {
        isa::Instruction br;
        // Any over 16 lanes -> taken.
        b.brc(f, "any_taken", isa::FlagMode::Any);
        (void)br;
    }
    b.jmp("after_any");
    b.label("any_taken");
    b.or_(r, r, imm(1), 1);
    b.label("after_any");
    // All over 16 lanes -> not taken.
    b.brc(f, "all_taken", isa::FlagMode::All);
    b.jmp("store");
    b.label("all_taken");
    b.or_(r, r, imm(2), 1);
    b.label("store");
    b.shl(addr, b.globalIds(), imm(2), 1);
    b.add(addr, addr, b.arg(0), 1);
    b.store(r, addr, 4, 1);
    b.halt();
    KernelBinary bin = b.finish();
    // The All-branch aggregates over the branch's own width.
    for (auto &block : bin.blocks) {
        for (auto &ins : block.instrs) {
            if (ins.op == isa::Opcode::Brc ||
                ins.op == isa::Opcode::Brnc) {
                ins.simdWidth = 16;
            }
        }
    }
    isa::verify(bin);

    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16;
    d.simdWidth = 16;
    d.args = {(uint32_t)out};
    exec.run(d, Executor::Mode::Full);
    EXPECT_EQ(memory.read32(out), 1u);
}

TEST_F(ExecutorTest, LocalMemoryIsPerThread)
{
    uint64_t out = memory.allocate(4096);
    KernelBuilder b("localmem", 1);
    Reg la = b.reg(), v = b.reg(), addr = b.reg();
    b.mov(la, imm(64), 1);
    // Write thread id to local, read it back, store to global.
    Reg tid = b.reg();
    b.mov(tid, b.dispatchInfo(), 1);
    b.store(tid, la, 4, 1, 0, isa::AddrSpace::Local);
    b.load(v, la, 4, 1, 0, isa::AddrSpace::Local);
    b.shl(addr, tid, imm(2), 1);
    b.add(addr, addr, b.arg(0), 1);
    b.store(v, addr, 4, 1);
    b.halt();
    KernelBinary bin = b.finish();

    Dispatch d;
    d.binary = &bin;
    d.globalSize = 64; // 4 threads
    d.simdWidth = 16;
    d.args = {(uint32_t)out};
    exec.run(d, Executor::Mode::Full);
    for (uint32_t t = 0; t < 4; ++t)
        EXPECT_EQ(memory.read32(out + t * 4), t);
}

// --- profiles ---------------------------------------------------------

TEST_F(ExecutorTest, ProfileCountsMatchStaticExpectation)
{
    KernelBuilder b("counts", 0);
    Reg c = b.reg(), x = b.reg();
    b.mov(x, imm(0), 16);             // 1 move
    b.beginLoop(c, imm(10));          // 1 scalar mov
    b.fmad(x, x, x, x, 16);           // 10 fmad
    b.xor_(x, x, imm(1), 8);          // 10 xor
    b.endLoop();                      // 10 x (add, cmp, brc)
    b.halt();                         // 1 halt
    KernelBinary bin = b.finish();

    ExecProfile p = runFull(bin, {});
    EXPECT_EQ(p.numThreads, 1u);
    EXPECT_EQ(p.opcodeCounts[(int)isa::Opcode::FMad], 10u);
    EXPECT_EQ(p.opcodeCounts[(int)isa::Opcode::Xor], 10u);
    EXPECT_EQ(p.opcodeCounts[(int)isa::Opcode::Cmp], 10u);
    EXPECT_EQ(p.opcodeCounts[(int)isa::Opcode::Brc], 10u);
    EXPECT_EQ(p.opcodeCounts[(int)isa::Opcode::Halt], 1u);
    EXPECT_EQ(p.classCounts[(int)isa::OpClass::Computation],
              10u + 10u); // fmad + loop add
    EXPECT_EQ(p.simdCounts[simdBin(8)], 10u);
    EXPECT_EQ(p.dynInstrs, 2u + 10u * 5u + 1u);
    EXPECT_EQ(p.instrumentationInstrs, 0u);
}

TEST_F(ExecutorTest, BytesTrackedBySends)
{
    uint64_t buf = memory.allocate(4096);
    KernelBuilder b("bytes", 1);
    Reg a = b.reg(), v = b.reg();
    b.shl(a, b.globalIds(), imm(2), 16);
    b.add(a, a, b.arg(0), 16);
    b.load(v, a, 4, 16);
    b.store(v, a, 8, 16);
    b.halt();
    ExecProfile p = runFull(b.finish(), {(uint32_t)buf});
    EXPECT_EQ(p.bytesRead, 4u * 16u);
    EXPECT_EQ(p.bytesWritten, 8u * 16u);
    EXPECT_EQ(p.sendCount, 2u);
}

TEST_F(ExecutorTest, FastEqualsFullOnProfiles)
{
    // The core soundness property: Fast mode must produce exactly
    // the same profile as Full mode for thread-invariant kernels.
    workloads::TemplateJit jit;
    for (const char *tname :
         {"stream", "blur", "hash", "aes", "nbody", "julia",
          "blend", "effect", "reduce", "stress", "deep", "lut",
          "fft", "particle", "flow", "shader", "matmul", "ao",
          "histogram", "scan"}) {
        isa::KernelSource src;
        src.name = std::string("feq_") + tname;
        src.templateName = tname;
        isa::KernelBinary bin = jit.compile(src);

        Dispatch d;
        d.binary = &bin;
        d.globalSize = 64;
        d.simdWidth = 16;
        uint32_t base = (uint32_t)memory.allocate(1 << 20);
        d.args.assign(bin.numArgs, base);

        ExecProfile fast = exec.run(d, Executor::Mode::Fast);
        ExecProfile full = exec.run(d, Executor::Mode::Full);

        EXPECT_EQ(fast.dynInstrs, full.dynInstrs) << tname;
        EXPECT_EQ(fast.blockCounts, full.blockCounts) << tname;
        EXPECT_EQ(fast.bytesRead, full.bytesRead) << tname;
        EXPECT_EQ(fast.bytesWritten, full.bytesWritten) << tname;
        EXPECT_EQ(fast.opcodeCounts, full.opcodeCounts) << tname;
        EXPECT_EQ(fast.simdCounts, full.simdCounts) << tname;
        memory.resetAllocator();
    }
}

TEST_F(ExecutorTest, HomogeneousScalingIsExact)
{
    workloads::TemplateJit jit;
    isa::KernelSource src;
    src.name = "scale_test";
    src.templateName = "julia";
    isa::KernelBinary bin = jit.compile(src);

    uint32_t base = (uint32_t)memory.allocate(1 << 20);
    Dispatch small;
    small.binary = &bin;
    small.globalSize = 16;
    small.simdWidth = 16;
    small.args = {base, 0x3f000000u, 0x3e000000u};

    Dispatch big = small;
    big.globalSize = 16 * 1000;

    ExecProfile ps = exec.run(small, Executor::Mode::Fast);
    ExecProfile pb = exec.run(big, Executor::Mode::Fast);
    EXPECT_EQ(pb.numThreads, 1000u);
    EXPECT_EQ(pb.dynInstrs, ps.dynInstrs * 1000u);
    EXPECT_EQ(pb.bytesWritten, ps.bytesWritten * 1000u);
}

TEST_F(ExecutorTest, HeterogeneousThreadsDiffer)
{
    workloads::TemplateJit jit;
    isa::KernelSource src;
    src.name = "het";
    src.templateName = "cascade";
    src.params = {12, 0xfff, 8};
    isa::KernelBinary bin = jit.compile(src);
    EXPECT_TRUE(exec.relevance(&bin).threadDependent);

    uint32_t base = (uint32_t)memory.allocate(1 << 20);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 64; // 64 threads, below the sampling cap
    d.simdWidth = 16;
    d.args = {base, base, 2, 0};

    ExecProfile fast = exec.run(d, Executor::Mode::Fast);
    ExecProfile full = exec.run(d, Executor::Mode::Full);
    // Below the cap, fast mode runs every thread: exact equality.
    EXPECT_EQ(fast.dynInstrs, full.dynInstrs);
    EXPECT_EQ(fast.blockCounts, full.blockCounts);
}

TEST_F(ExecutorTest, StratifiedSamplingCoversAllThreads)
{
    workloads::TemplateJit jit;
    isa::KernelSource src;
    src.name = "strat";
    src.templateName = "cascade";
    src.params = {12, 0xfff, 8};
    isa::KernelBinary bin = jit.compile(src);

    uint32_t base = (uint32_t)memory.allocate(1 << 20);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 512;
    d.simdWidth = 16;
    d.args = {base, base, 2, 0};

    exec.setMaxExplicitThreads(64);
    ExecProfile sampled = exec.run(d, Executor::Mode::Fast);
    exec.setMaxExplicitThreads(1024);
    ExecProfile exact = exec.run(d, Executor::Mode::Fast);

    EXPECT_EQ(sampled.numThreads, exact.numThreads);
    // Sampled counts are approximate but must be within a factor of
    // the exact ones and weight-complete in thread count.
    double ratio =
        (double)sampled.dynInstrs / (double)exact.dynInstrs;
    EXPECT_GT(ratio, 0.7);
    EXPECT_LT(ratio, 1.3);
}

// --- guard rails --------------------------------------------------------

TEST_F(ExecutorTest, RunawayKernelPanics)
{
    setLogQuiet(true);
    KernelBuilder b("forever", 0);
    Reg x = b.reg();
    b.label("spin");
    b.add(x, x, imm(1), 1);
    b.jmp("spin");
    KernelBinary bin = b.finish();

    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16;
    d.simdWidth = 16;
    exec.setThreadInstrLimit(10000);
    EXPECT_THROW(exec.run(d, Executor::Mode::Full), PanicError);
    setLogQuiet(false);
}

TEST_F(ExecutorTest, TraceDeltasSurviveAbortedAndUntracedRuns)
{
    // The slot-indexed delta scratch persists across runs and only
    // its touched entries are cleared: an untraced run and a run that
    // panics mid-thread on a larger buffer must not leak into the
    // next dispatch's deltas.
    isa::KernelSource src;
    src.name = "traced";
    src.templateName = "blur";
    KernelBinary plain = workloads::TemplateJit().compile(src);
    gtpin::SlotAllocator slots;
    gtpin::Instrumenter ins(plain, slots);
    for (const auto &block : plain.blocks)
        ins.countBlockEntry(block.id, ins.allocSlot());
    KernelBinary bin = ins.apply();

    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 8;
    d.simdWidth = 16;
    d.args.assign(bin.numArgs, (uint32_t)memory.allocate(1 << 16));
    TraceBuffer first(slots.allocated());
    ExecProfile p = exec.run(d, Executor::Mode::Fast, &first);
    ASSERT_FALSE(first.lastDispatch().empty());

    Dispatch untraced = d;
    untraced.binary = &plain;
    exec.run(untraced, Executor::Mode::Fast);

    // Abort halfway through the representative thread, after some
    // of its counters have been bumped.
    setLogQuiet(true);
    TraceBuffer big(slots.allocated() * 4);
    exec.setThreadInstrLimit(
        (p.dynInstrs + p.instrumentationInstrs) / p.numThreads / 2);
    EXPECT_THROW(exec.run(d, Executor::Mode::Fast, &big), PanicError);
    setLogQuiet(false);
    exec.setThreadInstrLimit(200'000'000);

    TraceBuffer again(slots.allocated());
    exec.run(d, Executor::Mode::Fast, &again);
    EXPECT_EQ(again.raw(), first.raw());
    auto sorted = [](std::vector<SlotDelta> v) {
        std::sort(v.begin(), v.end(), [](auto &a, auto &b) {
            return a.slot < b.slot;
        });
        std::vector<std::pair<uint32_t, uint64_t>> out;
        for (const SlotDelta &e : v)
            out.emplace_back(e.slot, e.delta);
        return out;
    };
    EXPECT_EQ(sorted(again.lastDispatch()), sorted(first.lastDispatch()));
}

TEST_F(ExecutorTest, MissingArgsPanics)
{
    setLogQuiet(true);
    KernelBuilder b("needargs", 2);
    Reg r = b.reg();
    b.mov(r, b.arg(1), 1);
    b.halt();
    KernelBinary bin = b.finish();
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16;
    d.simdWidth = 16;
    d.args = {1}; // one of two
    EXPECT_THROW(exec.run(d, Executor::Mode::Full), PanicError);
    setLogQuiet(false);
}

TEST_F(ExecutorTest, BadSimdWidthPanics)
{
    setLogQuiet(true);
    KernelBuilder b("w", 0);
    b.halt();
    KernelBinary bin = b.finish();
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16;
    d.simdWidth = 4;
    EXPECT_THROW(exec.run(d, Executor::Mode::Full), PanicError);
    setLogQuiet(false);
}

TEST_F(ExecutorTest, MemAccessCallbackSeesAllTraffic)
{
    uint64_t buf = memory.allocate(4096);
    KernelBuilder b("cb", 1);
    Reg a = b.reg(), v = b.reg();
    b.shl(a, b.globalIds(), imm(2), 16);
    b.add(a, a, b.arg(0), 16);
    b.load(v, a, 4, 16);
    b.store(v, a, 4, 16);
    b.halt();
    KernelBinary bin = b.finish();

    uint64_t reads = 0, writes = 0, bytes = 0;
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 32;
    d.simdWidth = 16;
    d.args = {(uint32_t)buf};
    exec.run(d, Executor::Mode::Full, nullptr,
             [&](const MemBatch &batch) {
                 for (size_t i = 0; i < batch.count; ++i) {
                     EXPECT_GE(batch.addrs[i], buf);
                     bytes += MemBatch::bytes(batch.metas[i]);
                     (MemBatch::isWrite(batch.metas[i]) ? writes
                                                        : reads) += 1;
                 }
             });
    EXPECT_EQ(reads, 32u);
    EXPECT_EQ(writes, 32u);
    EXPECT_EQ(bytes, 32u * 4u * 2u);
}

TEST_F(ExecutorTest, BlockTraceMatchesControlFlow)
{
    KernelBuilder b("trace", 0);
    Reg c = b.reg(), x = b.reg();
    b.mov(x, imm(0), 8);
    b.beginLoop(c, imm(5));
    b.add(x, x, imm(1), 8);
    b.endLoop();
    b.halt();
    KernelBinary bin = b.finish();

    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16;
    d.simdWidth = 16;
    std::vector<uint32_t> trace = exec.blockTrace(d, 0);
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.front(), 0u);
    // The loop body block appears exactly 5 times.
    std::vector<int> counts(bin.blocks.size(), 0);
    for (uint32_t blk : trace)
        ++counts[blk];
    bool found5 = false;
    for (int n : counts)
        found5 = found5 || n == 5;
    EXPECT_TRUE(found5);
}

TEST_F(ExecutorTest, IssueCyclesPositiveAndScaled)
{
    KernelBuilder b("cyc", 0);
    Reg x = b.reg();
    b.fmul(x, x, x, 16);
    b.sin(x, x, 16);
    b.halt();
    ExecProfile p = runFull(b.finish(), {});
    // 16-wide on 4 FPU lanes: fmul 4 cycles, sin 16, halt 1.
    EXPECT_DOUBLE_EQ(p.threadCycles, 4.0 + 16.0 + 1.0);
}

// --- the device memory arena -------------------------------------------

// --- per-block summaries vs an instruction walk ------------------------

/**
 * The oracle for ExecProfile::deriveFromBlocks: walk every
 * instruction of every executed block, multiplying by its count.
 */
ExecProfile
instructionWalk(const KernelBinary &bin,
                const std::vector<uint64_t> &block_counts)
{
    ExecProfile p;
    for (const auto &block : bin.blocks) {
        uint64_t execs = block_counts[block.id];
        for (const auto &ins : block.instrs) {
            isa::OpClass cls = ins.cls();
            if (cls == isa::OpClass::Instrumentation) {
                p.instrumentationInstrs += execs;
                continue;
            }
            p.dynInstrs += execs;
            p.opcodeCounts[(int)ins.op] += execs;
            p.classCounts[(int)cls] += execs;
            p.simdCounts[simdBin(ins.simdWidth)] += execs;
            if (ins.op == isa::Opcode::Send) {
                uint64_t bytes = (uint64_t)ins.send.bytesPerLane *
                    ins.simdWidth * execs;
                (ins.send.isWrite ? p.bytesWritten : p.bytesRead) +=
                    bytes;
                p.sendCount += execs;
            }
        }
    }
    return p;
}

class SummaryDerivation : public ::testing::TestWithParam<std::string>
{
  protected:
    /** Run @p bin in Fast mode (with a trace buffer of @p slots)
     * and check the derived fields against the instruction walk. */
    void
    expectDerivationMatches(const KernelBinary &bin, uint32_t slots)
    {
        DeviceConfig config = DeviceConfig::hd4000();
        DeviceMemory memory(16 << 20);
        Executor exec(config, memory);
        TraceBuffer trace(slots);
        Dispatch d;
        d.binary = &bin;
        d.globalSize = 16 * 24;
        d.simdWidth = 16;
        d.args.assign(bin.numArgs, (uint32_t)memory.allocate(1 << 19));
        ExecProfile got = exec.run(d, Executor::Mode::Fast,
                                   slots ? &trace : nullptr);
        ExecProfile want = instructionWalk(bin, got.blockCounts);
        EXPECT_GT(got.sendCount, 0u) << GetParam();
        EXPECT_EQ(got.dynInstrs, want.dynInstrs);
        EXPECT_EQ(got.instrumentationInstrs, want.instrumentationInstrs);
        EXPECT_EQ(got.opcodeCounts, want.opcodeCounts);
        EXPECT_EQ(got.classCounts, want.classCounts);
        EXPECT_EQ(got.simdCounts, want.simdCounts);
        EXPECT_EQ(got.bytesRead, want.bytesRead);
        EXPECT_EQ(got.bytesWritten, want.bytesWritten);
        EXPECT_EQ(got.sendCount, want.sendCount);
    }

    KernelBinary
    compile() const
    {
        isa::KernelSource src;
        src.name = "sum_" + GetParam();
        src.templateName = GetParam();
        src.params = {8};
        return workloads::TemplateJit().compile(src);
    }
};

TEST_P(SummaryDerivation, PlainMatchesInstructionWalk)
{
    expectDerivationMatches(compile(), 0);
}

TEST_P(SummaryDerivation, InstrumentedMatchesInstructionWalk)
{
    KernelBinary bin = compile();
    gtpin::SlotAllocator slots;
    gtpin::Instrumenter ins(bin, slots);
    for (const auto &block : bin.blocks) {
        ins.countBlockEntry(block.id, ins.allocSlot(),
                            (uint32_t)block.instrs.size());
        for (uint32_t i = 0; i < block.instrs.size(); ++i) {
            if (block.instrs[i].op == isa::Opcode::Send)
                ins.recordSendBytes(block.id, i, ins.allocSlot());
        }
    }
    ins.timeKernel(ins.allocSlot());
    KernelBinary rewritten = ins.apply();
    expectDerivationMatches(rewritten, slots.allocated());
}

INSTANTIATE_TEST_SUITE_P(
    AllTemplates, SummaryDerivation,
    ::testing::ValuesIn(workloads::builtinTemplates().templateNames()),
    [](const auto &info) { return info.param; });

TEST(DeviceMemoryArena, FreshArenaReadsZeroEverywhere)
{
    DeviceMemory mem(DeviceConfig::hd4000().memBytes);
    const uint64_t page = 4096;
    EXPECT_EQ(mem.read8(0), 0u);
    EXPECT_EQ(mem.read8(mem.size() - 1), 0u);
    EXPECT_EQ(mem.read32(mem.size() - 4), 0u);
    // Words straddling page boundaries, spread over the whole arena.
    for (uint64_t p = page; p < mem.size(); p += 251 * page)
        EXPECT_EQ(mem.read32(p - 2), 0u) << "page boundary " << p;
    std::vector<uint8_t> span(3 * page, 0xff);
    mem.copyOut(7 * page - 1, span.data(), span.size());
    EXPECT_TRUE(std::all_of(span.begin(), span.end(),
                            [](uint8_t b) { return b == 0; }));
}

TEST(DeviceMemoryArena, OutOfRangeAccessPanics)
{
    setLogQuiet(true);
    DeviceMemory mem(1 << 16);
    EXPECT_NO_THROW(mem.read32(mem.size() - 4));
    EXPECT_THROW(mem.read32(mem.size() - 3), PanicError);
    EXPECT_THROW(mem.write32(mem.size(), 1), PanicError);
    EXPECT_THROW(mem.read32(~0ull - 1), PanicError); // wraps around
    setLogQuiet(false);
}

TEST(DeviceMemoryArena, OverCapacityAllocateIsFatal)
{
    setLogQuiet(true);
    DeviceMemory mem(1 << 16);
    EXPECT_THROW(mem.allocate(mem.size() + 1), FatalError);
    uint64_t base = mem.allocate(mem.size() - 64);
    EXPECT_THROW(mem.allocate(128), FatalError);
    setLogQuiet(false);

    // Releasing allocations keeps the contents.
    mem.write32(base + 4, 0xabcd1234u);
    mem.resetAllocator();
    EXPECT_EQ(mem.allocated(), 0u);
    EXPECT_EQ(mem.read32(base + 4), 0xabcd1234u);
}

/** VmRSS in KiB from /proc/self/status, or -1 where there is none. */
long
residentKib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stol(line.substr(6));
    }
    return -1;
}

TEST(DeviceMemoryArena, DriversCommitOnlyTouchedPages)
{
    const long before = residentKib();
    if (before < 0)
        GTEST_SKIP() << "no /proc/self/status VmRSS on this platform";
    const DeviceConfig config = DeviceConfig::hd4000();
    workloads::TemplateJit jit;
    std::vector<std::unique_ptr<ocl::GpuDriver>> drivers;
    for (int i = 0; i < 16; ++i)
        drivers.push_back(std::make_unique<ocl::GpuDriver>(config, jit));
    // An eagerly zeroed arena would make all 16 resident in full.
    const long grown_kib = residentKib() - before;
    EXPECT_LT(grown_kib, (long)(config.memBytes / 1024 / 4))
        << "16 idle drivers grew VmRSS by " << grown_kib << " KiB";
}

} // anonymous namespace
} // namespace gt::gpu
