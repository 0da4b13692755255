/**
 * @file
 * Full-mode differential tests: the uop backend against the switch
 * reference on adversarial dispatches.
 *
 * Everything observable must be bitwise identical between the two
 * backends: profiles (cycles included), trace deltas, device memory
 * and the batched memory-trace record stream with its chunk
 * boundaries. The matrix covers every kernel template under
 * {Full, Fast} x {plain, instrumented, batch-memtrace} with distinct
 * per-argument buffers, plus a shared buffer, thread counts that are
 * not multiples of eight, single-thread dispatches, executor reuse,
 * control divergence at the first and the last superblock, and
 * cross-thread stores to one address. (The suites are named after a
 * lockstep "gang" executor these cases once also covered; it was
 * deleted, and the cases stay as uop-vs-switch checks.)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "gpu/executor.hh"
#include "gtpin/rewriter.hh"
#include "isa/builder.hh"
#include "workloads/templates.hh"

namespace gt::gpu
{
namespace
{

using gtpin::Instrumenter;
using gtpin::SlotAllocator;
using isa::Flag;
using isa::KernelBinary;
using isa::KernelBuilder;
using isa::Reg;
using isa::imm;

constexpr uint64_t memBytes = 32 << 20;
// Large enough for any template's masked addressing (<= 256 KB plus
// the store span), so consecutive allocations are disjoint.
constexpr uint64_t argBufBytes = 1 << 19;

void
expectProfilesEqual(const ExecProfile &a, const ExecProfile &b)
{
    EXPECT_EQ(a.numThreads, b.numThreads);
    EXPECT_EQ(a.dynInstrs, b.dynInstrs);
    EXPECT_EQ(a.instrumentationInstrs, b.instrumentationInstrs);
    EXPECT_EQ(a.blockCounts, b.blockCounts);
    EXPECT_EQ(a.opcodeCounts, b.opcodeCounts);
    EXPECT_EQ(a.classCounts, b.classCounts);
    EXPECT_EQ(a.simdCounts, b.simdCounts);
    EXPECT_EQ(a.bytesRead, b.bytesRead);
    EXPECT_EQ(a.bytesWritten, b.bytesWritten);
    EXPECT_EQ(a.sendCount, b.sendCount);
    // Bitwise: cycles accrue in the same order on both backends.
    EXPECT_EQ(a.threadCycles, b.threadCycles);
}

/** One memory-trace record plus the chunk flush it arrived in. */
struct TraceRec
{
    uint64_t addr;
    uint32_t meta;
    uint64_t chunk;

    bool
    operator==(const TraceRec &o) const
    {
        return addr == o.addr && meta == o.meta && chunk == o.chunk;
    }
};

/**
 * A switch-backend reference executor and a uop executor, each over
 * its own device memory so Full-mode stores can be compared byte for
 * byte afterwards. The allocators run in lockstep, so buffers land at
 * the same addresses.
 */
class BackendPair
{
  public:
    BackendPair()
        : config(DeviceConfig::hd4000()), memScalar(memBytes),
          memUops(memBytes), execScalar(config, memScalar),
          execUops(config, memUops)
    {
        execScalar.setBackend(Executor::Backend::Switch);
    }

    uint64_t
    allocate(uint64_t size)
    {
        uint64_t addr = memScalar.allocate(size);
        uint64_t addr2 = memUops.allocate(size);
        GT_ASSERT(addr == addr2, "paired allocators diverged");
        return addr;
    }

    /** Run the dispatch on both executors; expect equal profiles. */
    void
    runBoth(const Dispatch &d, Executor::Mode mode,
            TraceBuffer *trace_scalar = nullptr,
            TraceBuffer *trace_uops = nullptr)
    {
        ExecProfile ps = execScalar.run(d, mode, trace_scalar);
        ExecProfile pu = execUops.run(d, mode, trace_uops);
        expectProfilesEqual(ps, pu);
    }

    /**
     * Run with batched trace delivery on both; expect equal
     * profiles and an identical record stream including chunk flush
     * boundaries. @p chunk stresses mid-thread flushes when small.
     */
    void
    runBothBatch(const Dispatch &d, size_t chunk)
    {
        auto capture = [](std::vector<TraceRec> &out, uint64_t &n) {
            return [&out, &n](const MemBatch &batch) {
                for (size_t i = 0; i < batch.count; ++i) {
                    out.push_back(
                        {batch.addrs[i], batch.metas[i], n});
                }
                ++n;
            };
        };
        std::vector<TraceRec> recScalar, recUops;
        uint64_t chunksScalar = 0, chunksUops = 0;
        MemBatchFn fnScalar = capture(recScalar, chunksScalar);
        MemBatchFn fnUops = capture(recUops, chunksUops);
        execScalar.setMemTraceChunk(chunk);
        execUops.setMemTraceChunk(chunk);
        ExecProfile ps = execScalar.run(d, Executor::Mode::Full,
                                        nullptr, fnScalar);
        ExecProfile pu = execUops.run(d, Executor::Mode::Full,
                                      nullptr, fnUops);
        expectProfilesEqual(ps, pu);
        EXPECT_EQ(chunksScalar, chunksUops);
        ASSERT_EQ(recScalar.size(), recUops.size());
        EXPECT_TRUE(recScalar == recUops)
            << "memory-trace record streams diverged";
    }

    /** Compare the first @p bytes of both device memories. */
    void
    expectMemoryEqual(uint64_t bytes)
    {
        for (uint64_t a = 0; a + 4 <= bytes; a += 4) {
            ASSERT_EQ(memScalar.read32(a), memUops.read32(a))
                << "memory diverged at address " << a;
        }
    }

    DeviceConfig config;
    DeviceMemory memScalar;
    DeviceMemory memUops;
    Executor execScalar;
    Executor execUops;
};

/**
 * Templates that read an argument as an unmasked trip count (julia,
 * nbody) or take a single argument (stress): they keep test_interp's
 * shared-base idiom, which keeps those counts small. The rest get
 * distinct per-argument buffers.
 */
bool
sharedBaseTemplate(const std::string &name)
{
    return name == "julia" || name == "nbody" || name == "stress";
}

class GangDiff : public ::testing::TestWithParam<std::string>
{
  protected:
    KernelBinary
    compile(int64_t leading = 8)
    {
        isa::KernelSource src;
        src.name = "diff_" + GetParam();
        src.templateName = GetParam();
        src.params = {leading};
        return workloads::TemplateJit().compile(src);
    }

    Dispatch
    dispatchFor(const KernelBinary &bin, uint64_t gws = 16 * 24)
    {
        Dispatch d;
        d.binary = &bin;
        d.globalSize = gws;
        d.simdWidth = 16;
        if (sharedBaseTemplate(GetParam())) {
            uint32_t base = (uint32_t)pair.allocate(argBufBytes);
            d.args.assign(bin.numArgs, base);
        } else {
            for (uint32_t a = 0; a < bin.numArgs; ++a)
                d.args.push_back((uint32_t)pair.allocate(argBufBytes));
        }
        return d;
    }

    KernelBinary
    instrument(const KernelBinary &bin, uint32_t &num_slots)
    {
        SlotAllocator slots;
        Instrumenter ins(bin, slots);
        for (const auto &block : bin.blocks) {
            ins.countBlockEntry(block.id, ins.allocSlot(),
                                (uint32_t)block.instrs.size());
        }
        ins.timeKernel(ins.allocSlot());
        num_slots = slots.allocated();
        return ins.apply();
    }

    BackendPair pair;
};

TEST_P(GangDiff, PlanVerdictMatchesExpectation)
{
    // The plan's relevance verdicts, pinned per template: no template
    // needs Full execution in Fast mode, and only cascade's control
    // depends on the thread.
    KernelBinary bin = compile();
    const isa::Relevance &rel = pair.execUops.relevance(&bin);
    EXPECT_FALSE(rel.needsFullExec) << GetParam();
    EXPECT_EQ(rel.threadDependent, GetParam() == "cascade")
        << GetParam();
    EXPECT_EQ(pair.execScalar.relevance(&bin).relevantCount,
              rel.relevantCount);
}

TEST_P(GangDiff, FullModePlain)
{
    KernelBinary bin = compile();
    Dispatch d = dispatchFor(bin);
    pair.runBoth(d, Executor::Mode::Full);
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

TEST_P(GangDiff, FastModePlain)
{
    KernelBinary bin = compile();
    Dispatch d = dispatchFor(bin);
    pair.runBoth(d, Executor::Mode::Fast);
}

TEST_P(GangDiff, FullModeInstrumented)
{
    KernelBinary bin = compile();
    uint32_t num_slots = 0;
    KernelBinary rewritten = instrument(bin, num_slots);
    Dispatch d = dispatchFor(rewritten);
    TraceBuffer ts(num_slots), tg(num_slots);
    pair.runBoth(d, Executor::Mode::Full, &ts, &tg);
    EXPECT_EQ(ts.raw(), tg.raw());
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

TEST_P(GangDiff, FastModeInstrumented)
{
    KernelBinary bin = compile();
    uint32_t num_slots = 0;
    KernelBinary rewritten = instrument(bin, num_slots);
    Dispatch d = dispatchFor(rewritten);
    TraceBuffer ts(num_slots), tg(num_slots);
    pair.runBoth(d, Executor::Mode::Fast, &ts, &tg);
    EXPECT_EQ(ts.raw(), tg.raw());
}

TEST_P(GangDiff, BatchMemTraceBitwiseOrder)
{
    KernelBinary bin = compile();
    Dispatch d = dispatchFor(bin);
    // A small chunk forces flushes mid-thread; both backends must
    // flush at the same records.
    pair.runBothBatch(d, 96);
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

TEST_P(GangDiff, SharedBufferFallsBackAndMatches)
{
    KernelBinary bin = compile();
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 24;
    d.simdWidth = 16;
    uint32_t base = (uint32_t)pair.allocate(argBufBytes);
    d.args.assign(bin.numArgs, base);
    // Every argument aliases one buffer: cross-argument stores
    // overlap, and both backends must still agree.
    pair.runBoth(d, Executor::Mode::Full);
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

TEST_P(GangDiff, PartialAndSingleGangs)
{
    KernelBinary bin = compile();
    // Thread counts off any power of two, and a single thread.
    for (uint64_t threads : {13, 9, 1}) {
        Dispatch d = dispatchFor(bin, 16 * threads);
        pair.runBoth(d, Executor::Mode::Full);
    }
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

TEST_P(GangDiff, ExecutorReuseInvariance)
{
    // Back-to-back dispatches reuse the executor's thread context
    // and scratch accumulators; a second run must reproduce the first
    // exactly (no state leaking through the reused dirty lists).
    KernelBinary bin = compile();
    Dispatch d = dispatchFor(bin);
    ExecProfile first = pair.execUops.run(d, Executor::Mode::Full);
    ExecProfile second = pair.execUops.run(d, Executor::Mode::Full);
    expectProfilesEqual(first, second);
    // Matching dispatch count on the scalar side: templates that
    // update buffers in place (particle) evolve state per run.
    pair.execScalar.run(d, Executor::Mode::Full);
    ExecProfile scalar = pair.execScalar.run(d, Executor::Mode::Full);
    expectProfilesEqual(scalar, second);
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

INSTANTIATE_TEST_SUITE_P(
    AllTemplates, GangDiff,
    ::testing::ValuesIn(workloads::builtinTemplates().templateNames()),
    [](const auto &info) { return info.param; });

// --- control divergence at superblock boundaries -----------------------

/**
 * Thread-dependent divergence via cascade: threads peel off into a
 * heavier path depending on their id.
 */
class GangCascade : public ::testing::Test
{
  protected:
    KernelBinary
    compileCascade(int64_t blocks, int64_t mask, int64_t depth)
    {
        isa::KernelSource src;
        src.name = "diff_casc";
        src.templateName = "cascade";
        src.params = {blocks, mask, depth};
        return workloads::TemplateJit().compile(src);
    }

    BackendPair pair;
};

TEST_F(GangCascade, DivergentThreadsMatchScalar)
{
    KernelBinary bin = compileCascade(12, 0xfff, 8);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 64;
    d.simdWidth = 16;
    uint32_t in = (uint32_t)pair.allocate(argBufBytes);
    uint32_t out = (uint32_t)pair.allocate(argBufBytes);
    d.args = {in, out, 2, 0};
    pair.runBoth(d, Executor::Mode::Full);
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

TEST_F(GangCascade, BatchTraceSurvivesRetirement)
{
    // Divergent threads append different record counts; the stream
    // must stay in thread order with equal chunk boundaries.
    KernelBinary bin = compileCascade(12, 0xfff, 8);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 64;
    d.simdWidth = 16;
    uint32_t in = (uint32_t)pair.allocate(argBufBytes);
    uint32_t out = (uint32_t)pair.allocate(argBufBytes);
    d.args = {in, out, 2, 0};
    pair.runBothBatch(d, 64);
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

/** Divergence decided by the very first compare: odd and even
 * threads part at the first superblock boundary. */
TEST(GangDivergence, FirstSuperblock)
{
    KernelBuilder b("first_div", 1);
    Reg tid = b.reg();
    b.mov(tid, b.dispatchInfo(), 1);
    Reg bit = b.reg();
    b.and_(bit, tid, imm(1), 1);
    Flag f = b.flag();
    b.cmp(isa::CmpOp::Ne, f, bit, imm(0), 1);
    b.brnc(f, "skip");
    // Odd threads: extra arithmetic before the common store.
    Reg acc = b.reg();
    b.mov(acc, imm(3), 16);
    for (int i = 0; i < 8; ++i)
        b.mul(acc, acc, acc, 16);
    b.label("skip");
    // Masked-index addressing, as laneAddr emits it.
    Reg idx = b.reg();
    b.and_(idx, b.globalIds(), imm(0xffff), 16);
    Reg addr = b.reg();
    b.shl(addr, idx, imm(2), 16);
    b.add(addr, addr, b.arg(0), 16);
    b.store(b.globalIds(), addr, 4, 16);
    b.halt();
    KernelBinary bin = b.finish();

    BackendPair pair;
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 24;
    d.simdWidth = 16;
    d.args = {(uint32_t)pair.allocate(argBufBytes)};
    ExecProfile ps = pair.execScalar.run(d, Executor::Mode::Full);
    ExecProfile pu = pair.execUops.run(d, Executor::Mode::Full);
    expectProfilesEqual(ps, pu);
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

/** Divergence on the last superblock: odd threads take a longer exit
 * path after the common body. */
TEST(GangDivergence, LastSuperblock)
{
    KernelBuilder b("last_div", 1);
    Reg idx = b.reg();
    b.and_(idx, b.globalIds(), imm(0xffff), 16);
    Reg addr = b.reg();
    b.shl(addr, idx, imm(2), 16);
    b.add(addr, addr, b.arg(0), 16);
    b.store(b.globalIds(), addr, 4, 16);
    Reg tid = b.reg();
    b.mov(tid, b.dispatchInfo(), 1);
    Reg bit = b.reg();
    b.and_(bit, tid, imm(1), 1);
    Flag f = b.flag();
    b.cmp(isa::CmpOp::Ne, f, bit, imm(0), 1);
    b.brnc(f, "skip");
    Reg acc = b.reg();
    b.mov(acc, imm(5), 16);
    for (int i = 0; i < 8; ++i)
        b.add(acc, acc, acc, 16);
    b.label("skip");
    b.halt();
    KernelBinary bin = b.finish();

    BackendPair pair;
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 24;
    d.simdWidth = 16;
    d.args = {(uint32_t)pair.allocate(argBufBytes)};
    ExecProfile ps = pair.execScalar.run(d, Executor::Mode::Full);
    ExecProfile pu = pair.execUops.run(d, Executor::Mode::Full);
    expectProfilesEqual(ps, pu);
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

// --- cross-thread stores to one address ---------------------------------

TEST(GangSafety, AliasingStoresPinScalar)
{
    // Every thread stores its ids to the *same* address (arg0): the
    // last writer in thread order must win on both backends.
    KernelBuilder b("alias", 1);
    Reg addr = b.reg();
    b.mov(addr, b.arg(0), 16);
    b.store(b.globalIds(), addr, 4, 16);
    b.halt();
    KernelBinary bin = b.finish();

    BackendPair pair;
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 24;
    d.simdWidth = 16;
    d.args = {(uint32_t)pair.allocate(argBufBytes)};
    ExecProfile ps = pair.execScalar.run(d, Executor::Mode::Full);
    ExecProfile pu = pair.execUops.run(d, Executor::Mode::Full);
    expectProfilesEqual(ps, pu);
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

TEST(GangSafety, SimdWidthGuard)
{
    // A SIMD-8 dispatch of stress, whose sends are width 16: lanes
    // past the dispatch width duplicate ids across threads, and both
    // backends must agree on the resulting stores.
    isa::KernelSource src;
    src.name = "diff_stress8";
    src.templateName = "stress";
    src.params = {8};
    KernelBinary bin = workloads::TemplateJit().compile(src);

    BackendPair pair;

    Dispatch d;
    d.binary = &bin;
    d.globalSize = 8 * 24;
    d.simdWidth = 8;
    for (uint32_t a = 0; a < bin.numArgs; ++a)
        d.args.push_back((uint32_t)pair.allocate(argBufBytes));
    ExecProfile ps = pair.execScalar.run(d, Executor::Mode::Full);
    ExecProfile pu = pair.execUops.run(d, Executor::Mode::Full);
    expectProfilesEqual(ps, pu);
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

} // anonymous namespace
} // namespace gt::gpu
