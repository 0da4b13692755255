/**
 * @file
 * Differential tests for gang-lockstep execution (uop backend,
 * Full mode).
 *
 * The gang path reorders thread interleaving, never thread-visible
 * results: everything observable must be bitwise identical to scalar
 * execution. The scalar side is the switch-interpreter reference,
 * which never gangs. The matrix covers every kernel template under
 * {switch,gang} x {Full,Fast} x {plain, instrumented, batch-memtrace}
 * with *distinct* per-argument buffers (a shared buffer makes the
 * dispatch-time region checks overlap, pinning scalar execution —
 * itself covered as a fallback case). Adversarial coverage: control
 * divergence at the first and the last superblock, aliasing stores
 * that force gangSafe=false, thread counts that are not a multiple of
 * the gang size, single-thread dispatches, and executor-reuse
 * invariance (the gang scratch buffers persist across dispatches).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
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
// Large enough to contain any template's proven access region
// (<= 256 KB + store span), so consecutive allocations are disjoint.
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
    // Bitwise: gang slots must accrue cycles in scalar thread order.
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
 * A scalar reference executor (the switch backend, which never gangs)
 * and a ganging uop executor, each over its own device memory so
 * Full-mode stores can be compared byte for byte afterwards. The
 * allocators run in lockstep, so buffers land at the same addresses.
 */
class GangPair
{
  public:
    GangPair()
        : config(DeviceConfig::hd4000()), memScalar(memBytes),
          memGang(memBytes), execScalar(config, memScalar),
          execGang(config, memGang)
    {
        execScalar.setBackend(Executor::Backend::Switch);
    }

    uint64_t
    allocate(uint64_t size)
    {
        uint64_t addr = memScalar.allocate(size);
        uint64_t addr2 = memGang.allocate(size);
        GT_ASSERT(addr == addr2, "paired allocators diverged");
        return addr;
    }

    /** Run the dispatch on both executors; expect equal profiles. */
    void
    runBoth(const Dispatch &d, Executor::Mode mode,
            TraceBuffer *trace_scalar = nullptr,
            TraceBuffer *trace_gang = nullptr)
    {
        ExecProfile ps = execScalar.run(d, mode, trace_scalar);
        ExecProfile pg = execGang.run(d, mode, trace_gang);
        expectProfilesEqual(ps, pg);
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
        std::vector<TraceRec> recScalar, recGang;
        uint64_t chunksScalar = 0, chunksGang = 0;
        MemBatchFn fnScalar = capture(recScalar, chunksScalar);
        MemBatchFn fnGang = capture(recGang, chunksGang);
        execScalar.setMemTraceChunk(chunk);
        execGang.setMemTraceChunk(chunk);
        ExecProfile ps = execScalar.run(d, Executor::Mode::Full,
                                        nullptr, fnScalar);
        ExecProfile pg = execGang.run(d, Executor::Mode::Full,
                                      nullptr, fnGang);
        expectProfilesEqual(ps, pg);
        EXPECT_EQ(chunksScalar, chunksGang);
        ASSERT_EQ(recScalar.size(), recGang.size());
        EXPECT_TRUE(recScalar == recGang)
            << "memory-trace record streams diverged";
    }

    /** Compare the first @p bytes of both device memories. */
    void
    expectMemoryEqual(uint64_t bytes)
    {
        for (uint64_t a = 0; a + 4 <= bytes; a += 4) {
            ASSERT_EQ(memScalar.read32(a), memGang.read32(a))
                << "memory diverged at address " << a;
        }
    }

    DeviceConfig config;
    DeviceMemory memScalar;
    DeviceMemory memGang;
    Executor execScalar;
    Executor execGang;
};

/** Templates whose plan-time verdict is gang-safe (regionForm). */
const std::set<std::string> &
gangSafeTemplates()
{
    static const std::set<std::string> safe = {
        "aes", "ao", "blend", "blur", "cascade", "flow", "hash",
        "julia", "lut", "matmul", "particle", "reduce", "scan",
        "stream", "stress",
    };
    return safe;
}

class GangDiff : public ::testing::TestWithParam<std::string>
{
  protected:
    KernelBinary
    compile(int64_t leading = 8)
    {
        isa::KernelSource src;
        src.name = "gang_" + GetParam();
        src.templateName = GetParam();
        src.params = {leading};
        return workloads::TemplateJit().compile(src);
    }

    /**
     * Kernels whose gang verdict carries dispatch-time region checks
     * get *distinct* per-argument buffers — aliased args would
     * violate the checks and silently pin scalar execution. The rest
     * use the shared-base idiom of test_interp (some templates derive
     * trip counts from args; the shared base keeps those small).
     */
    Dispatch
    dispatchFor(const KernelBinary &bin, uint64_t gws = 16 * 24)
    {
        Dispatch d;
        d.binary = &bin;
        d.globalSize = gws;
        d.simdWidth = 16;
        if (pair.execGang.gangSafety(&bin).checks.empty()) {
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

    bool
    expectGanged() const
    {
        return gangSafeTemplates().count(GetParam()) != 0;
    }

    GangPair pair;
};

TEST_P(GangDiff, PlanVerdictMatchesExpectation)
{
    KernelBinary bin = compile();
    const isa::GangSafety &g = pair.execGang.gangSafety(&bin);
    EXPECT_EQ(g.regionForm, expectGanged())
        << "gang-safety verdict changed for " << GetParam();
    if (g.regionForm) {
        EXPECT_LE(g.minSimdWidth, 16);
        EXPECT_FALSE(g.regions.empty());
    }
}

TEST_P(GangDiff, FullModePlain)
{
    KernelBinary bin = compile();
    Dispatch d = dispatchFor(bin);
    pair.runBoth(d, Executor::Mode::Full);
    EXPECT_FALSE(pair.execScalar.lastRunGanged());
    EXPECT_EQ(pair.execGang.lastRunGanged(), expectGanged());
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

TEST_P(GangDiff, FastModePlain)
{
    KernelBinary bin = compile();
    Dispatch d = dispatchFor(bin);
    pair.runBoth(d, Executor::Mode::Fast);
    // Fast mode never gangs: representative or relevance-sliced
    // threads stay on the scalar path.
    EXPECT_FALSE(pair.execGang.lastRunGanged());
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
    EXPECT_EQ(pair.execGang.lastRunGanged(), expectGanged());
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
    // A chunk smaller than one gang's records forces flushes from
    // inside the per-slot drain; scalar boundaries must reproduce.
    pair.runBothBatch(d, 96);
    EXPECT_EQ(pair.execGang.lastRunGanged(), expectGanged());
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
    pair.runBoth(d, Executor::Mode::Full);
    const isa::GangSafety &g = pair.execGang.gangSafety(&bin);
    if (!g.checks.empty()) {
        // Aliased buffers violate the dispatch-time region checks:
        // the gang executor must detect it and run scalar.
        EXPECT_FALSE(pair.execGang.lastRunGanged());
    }
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

TEST_P(GangDiff, PartialAndSingleGangs)
{
    KernelBinary bin = compile();
    // 13 threads = one full gang + a 5-slot gang; 9 = gang + lone
    // thread (scalar tail); 1 = single-thread dispatch.
    for (uint64_t threads : {13, 9, 1}) {
        Dispatch d = dispatchFor(bin, 16 * threads);
        pair.runBoth(d, Executor::Mode::Full);
    }
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

TEST_P(GangDiff, ExecutorReuseInvariance)
{
    // Back-to-back dispatches reuse the executor's gang context and
    // scratch buffers; a second run must reproduce the first exactly
    // (no state leaking through the reused SoA block or dirty lists).
    KernelBinary bin = compile();
    Dispatch d = dispatchFor(bin);
    ExecProfile first = pair.execGang.run(d, Executor::Mode::Full);
    ExecProfile second = pair.execGang.run(d, Executor::Mode::Full);
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
 * heavier path depending on their id, so gang slots retire at
 * superblock boundaries and finish scalar.
 */
class GangCascade : public ::testing::Test
{
  protected:
    KernelBinary
    compileCascade(int64_t blocks, int64_t mask, int64_t depth)
    {
        isa::KernelSource src;
        src.name = "gang_casc";
        src.templateName = "cascade";
        src.params = {blocks, mask, depth};
        return workloads::TemplateJit().compile(src);
    }

    GangPair pair;
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
    EXPECT_TRUE(pair.execGang.lastRunGanged());
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

TEST_F(GangCascade, BatchTraceSurvivesRetirement)
{
    // Retired slots keep appending to their per-slot record buffers;
    // the drained stream must still be in scalar thread order.
    KernelBinary bin = compileCascade(12, 0xfff, 8);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 64;
    d.simdWidth = 16;
    uint32_t in = (uint32_t)pair.allocate(argBufBytes);
    uint32_t out = (uint32_t)pair.allocate(argBufBytes);
    d.args = {in, out, 2, 0};
    pair.runBothBatch(d, 64);
    EXPECT_TRUE(pair.execGang.lastRunGanged());
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

/** Divergence decided by the very first compare: every gang splits at
 * the first superblock boundary. */
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
    // Masked-index region form (as laneAddr emits it), so the safety
    // analysis accepts the kernel and the gang actually engages.
    Reg idx = b.reg();
    b.and_(idx, b.globalIds(), imm(0xffff), 16);
    Reg addr = b.reg();
    b.shl(addr, idx, imm(2), 16);
    b.add(addr, addr, b.arg(0), 16);
    b.store(b.globalIds(), addr, 4, 16);
    b.halt();
    KernelBinary bin = b.finish();

    GangPair pair;
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 24;
    d.simdWidth = 16;
    d.args = {(uint32_t)pair.allocate(argBufBytes)};
    ExecProfile ps = pair.execScalar.run(d, Executor::Mode::Full);
    ExecProfile pg = pair.execGang.run(d, Executor::Mode::Full);
    expectProfilesEqual(ps, pg);
    EXPECT_TRUE(pair.execGang.lastRunGanged());
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

    GangPair pair;
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 24;
    d.simdWidth = 16;
    d.args = {(uint32_t)pair.allocate(argBufBytes)};
    ExecProfile ps = pair.execScalar.run(d, Executor::Mode::Full);
    ExecProfile pg = pair.execGang.run(d, Executor::Mode::Full);
    expectProfilesEqual(ps, pg);
    EXPECT_TRUE(pair.execGang.lastRunGanged());
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

// --- aliasing stores must force gangSafe = false -----------------------

TEST(GangSafety, AliasingStoresPinScalar)
{
    // Every thread stores its ids to the *same* address (arg0): a
    // cross-thread last-writer race that lockstep would reorder. The
    // analysis must refuse region form, and results must still match
    // via the scalar fallback.
    KernelBuilder b("alias", 1);
    Reg addr = b.reg();
    b.mov(addr, b.arg(0), 16);
    b.store(b.globalIds(), addr, 4, 16);
    b.halt();
    KernelBinary bin = b.finish();

    GangPair pair;
    const isa::GangSafety &g = pair.execGang.gangSafety(&bin);
    EXPECT_FALSE(g.regionForm);

    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 24;
    d.simdWidth = 16;
    d.args = {(uint32_t)pair.allocate(argBufBytes)};
    ExecProfile ps = pair.execScalar.run(d, Executor::Mode::Full);
    ExecProfile pg = pair.execGang.run(d, Executor::Mode::Full);
    expectProfilesEqual(ps, pg);
    EXPECT_FALSE(pair.execGang.lastRunGanged());
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

TEST(GangSafety, SimdWidthGuard)
{
    // stress proves safe only through the per-id no-collision route,
    // which needs distinct ids across the gang: a SIMD-8 dispatch of
    // its width-16 sends duplicates ids, so the dispatch guard must
    // pin scalar execution (and results still match).
    isa::KernelSource src;
    src.name = "gang_stress8";
    src.templateName = "stress";
    src.params = {8};
    KernelBinary bin = workloads::TemplateJit().compile(src);

    GangPair pair;
    const isa::GangSafety &g = pair.execGang.gangSafety(&bin);
    ASSERT_TRUE(g.regionForm);
    ASSERT_GT(g.minSimdWidth, 8);

    Dispatch d;
    d.binary = &bin;
    d.globalSize = 8 * 24;
    d.simdWidth = 8;
    for (uint32_t a = 0; a < bin.numArgs; ++a)
        d.args.push_back((uint32_t)pair.allocate(argBufBytes));
    ExecProfile ps = pair.execScalar.run(d, Executor::Mode::Full);
    ExecProfile pg = pair.execGang.run(d, Executor::Mode::Full);
    expectProfilesEqual(ps, pg);
    EXPECT_FALSE(pair.execGang.lastRunGanged());
    pair.expectMemoryEqual(pair.memScalar.allocated());
}

} // anonymous namespace
} // namespace gt::gpu
