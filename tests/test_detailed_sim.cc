/**
 * @file
 * Detailed-simulator tests: the cycle-level model must respect
 * dependences, bandwidth, and parallelism, and must be usable for
 * simulating selected intervals. The EU walk is checked bit for bit
 * against the step-by-step reference in eu_reference.hh on every
 * checkpoint of four applications, and the batched machine layer
 * against per-cell simulate() on cells that share walks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>

#include "core/detailed_validator.hh"
#include "core/explorer.hh"
#include "eu_reference.hh"
#include "gpu/detailed_checkpoint.hh"
#include "gpu/detailed_sim.hh"
#include "gpu/eu_pipeline.hh"
#include "isa/builder.hh"
#include "sched/thread_pool.hh"
#include "workloads/templates.hh"

namespace gt::gpu
{
namespace
{

using isa::KernelBinary;
using isa::KernelBuilder;
using isa::Reg;
using isa::imm;

class DetailedSimTest : public ::testing::Test
{
  protected:
    DetailedSimTest()
        : config(DeviceConfig::hd4000()), memory(16 << 20),
          exec(config, memory)
    {}

    KernelBinary
    chainKernel(bool dependent)
    {
        KernelBuilder b(dependent ? "dep" : "indep", 0);
        Reg c = b.reg();
        std::vector<Reg> regs;
        for (int i = 0; i < 8; ++i)
            regs.push_back(b.reg());
        b.beginLoop(c, imm(200));
        for (int i = 0; i < 8; ++i) {
            if (dependent) {
                // Serial chain through one register.
                b.fmul(regs[0], regs[0], regs[0], 8);
            } else {
                // Independent streams.
                b.fmul(regs[(size_t)i], regs[(size_t)i],
                       regs[(size_t)i], 8);
            }
        }
        b.endLoop();
        b.halt();
        return b.finish();
    }

    DeviceConfig config;
    DeviceMemory memory;
    Executor exec;
};

TEST_F(DetailedSimTest, ProducesPositiveResult)
{
    KernelBinary bin = chainKernel(false);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 1024;
    d.simdWidth = 16;

    DetailedSimulator sim(config);
    DetailedResult r = sim.simulate(exec, d);
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.simulatedInstrs, 0u);
    EXPECT_GT(r.spi, 0.0);
}

TEST_F(DetailedSimTest, DependencyChainsAreSlower)
{
    KernelBinary dep = chainKernel(true);
    KernelBinary indep = chainKernel(false);
    Dispatch d;
    d.globalSize = 16; // one thread per EU wave: no SMT hiding
    d.simdWidth = 16;

    DetailedSimulator sim(config);
    d.binary = &dep;
    double t_dep = sim.simulate(exec, d).cycles;
    d.binary = &indep;
    double t_indep = sim.simulate(exec, d).cycles;
    EXPECT_GT(t_dep, t_indep * 1.2);
}

TEST_F(DetailedSimTest, SmtHidesLatency)
{
    KernelBinary dep = chainKernel(true);
    Dispatch one;
    one.binary = &dep;
    one.globalSize = 16; // 1 hardware thread
    one.simdWidth = 16;
    Dispatch many = one;
    many.globalSize = 16 * 8 * 16; // all SMT contexts busy

    DetailedSimulator sim(config);
    double spi_one = sim.simulate(exec, one).spi;
    double spi_many = sim.simulate(exec, many).spi;
    // Per-instruction cost drops when SMT can interleave threads.
    EXPECT_LT(spi_many, spi_one);
}

TEST_F(DetailedSimTest, MoreEusScaleThroughput)
{
    KernelBinary bin = chainKernel(false);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 1 << 16;
    d.simdWidth = 16;

    DetailedSimulator ivb(DeviceConfig::hd4000(), 1150.0);
    DetailedSimulator hsw(DeviceConfig::hd4600(), 1150.0);
    double t_ivb = hsw.simulate(exec, d).seconds;
    double t_hsw = ivb.simulate(exec, d).seconds;
    // 20 EUs vs 16 EUs at matched clocks.
    EXPECT_LT(t_ivb, t_hsw);
}

TEST_F(DetailedSimTest, MemoryTrafficCostsCycles)
{
    workloads::TemplateJit jit;
    isa::KernelSource heavy_src;
    heavy_src.name = "mem_heavy";
    heavy_src.templateName = "reduce";
    heavy_src.params = {64, 0xffff, 16};
    KernelBinary heavy = jit.compile(heavy_src);

    isa::KernelSource light_src;
    light_src.name = "mem_light";
    light_src.templateName = "stress";
    light_src.params = {8, 8, 16};
    KernelBinary light = jit.compile(light_src);

    uint32_t base = (uint32_t)memory.allocate(1 << 20);
    Dispatch dh;
    dh.binary = &heavy;
    dh.globalSize = 1024;
    dh.simdWidth = 16;
    dh.args = {base, base};

    DetailedSimulator sim(config);
    DetailedResult r = sim.simulate(exec, dh);
    // A gather-heavy kernel must show SPI well above the ~1-cycle
    // ALU ideal.
    double cycles_per_instr = r.cycles /
        ((double)r.simulatedInstrs *
         ((double)dh.numThreads() /
          (double)config.totalHwThreads()));
    EXPECT_GT(cycles_per_instr, 0.0);
    (void)light;
}

TEST_F(DetailedSimTest, DetailedSimIsSlowerThanProfiling)
{
    // The motivation for the whole paper: walking instructions in
    // detail costs orders of magnitude more host work than the fast
    // profiling path. We check the structural fact that the detailed
    // simulator walks (simulates) every instruction of a wave while
    // fast profiling executes only the control slice of one thread.
    workloads::TemplateJit jit;
    isa::KernelSource src;
    src.name = "slow";
    src.templateName = "julia";
    src.params = {64, 16};
    KernelBinary bin = jit.compile(src);

    uint32_t base = (uint32_t)memory.allocate(1 << 20);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 16 * 64;
    d.simdWidth = 16;
    d.args = {base, 0x3f000000u, 0x3e000000u};

    DetailedSimulator sim(config);
    DetailedResult r = sim.simulate(exec, d);
    const isa::Relevance &rel = exec.relevance(&bin);
    // Instructions walked in detail exceed the relevant (fast-mode)
    // fraction by a wide margin.
    EXPECT_GT((double)r.simulatedInstrs,
              8.0 * (double)rel.relevantCount);
}

TEST_F(DetailedSimTest, CheckpointMatchesLegacyPath)
{
    // The one-shot entry point is defined as checkpoint-then-replay;
    // building the checkpoint explicitly must give the same bits.
    KernelBinary bin = chainKernel(true);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 1024;
    d.simdWidth = 16;

    DetailedSimulator sim(config);
    DetailedCheckpoint cp = exec.checkpoint(d);
    DetailedResult via_cp = sim.simulate(cp);
    DetailedResult legacy = sim.simulate(exec, d);
    EXPECT_EQ(legacy.cycles, via_cp.cycles);
    EXPECT_EQ(legacy.seconds, via_cp.seconds);
    EXPECT_EQ(legacy.spi, via_cp.spi);
    EXPECT_EQ(legacy.simulatedInstrs, via_cp.simulatedInstrs);
}

TEST_F(DetailedSimTest, ClampsContextsToDispatchThreads)
{
    // A dispatch with fewer hardware threads than SMT contexts must
    // replay only the threads it has: 1 thread issues exactly the
    // traced instructions, 8 threads per EU issue 8x.
    KernelBinary bin = chainKernel(false);
    Dispatch one;
    one.binary = &bin;
    one.globalSize = 16; // one hardware thread total
    one.simdWidth = 16;
    Dispatch full = one;
    full.globalSize = 16ull * config.threadsPerEu * config.numEus;

    DetailedCheckpoint cp1 = exec.checkpoint(one);
    DetailedCheckpoint cp8 = exec.checkpoint(full);
    ASSERT_EQ(cp1.numThreads, 1u);
    ASSERT_EQ(cp8.numThreads,
              (uint64_t)config.threadsPerEu * config.numEus);
    ASSERT_EQ(cp1.tracedInstrs, cp8.tracedInstrs);

    DetailedSimulator sim(config);
    EXPECT_EQ(sim.simulate(cp1).simulatedInstrs, cp1.tracedInstrs);
    EXPECT_EQ(sim.simulate(cp8).simulatedInstrs,
              config.threadsPerEu * cp8.tracedInstrs);
}

TEST_F(DetailedSimTest, TruncatedTraceScalesCycles)
{
    // Capping the block trace below the kernel's dynamic length must
    // record the shortfall and scale the replayed cycles by exactly
    // the truncation factor.
    KernelBinary bin = chainKernel(true);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 1024;
    d.simdWidth = 16;

    DetailedCheckpoint full = exec.checkpoint(d);
    DetailedCheckpoint cut = exec.checkpoint(d, 16);
    ASSERT_GT(cut.truncation, 1.0);
    EXPECT_GT(cut.truncation, full.truncation);
    ASSERT_LT(cut.trace.size(), full.trace.size());

    DetailedSimulator sim(config);
    DetailedCheckpoint unscaled = cut;
    unscaled.truncation = 1.0;
    EXPECT_DOUBLE_EQ(sim.simulate(cut).cycles,
                     sim.simulate(unscaled).cycles *
                         cut.truncation);
}

TEST_F(DetailedSimTest, SingleBlockKernel)
{
    // No control flow at all: the trace is one block and the traced
    // instruction count is that block's size.
    KernelBuilder b("straightline", 0);
    Reg r = b.reg();
    for (int i = 0; i < 6; ++i)
        b.fmul(r, r, r, 8);
    b.halt();
    KernelBinary bin = b.finish();

    Dispatch d;
    d.binary = &bin;
    d.globalSize = 256;
    d.simdWidth = 16;

    DetailedCheckpoint cp = exec.checkpoint(d);
    ASSERT_EQ(cp.trace.size(), 1u);
    EXPECT_EQ(cp.tracedInstrs,
              bin.blocks[cp.trace[0]].instrs.size());

    DetailedResult r2 = DetailedSimulator(config).simulate(cp);
    EXPECT_GT(r2.cycles, 0.0);
    EXPECT_GT(r2.simulatedInstrs, 0u);
}

TEST_F(DetailedSimTest, MathOpsCostMoreThanAlu)
{
    // Same dependent chain shape, different latency class: the
    // extended-math pipe (fdiv) must be slower than the ALU (fmul)
    // when SMT cannot hide the chain.
    auto chain = [](bool math) {
        KernelBuilder b(math ? "math" : "alu", 0);
        Reg c = b.reg();
        Reg r = b.reg();
        b.beginLoop(c, imm(100));
        for (int i = 0; i < 4; ++i) {
            if (math)
                b.fdiv(r, r, r, 8);
            else
                b.fmul(r, r, r, 8);
        }
        b.endLoop();
        b.halt();
        return b.finish();
    };
    KernelBinary alu = chain(false);
    KernelBinary math = chain(true);

    Dispatch d;
    d.globalSize = 16; // one thread: expose the raw latencies
    d.simdWidth = 16;

    DetailedSimulator sim(config);
    d.binary = &alu;
    double alu_cycles = sim.simulate(exec, d).cycles;
    d.binary = &math;
    double math_cycles = sim.simulate(exec, d).cycles;
    EXPECT_GT(math_cycles, alu_cycles * 1.5);
}

TEST_F(DetailedSimTest, CheckpointStoreMemoizes)
{
    KernelBinary bin = chainKernel(false);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 1024;
    d.simdWidth = 16;
    d.args = {1, 2, 3};

    CheckpointStore store;
    const DetailedCheckpoint &a = store.get(exec, d, 7);
    const DetailedCheckpoint &b = store.get(exec, d, 7);
    EXPECT_EQ(&a, &b); // stable reference, no rebuild
    EXPECT_EQ(store.builds(), 1u);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.size(), 1u);

    Dispatch other = d;
    other.args = {1, 2, 4};
    const DetailedCheckpoint &c = store.get(exec, other, 7);
    EXPECT_NE(&a, &c); // distinct args -> distinct checkpoint
    EXPECT_EQ(store.builds(), 2u);
    EXPECT_NE(dispatchArgsHash(d.args),
              dispatchArgsHash(other.args));
}

TEST_F(DetailedSimTest, SerialParallelBitwiseAcrossDesignPoints)
{
    // The fig8 replay matrix collapses to 7 distinct design points
    // for the cycle model (noise seeds do not enter it): the
    // profiling clock, the 5-step frequency sweep, and the next
    // generation. At each, the parallel machine layer must match the
    // serial oracle bit for bit at 1, 4, and hardware-width pools.
    KernelBinary dep = chainKernel(true);
    KernelBinary indep = chainKernel(false);
    std::vector<DetailedCheckpoint> cps;
    for (KernelBinary *bin : {&dep, &indep}) {
        for (uint64_t global : {16ull, 1024ull, 1ull << 16}) {
            Dispatch d;
            d.binary = bin;
            d.globalSize = global;
            d.simdWidth = 16;
            cps.push_back(exec.checkpoint(d));
        }
    }
    std::vector<const DetailedCheckpoint *> cells;
    for (const DetailedCheckpoint &cp : cps)
        cells.push_back(&cp);

    struct Point
    {
        DeviceConfig config;
        double freqMhz;
    };
    std::vector<Point> points{{DeviceConfig::hd4000(), 0.0},
                              {DeviceConfig::hd4600(), 0.0}};
    for (double f : {1000.0, 850.0, 700.0, 550.0, 350.0})
        points.push_back({DeviceConfig::hd4000(), f});

    sched::ThreadPool pool1(1), pool4(4);
    std::vector<sched::ThreadPool *> pools{
        &pool1, &pool4, &sched::ThreadPool::global()};

    using Backend = DetailedSimulator::Backend;
    for (const Point &pt : points) {
        DetailedSimulator sim(pt.config, pt.freqMhz);
        std::vector<DetailedResult> want =
            sim.simulateBatch(cells, Backend::Serial);
        for (sched::ThreadPool *pool : pools) {
            std::vector<DetailedResult> got =
                sim.simulateBatch(cells, Backend::Parallel, pool);
            ASSERT_EQ(want.size(), got.size());
            for (size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(want[i].cycles, got[i].cycles);
                EXPECT_EQ(want[i].seconds, got[i].seconds);
                EXPECT_EQ(want[i].spi, got[i].spi);
                EXPECT_EQ(want[i].simulatedInstrs,
                          got[i].simulatedInstrs);
            }
        }
    }
}


/** Bitwise equality of two results, every field. */
void
expectSameResult(const DetailedResult &want, const DetailedResult &got,
                 size_t i)
{
    EXPECT_EQ(want.cycles, got.cycles) << "cell " << i;
    EXPECT_EQ(want.seconds, got.seconds) << "cell " << i;
    EXPECT_EQ(want.spi, got.spi) << "cell " << i;
    EXPECT_EQ(want.simulatedInstrs, got.simulatedInstrs) << "cell " << i;
}

/**
 * simulateBatch() must equal simulate() on every cell, under both
 * backends and at 1 and 4 workers, and must run @p walks walks.
 */
void
expectBatchMatchesCells(const DetailedSimulator &sim,
                        const std::vector<const DetailedCheckpoint *> &cells,
                        uint64_t walks)
{
    using Backend = DetailedSimulator::Backend;
    sched::ThreadPool pool1(1), pool4(4);
    const std::vector<std::pair<Backend, sched::ThreadPool *>> runs{
        {Backend::Serial, nullptr},
        {Backend::Parallel, &pool1},
        {Backend::Parallel, &pool4}};
    for (const auto &[backend, pool] : runs) {
        uint64_t got_walks = 0;
        std::vector<DetailedResult> got =
            sim.simulateBatch(cells, backend, pool, &got_walks);
        ASSERT_EQ(got.size(), cells.size());
        EXPECT_EQ(got_walks, walks);
        for (size_t i = 0; i < cells.size(); ++i) {
            DetailedResult want;
            if (cells[i])
                want = sim.simulate(*cells[i]);
            expectSameResult(want, got[i], i);
        }
    }
}

TEST_F(DetailedSimTest, BatchSharesWalkAcrossThreadCounts)
{
    // One trace, many thread counts: below threadsPerEu the context
    // count changes (a distinct walk each), above it only the wave
    // count does (one shared walk). Null cells sit in between.
    KernelBinary bin = chainKernel(true);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 1024;
    d.simdWidth = 16;
    const DetailedCheckpoint base = exec.checkpoint(d);
    const uint64_t tpe = config.threadsPerEu;

    std::vector<DetailedCheckpoint> cps;
    for (uint64_t threads : std::vector<uint64_t>{
             1, 3, tpe - 1, tpe, tpe + 1, tpe * config.numEus,
             1 << 16}) {
        DetailedCheckpoint cp = base;
        cp.numThreads = threads;
        cps.push_back(cp);
    }
    std::vector<const DetailedCheckpoint *> cells{nullptr};
    for (const DetailedCheckpoint &cp : cps) {
        cells.push_back(&cp);
        cells.push_back(nullptr);
    }

    // One walk per distinct context count: on HD4000 (8 per EU)
    // contexts 1, 3, 7 and 8; on HD4600 (7 per EU) 1, 3 and 7.
    for (const DeviceConfig &dc :
         {DeviceConfig::hd4000(), DeviceConfig::hd4600()}) {
        std::set<uint64_t> contexts;
        for (const DetailedCheckpoint &cp : cps)
            contexts.insert(std::min<uint64_t>(dc.threadsPerEu,
                                               cp.numThreads));
        expectBatchMatchesCells(DetailedSimulator(dc), cells,
                                contexts.size());
    }
}

TEST_F(DetailedSimTest, BatchScalesSharedWalkPerCell)
{
    // Cells that share a walk but differ in truncation and in their
    // dynamic instruction count (zero included) must each apply
    // their own scaling.
    KernelBinary bin = chainKernel(false);
    Dispatch d;
    d.binary = &bin;
    d.globalSize = 1 << 14;
    d.simdWidth = 16;
    const DetailedCheckpoint base = exec.checkpoint(d);

    std::vector<DetailedCheckpoint> cps;
    for (double trunc : {1.0, 1.5, 7.25}) {
        for (uint64_t dyn : std::vector<uint64_t>{
                 0, 1, base.dynInstrs, base.dynInstrs * 3 + 1}) {
            DetailedCheckpoint cp = base;
            cp.truncation = trunc;
            cp.dynInstrs = dyn;
            cps.push_back(cp);
        }
    }
    std::vector<const DetailedCheckpoint *> cells;
    for (const DetailedCheckpoint &cp : cps)
        cells.push_back(&cp);
    cells.push_back(nullptr);
    expectBatchMatchesCells(DetailedSimulator(config, 700.0), cells, 1);

    // Only the cell's own fields enter its result: the shared walk
    // gives identical cycles up to the truncation factor.
    DetailedSimulator sim(config);
    std::vector<DetailedResult> got = sim.simulateBatch(cells);
    EXPECT_EQ(got[0].spi, 0.0);
    EXPECT_NE(got[1].spi, got[2].spi);
    EXPECT_NE(got[0].cycles, got[4].cycles);
    EXPECT_EQ(got[0].simulatedInstrs, got[4].simulatedInstrs);
}

TEST_F(DetailedSimTest, BatchKeysWalksOnBinaryAndTraceContents)
{
    // Two binaries with the same block structure record the same
    // trace, and must not share a walk; two separately built copies
    // of one checkpoint must; a shorter trace of one binary must not.
    KernelBinary dep = chainKernel(true);
    KernelBinary indep = chainKernel(false);
    Dispatch d;
    d.globalSize = 1024;
    d.simdWidth = 16;
    d.binary = &dep;
    const DetailedCheckpoint dep_cp = exec.checkpoint(d);
    const DetailedCheckpoint dep_copy = exec.checkpoint(d);
    const DetailedCheckpoint dep_cut = exec.checkpoint(d, 16);
    d.binary = &indep;
    const DetailedCheckpoint indep_cp = exec.checkpoint(d);
    ASSERT_EQ(dep_cp.trace, indep_cp.trace);
    ASSERT_NE(dep_cp.trace, dep_cut.trace);

    // Same binary, same trace length, different block order.
    DetailedCheckpoint dep_reordered = dep_cp;
    std::reverse(dep_reordered.trace.begin(), dep_reordered.trace.end());
    ASSERT_NE(dep_cp.trace, dep_reordered.trace);

    std::vector<const DetailedCheckpoint *> cells{
        &dep_cp, &indep_cp, &dep_copy, &dep_cut, &indep_cp,
        &dep_reordered};
    expectBatchMatchesCells(DetailedSimulator(config), cells, 4);
    expectBatchMatchesCells(DetailedSimulator(config), {}, 0);
    expectBatchMatchesCells(DetailedSimulator(config), {nullptr}, 0);
}

TEST_F(DetailedSimTest, EuWalkMatchesReferenceOnSyntheticKernels)
{
    // Every latency class (ALU, extended math, send) and flag
    // dependence, at every context count up to the SMT width.
    KernelBuilder mb("math_chain", 0);
    Reg c = mb.reg();
    Reg r = mb.reg();
    mb.beginLoop(c, imm(50));
    mb.fdiv(r, r, r, 8);
    mb.fmul(r, r, r, 16);
    mb.endLoop();
    mb.halt();
    std::vector<KernelBinary> bins{chainKernel(true), chainKernel(false),
                                   mb.finish()};
    workloads::TemplateJit jit;
    for (const auto &[tmpl, params] :
         std::vector<std::pair<std::string, std::vector<int64_t>>>{
             {"reduce", {64, 0xffff, 16}}, {"julia", {64, 16}}}) {
        isa::KernelSource src;
        src.name = tmpl;
        src.templateName = tmpl;
        src.params = params;
        bins.push_back(jit.compile(src));
    }
    uint32_t base = (uint32_t)memory.allocate(1 << 20);

    for (const KernelBinary &bin : bins) {
        Dispatch d;
        d.binary = &bin;
        d.globalSize = 1024;
        d.simdWidth = 16;
        d.args = {base, base, 0x3e000000u};
        DetailedCheckpoint cp = exec.checkpoint(d);
        for (const DeviceConfig &dc :
             {DeviceConfig::hd4000(), DeviceConfig::hd4600()}) {
            const EuParams params = DetailedSimulator(dc, 550.0).euParams();
            for (uint32_t ctx = 1; ctx <= dc.threadsPerEu; ++ctx) {
                EuResult want =
                    reference::simulateEu(bin, cp.trace, ctx, params);
                EuResult got = simulateEu(bin, cp.trace, ctx, params);
                EXPECT_EQ(want.cycles, got.cycles)
                    << bin.name << " ctx " << ctx;
                EXPECT_EQ(want.issued, got.issued)
                    << bin.name << " ctx " << ctx;
            }
        }
    }
}

/** Every distinct checkpoint of @p app's dispatches, as the
 * validator builds them. */
class AppCheckpoints
{
  public:
    explicit AppCheckpoints(const core::ProfiledApp &app)
    {
        gpu::TrialConfig trial;
        trial.noiseSigma = 0.0;
        driver = std::make_unique<ocl::GpuDriver>(
            DeviceConfig::hd4000(), jit, trial);
        runtime = std::make_unique<ocl::ClRuntime>(*driver);
        cfl::replay(app.recording, *runtime);
        std::set<const DetailedCheckpoint *> seen;
        for (uint64_t d = 0; d < app.db.numDispatches(); ++d) {
            const gtpin::DispatchProfile &rec = app.db.profileAt(d);
            const DetailedCheckpoint *cp = &driver->checkpoint(
                rec.kernelId, rec.globalWorkSize, 16, rec.args);
            if (seen.insert(cp).second)
                cps.push_back(cp);
        }
    }

    std::vector<const DetailedCheckpoint *> cps;

  private:
    workloads::TemplateJit jit;
    std::unique_ptr<ocl::GpuDriver> driver;
    std::unique_ptr<ocl::ClRuntime> runtime;
};

class EuReferenceTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EuReferenceTest, EveryCheckpointMatchesReference)
{
    // The event-cached EU walk against the step-by-step reference on
    // every checkpoint of the app, at the profiling clock, a lowered
    // clock and the next generation: cycles and issued bit for bit.
    const workloads::Workload *w = workloads::findWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    core::ProfiledApp app = core::profileApp(*w);
    AppCheckpoints ckpts(app);
    ASSERT_FALSE(ckpts.cps.empty());

    const std::vector<std::pair<DeviceConfig, double>> points{
        {DeviceConfig::hd4000(), 0.0},
        {DeviceConfig::hd4000(), 350.0},
        {DeviceConfig::hd4600(), 0.0}};
    for (const auto &[dc, freq] : points) {
        const EuParams params = DetailedSimulator(dc, freq).euParams();
        for (const DetailedCheckpoint *cp : ckpts.cps) {
            const uint32_t num_ctx = (uint32_t)std::min<uint64_t>(
                dc.threadsPerEu, cp->numThreads);
            EuResult want = reference::simulateEu(
                *cp->binary, cp->trace, num_ctx, params);
            EuResult got =
                simulateEu(*cp->binary, cp->trace, num_ctx, params);
            ASSERT_EQ(want.cycles, got.cycles)
                << cp->binary->name << " ctx " << num_ctx;
            ASSERT_EQ(want.issued, got.issued)
                << cp->binary->name << " ctx " << num_ctx;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PinnedApps, EuReferenceTest,
    ::testing::Values("cb-histogram-image", "sonyvegas-proj-r7",
                      "cb-graphics-provence", "sandra-crypt-aes256"),
    [](const auto &info) {
        std::string s = info.param;
        for (char &c : s) {
            if (c == '-')
                c = '_';
        }
        return s;
    });

/** A validator over one small app and its minimum-error selection. */
class DetailedValidatorTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        app = std::make_unique<core::ProfiledApp>(core::profileApp(
            *workloads::findWorkload("cb-gaussian-image")));
        sel = std::make_unique<core::SubsetSelection>(
            core::pickMinError(core::exploreConfigs(app->db)).selection);
    }

    static void
    TearDownTestSuite()
    {
        sel.reset();
        app.reset();
    }

    /** validate() on @p bad must panic, naming the app and @p what. */
    void
    expectRejected(const core::SubsetSelection &bad,
                   const std::string &what)
    {
        core::DetailedValidator v(*app);
        try {
            v.validate(bad);
            ADD_FAILURE() << "accepted a selection with " << what;
        } catch (const PanicError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(app->name), std::string::npos) << msg;
            EXPECT_NE(msg.find(what), std::string::npos) << msg;
        }
    }

    static inline std::unique_ptr<core::ProfiledApp> app;
    static inline std::unique_ptr<core::SubsetSelection> sel;
};

TEST_F(DetailedValidatorTest, AcceptsItsOwnSelection)
{
    core::DetailedValidator v(*app);
    core::DetailedValidator::Report r = v.validate(*sel);
    EXPECT_GT(r.fullSpi, 0.0);
    EXPECT_TRUE(std::isfinite(r.errorPct));
    EXPECT_GT(v.cellSims(), 0u);
    EXPECT_GE(v.cellSims(), v.euWalks());
    EXPECT_GT(v.euWalks(), 0u);
}

TEST_F(DetailedValidatorTest, RejectsRaggedRatios)
{
    core::SubsetSelection bad = *sel;
    bad.ratios.pop_back();
    expectRejected(bad, "size mismatch");
    bad = *sel;
    bad.ratios.push_back(0.5);
    expectRejected(bad, "size mismatch");
}

TEST_F(DetailedValidatorTest, RejectsEmptySelection)
{
    core::SubsetSelection bad = *sel;
    bad.selected.clear();
    bad.ratios.clear();
    expectRejected(bad, "empty selection");
}

TEST_F(DetailedValidatorTest, RejectsOutOfRangeInterval)
{
    core::SubsetSelection bad = *sel;
    bad.selected[0] = bad.intervals.size();
    expectRejected(bad, "out of range");
}

TEST_F(DetailedValidatorTest, RejectsZeroInstructionInterval)
{
    // An interval that covers no dispatch has no instructions; its
    // SPI would be 0/0.
    core::SubsetSelection bad = *sel;
    core::Interval &iv = bad.intervals[bad.selected[0]];
    iv.firstDispatch = iv.lastDispatch + 1;
    expectRejected(bad, "has no instructions");
}

} // anonymous namespace
} // namespace gt::gpu
