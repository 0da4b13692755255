/**
 * @file
 * GT-Pin framework tests: the binary rewriter must not perturb
 * program semantics, the built-in tools' trace-buffer-derived counts
 * must match the executor's ground truth exactly, and per-dispatch
 * delta accounting must hold across kernels and dispatches.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "gpu/exec_profile.hh"
#include "gtpin/gtpin.hh"
#include "gtpin/kernel_profile.hh"
#include "gtpin/tools.hh"
#include "ocl/runtime.hh"
#include "workloads/templates.hh"

namespace gt::gtpin
{
namespace
{

/** A driver+runtime pair with GT-Pin attached before any build. */
class GtPinTest : public ::testing::Test
{
  protected:
    GtPinTest()
        : jit(),
          driver(gpu::DeviceConfig::hd4000(), jit, noiseless()),
          rt(driver)
    {}

    static gpu::TrialConfig
    noiseless()
    {
        gpu::TrialConfig t;
        t.noiseSigma = 0.0;
        return t;
    }

    /** Run one dispatch of template @p tname with default params. */
    ocl::DispatchResult
    runOne(const std::string &tname, uint64_t gws = 256)
    {
        ocl::Context ctx = rt.createContext();
        ocl::CommandQueue q = rt.createCommandQueue(ctx);
        isa::KernelSource src;
        src.name = tname + "_k";
        src.templateName = tname;
        ocl::Program prog = rt.createProgramWithSource(ctx, {src});
        rt.buildProgram(prog);
        ocl::Kernel k = rt.createKernel(prog, src.name);
        ocl::Mem buf = rt.createBuffer(ctx, 1 << 20);
        const isa::KernelBinary &bin = driver.binary(0);
        for (uint32_t a = 0; a < bin.numArgs; ++a)
            rt.setKernelArg(k, a, buf);

        last = {};
        class Grab : public ocl::ApiObserver
        {
          public:
            explicit Grab(ocl::DispatchResult &out) : out(out) {}
            void
            onDispatchExecuted(const ocl::DispatchResult &r) override
            {
                out = r;
            }
            ocl::DispatchResult &out;
        } grab(last);
        rt.addObserver(&grab);
        rt.enqueueNDRangeKernel(q, k, gws);
        rt.finish(q);
        rt.removeObserver(&grab);
        return last;
    }

    workloads::TemplateJit jit;
    ocl::GpuDriver driver;
    ocl::ClRuntime rt;
    ocl::DispatchResult last;
};

// --- rewriter ----------------------------------------------------------

TEST(Rewriter, InsertsRequestedInstrumentation)
{
    workloads::TemplateJit jit;
    isa::KernelSource src;
    src.name = "r";
    src.templateName = "julia";
    isa::KernelBinary bin = jit.compile(src);

    SlotAllocator slots;
    Instrumenter instr(bin, slots);
    for (const auto &block : bin.blocks)
        instr.countBlockEntry(block.id, instr.allocSlot());
    instr.timeKernel(instr.allocSlot());
    isa::KernelBinary out = instr.apply();

    EXPECT_GT(out.staticInstrCount(), bin.staticInstrCount());
    EXPECT_EQ(out.staticAppInstrCount(), bin.staticAppInstrCount());
    EXPECT_EQ(out.blocks.size(), bin.blocks.size());
    // Every block begins with its counter.
    for (const auto &block : out.blocks) {
        EXPECT_EQ(block.instrs[0].cls(),
                  isa::OpClass::Instrumentation);
    }
}

TEST(Rewriter, TerminatorStaysLast)
{
    workloads::TemplateJit jit;
    isa::KernelSource src;
    src.name = "t";
    src.templateName = "stream";
    isa::KernelBinary bin = jit.compile(src);

    SlotAllocator slots;
    Instrumenter instr(bin, slots);
    // Ask for send-byte recording after every send, including sends
    // adjacent to terminators.
    for (const auto &block : bin.blocks) {
        for (uint32_t i = 0; i < block.instrs.size(); ++i) {
            if (block.instrs[i].op == isa::Opcode::Send)
                instr.recordSendBytes(block.id, i,
                                      instr.allocSlot());
        }
    }
    isa::KernelBinary out = instr.apply();
    EXPECT_NO_THROW(isa::verify(out));
    for (const auto &block : out.blocks) {
        for (uint32_t i = 0; i + 1 < block.instrs.size(); ++i)
            EXPECT_FALSE(isa::isTerminator(block.instrs[i].op));
    }
}

TEST(Rewriter, RejectsInvalidRequests)
{
    setLogQuiet(true);
    workloads::TemplateJit jit;
    isa::KernelSource src;
    src.name = "bad";
    src.templateName = "julia";
    isa::KernelBinary bin = jit.compile(src);
    SlotAllocator slots;
    Instrumenter instr(bin, slots);
    EXPECT_THROW(instr.countBlockEntry(999, 0), PanicError);
    EXPECT_THROW(instr.recordSendBytes(0, 0, 0), PanicError);
    setLogQuiet(false);
}

// --- semantics preservation ---------------------------------------------

TEST_F(GtPinTest, InstrumentationDoesNotPerturbExecution)
{
    // Run the same kernel with and without GT-Pin; device memory
    // results must be identical (the paper's no-perturbation
    // guarantee).
    auto run_once = [](bool with_pin, std::vector<uint8_t> &out) {
        workloads::TemplateJit jit;
        gpu::TrialConfig t;
        t.noiseSigma = 0.0;
        ocl::GpuDriver drv(gpu::DeviceConfig::hd4000(), jit, t);
        drv.setExecMode(gpu::Executor::Mode::Full);
        BasicBlockCounterTool bb;
        MemBytesTool mem;
        GtPin pin;
        pin.addTool(&bb);
        pin.addTool(&mem);
        if (with_pin)
            pin.attach(drv);
        ocl::ClRuntime rt(drv);
        ocl::Context ctx = rt.createContext();
        ocl::CommandQueue q = rt.createCommandQueue(ctx);
        isa::KernelSource src;
        src.name = "ht";
        src.templateName = "hash";
        src.params = {16, 8};
        ocl::Program prog = rt.createProgramWithSource(ctx, {src});
        rt.buildProgram(prog);
        ocl::Kernel k = rt.createKernel(prog, "ht");
        ocl::Mem in = rt.createBuffer(ctx, 1 << 16);
        ocl::Mem res = rt.createBuffer(ctx, 1 << 16);
        rt.enqueueFillBuffer(q, in, 0x01020304u, 0, 1 << 16);
        rt.setKernelArg(k, 0, in);
        rt.setKernelArg(k, 1, res);
        rt.setKernelArg(k, 2, 42u);
        rt.enqueueNDRangeKernel(q, k, 128, 8);
        out = rt.enqueueReadBuffer(q, res, 0, 4096);
        if (with_pin)
            pin.detach();
    };

    std::vector<uint8_t> plain, pinned;
    run_once(false, plain);
    run_once(true, pinned);
    EXPECT_EQ(plain, pinned);
}

// --- tool correctness vs. executor ground truth --------------------------

TEST_F(GtPinTest, BasicBlockCountsMatchGroundTruth)
{
    BasicBlockCounterTool bb;
    GtPin pin;
    pin.addTool(&bb);
    pin.attach(driver);

    ocl::DispatchResult r = runOne("blur");
    ASSERT_EQ(bb.lastBlockCounts().size(),
              r.profile.blockCounts.size());
    for (size_t i = 0; i < r.profile.blockCounts.size(); ++i)
        EXPECT_EQ(bb.lastBlockCounts()[i],
                  r.profile.blockCounts[i]);
    EXPECT_EQ(bb.lastDynInstrs(), r.profile.dynInstrs);
    EXPECT_EQ(bb.totalDynInstrs(), r.profile.dynInstrs);
    pin.detach();
}

TEST_F(GtPinTest, OpcodeMixMatchesGroundTruth)
{
    OpcodeMixTool mix;
    GtPin pin;
    pin.addTool(&mix);
    pin.attach(driver);

    ocl::DispatchResult r = runOne("aes");
    for (int c = 0; c < isa::numOpClasses; ++c) {
        if ((isa::OpClass)c == isa::OpClass::Instrumentation)
            continue;
        EXPECT_EQ(mix.classCounts()[c], r.profile.classCounts[c])
            << isa::opClassName((isa::OpClass)c);
    }
    for (int b = 0; b < 5; ++b)
        EXPECT_EQ(mix.simdCounts()[b], r.profile.simdCounts[b]);
    EXPECT_EQ(mix.totalInstrs(), r.profile.dynInstrs);
    pin.detach();
}

TEST_F(GtPinTest, MemBytesMatchGroundTruth)
{
    MemBytesTool mem;
    GtPin pin;
    pin.addTool(&mem);
    pin.attach(driver);

    ocl::DispatchResult r = runOne("effect");
    EXPECT_EQ(mem.totalBytesRead(), r.profile.bytesRead);
    EXPECT_EQ(mem.totalBytesWritten(), r.profile.bytesWritten);
    EXPECT_EQ(mem.kernelBytesRead(0), r.profile.bytesRead);
    pin.detach();
}

TEST_F(GtPinTest, SimdUtilizationMatchesGroundTruth)
{
    SimdUtilizationTool util;
    GtPin pin;
    pin.addTool(&util);
    pin.attach(driver);

    ocl::DispatchResult r = runOne("shader");
    // Ground truth from the executor profile: sum of width x count
    // over the active-channel budget.
    double active = 0.0;
    for (int bin = 0; bin < 5; ++bin) {
        active += (double)r.profile.simdCounts[bin] *
            gpu::simdBinWidth(bin);
    }
    double expected = active /
        ((double)r.profile.dynInstrs * isa::maxSimdWidth);
    EXPECT_NEAR(util.kernelUtilization(0), expected, 1e-12);
    EXPECT_NEAR(util.overallUtilization(), expected, 1e-12);
    // A mostly 16-wide shader keeps the channels busy.
    EXPECT_GT(util.overallUtilization(), 0.5);
    pin.detach();
}

TEST_F(GtPinTest, TimerReportsKernelCycles)
{
    KernelTimerTool timer;
    GtPin pin;
    pin.addTool(&timer);
    pin.attach(driver);

    ocl::DispatchResult r = runOne("julia");
    EXPECT_GT(timer.totalCycles(), 0u);
    // Timer reads cycles across all threads; it must be within the
    // profile's total thread cycles (instrumented).
    EXPECT_LE((double)timer.totalCycles(),
              r.profile.threadCycles * 1.01);
    EXPECT_GT((double)timer.totalCycles(),
              r.profile.threadCycles * 0.5);
    pin.detach();
}

TEST_F(GtPinTest, KernelProfileToolRecordsPerDispatch)
{
    KernelProfileTool tool;
    GtPin pin;
    pin.addTool(&tool);
    pin.attach(driver);

    ocl::Context ctx = rt.createContext();
    ocl::CommandQueue q = rt.createCommandQueue(ctx);
    isa::KernelSource src;
    src.name = "kp";
    src.templateName = "stream";
    src.params = {8, 0xff, 16};
    ocl::Program prog = rt.createProgramWithSource(ctx, {src});
    rt.buildProgram(prog);
    ocl::Kernel k = rt.createKernel(prog, "kp");
    ocl::Mem buf = rt.createBuffer(ctx, 1 << 16);
    rt.setKernelArg(k, 0, buf);
    rt.setKernelArg(k, 1, buf);
    rt.setKernelArg(k, 2, 1u);
    rt.setKernelArg(k, 3, 0u);
    rt.enqueueNDRangeKernel(q, k, 256);
    rt.enqueueNDRangeKernel(q, k, 512);
    rt.finish(q);

    ASSERT_EQ(tool.profiles().size(), 2u);
    const DispatchProfile &p0 = tool.profiles()[0];
    const DispatchProfile &p1 = tool.profiles()[1];
    EXPECT_EQ(p0.seq, 0u);
    EXPECT_EQ(p1.seq, 1u);
    EXPECT_EQ(tool.kernels().at(p0.kernelId).name, "kp");
    EXPECT_EQ(p0.globalWorkSize, 256u);
    EXPECT_EQ(p1.globalWorkSize, 512u);
    // Same kernel, twice the threads: twice the instructions.
    EXPECT_EQ(p1.instrs, p0.instrs * 2);
    EXPECT_EQ(p1.bytesRead, p0.bytesRead * 2);
    EXPECT_EQ(tool.totalInstrs(), p0.instrs + p1.instrs);

    // The records carry no static data: the table row does, once,
    // and it reproduces each record's totals from its block counts.
    const KernelStatic &row = tool.kernels().at(p0.kernelId);
    ASSERT_EQ(row.numBlocks(), p0.numBlocks());
    uint64_t instrs = 0, read = 0;
    for (size_t b = 0; b < row.numBlocks(); ++b) {
        instrs += p0.blockCounts[b] * row.blockLens[b];
        read += p0.blockCounts[b] * row.blockReadBytes[b];
    }
    EXPECT_EQ(instrs, p0.instrs);
    EXPECT_EQ(read, p0.bytesRead);

    // takeProfiles() shares the table; a kernel built afterwards
    // lands in a fresh copy, so the handed-out table never changes.
    ProfileSet first = tool.takeProfiles();
    EXPECT_EQ(first.dispatches.size(), 2u);
    EXPECT_EQ(first.kernels.get(), &tool.kernels());
    isa::KernelSource later;
    later.name = "kp2";
    later.templateName = "stream";
    later.params = {8, 0xff, 16};
    rt.buildProgram(rt.createProgramWithSource(ctx, {later}));
    EXPECT_NE(first.kernels.get(), &tool.kernels());
    EXPECT_EQ(first.kernels->idLimit(), 1u);
    EXPECT_EQ(tool.kernels().idLimit(), 2u);
    EXPECT_EQ(*first.kernels->find(0), *tool.kernels().find(0));
    EXPECT_TRUE(tool.profiles().empty());
    pin.detach();
}

TEST_F(GtPinTest, MultipleToolsCoexist)
{
    BasicBlockCounterTool bb;
    OpcodeMixTool mix;
    MemBytesTool mem;
    KernelProfileTool prof;
    GtPin pin;
    pin.addTool(&bb);
    pin.addTool(&mix);
    pin.addTool(&mem);
    pin.addTool(&prof);
    pin.attach(driver);

    ocl::DispatchResult r = runOne("nbody");
    EXPECT_EQ(bb.lastDynInstrs(), r.profile.dynInstrs);
    EXPECT_EQ(mix.totalInstrs(), r.profile.dynInstrs);
    EXPECT_EQ(mem.totalBytesRead(), r.profile.bytesRead);
    ASSERT_EQ(prof.profiles().size(), 1u);
    EXPECT_EQ(prof.profiles()[0].instrs, r.profile.dynInstrs);
    EXPECT_GT(pin.slotsAllocated(), 0u);
    EXPECT_GT(pin.instructionsInserted(), 0u);
    pin.detach();
}

TEST_F(GtPinTest, StaticStructureReported)
{
    BasicBlockCounterTool bb;
    GtPin pin;
    pin.addTool(&bb);
    pin.attach(driver);
    runOne("deep");
    const isa::KernelBinary &bin = driver.binary(0);
    EXPECT_EQ(bb.staticBlocks(0), bin.blocks.size());
    EXPECT_EQ(bb.totalStaticBlocks(), bin.blocks.size());
    EXPECT_EQ(bb.totalStaticInstrs(), bin.staticAppInstrCount());
    pin.detach();
}

TEST_F(GtPinTest, AttachGuards)
{
    setLogQuiet(true);
    GtPin pin;
    pin.attach(driver);
    GtPin second;
    EXPECT_THROW(second.attach(driver), PanicError);
    pin.detach();
    EXPECT_NO_THROW(second.attach(driver));
    second.detach();

    BasicBlockCounterTool bb;
    GtPin third;
    third.attach(driver);
    EXPECT_THROW(third.addTool(&bb), PanicError);
    third.detach();
    setLogQuiet(false);
}

TEST_F(GtPinTest, ReattachBaselinesTheSnapshot)
{
    // Detach and re-attach across runs: the second attachment must
    // not report the first run's accumulated trace values as a
    // delta of its first dispatch.
    BasicBlockCounterTool bb;
    GtPin pin;
    pin.addTool(&bb);
    pin.attach(driver);
    ocl::DispatchResult first = runOne("julia");
    uint64_t after_first = bb.totalDynInstrs();
    pin.detach();

    pin.attach(driver);
    // Same kernel object dispatched again through the same driver.
    ocl::Context ctx = rt.createContext();
    ocl::CommandQueue q = rt.createCommandQueue(ctx);
    isa::KernelSource src;
    src.name = "julia2";
    src.templateName = "julia";
    ocl::Program prog = rt.createProgramWithSource(ctx, {src});
    rt.buildProgram(prog);
    ocl::Kernel k = rt.createKernel(prog, "julia2");
    ocl::Mem buf = rt.createBuffer(ctx, 1 << 20);
    rt.setKernelArg(k, 0, buf);
    rt.setKernelArg(k, 1, buf);
    rt.setKernelArg(k, 2, 7u);
    rt.enqueueNDRangeKernel(q, k, 256);
    rt.finish(q);

    EXPECT_EQ(bb.lastDynInstrs(), first.profile.dynInstrs == 0
                  ? bb.lastDynInstrs()
                  : bb.totalDynInstrs() - after_first);
    pin.detach();
}

// --- sparse delivery vs a dense snapshot diff ---------------------------

/**
 * The dense oracle: every slot of TraceBuffer::raw() diffed against
 * the previous snapshot, zeros included. Registered first, it checks
 * GT-Pin's sparse reader slot by slot and publishes the dense deltas
 * for the Tee tools below.
 */
class DenseDiff : public GtPinTool
{
  public:
    explicit DenseDiff(const gpu::TraceBuffer &trace) : trace(trace) {}

    std::string name() const override { return "densediff"; }

    void onKernelBuild(uint32_t, Instrumenter &) override {}

    /** Re-baseline on the current buffer (at every attach). */
    void baseline() { snapshot = trace.raw(); }

    void
    onDispatchComplete(const ocl::DispatchResult &,
                       const SlotReader &slots) override
    {
        const std::vector<uint64_t> &raw = trace.raw();
        snapshot.resize(raw.size(), 0);
        deltas.clear();
        size_t nonzero = 0;
        for (uint32_t s = 0; s < raw.size(); ++s) {
            uint64_t d = raw[s] - snapshot[s];
            snapshot[s] = raw[s];
            deltas.push_back({s, d});
            nonzero += d != 0;
            EXPECT_EQ(slots(s), d) << "slot " << s;
        }
        EXPECT_EQ(slots.touched().size(), nonzero);
        ++dispatches;
    }

    std::vector<gpu::SlotDelta> deltas;
    uint64_t dispatches = 0;

  private:
    const gpu::TraceBuffer &trace;
    std::vector<uint64_t> snapshot;
};

/**
 * Two copies of tool @p T owning the same slots: `live` reads GT-Pin's
 * sparse deltas, `oracle` the dense diff of every slot.
 */
template <class T>
class Tee : public GtPinTool
{
  public:
    explicit Tee(const DenseDiff &dense) : dense(dense) {}

    std::string name() const override { return live.name(); }

    void
    onKernelBuild(uint32_t kernel_id, Instrumenter &ins) override
    {
        // Replay the slot allocation on a shadow allocator at the same
        // base; the oracle's insertion requests are discarded.
        SlotAllocator shadow;
        shadow.alloc(ins.allocSlot(0));
        Instrumenter shadow_ins(ins.binary(), shadow);
        oracle.onKernelBuild(kernel_id, shadow_ins);
        live.onKernelBuild(kernel_id, ins);
    }

    void
    onDispatchComplete(const ocl::DispatchResult &result,
                       const SlotReader &slots) override
    {
        live.onDispatchComplete(result, slots);
        oracle.onDispatchComplete(result, SlotReader(dense.deltas));
    }

    T live;
    T oracle;

  private:
    const DenseDiff &dense;
};

void
expectProfilesEqual(const DispatchProfile &a, const DispatchProfile &b)
{
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.kernelId, b.kernelId);
    EXPECT_EQ(a.globalWorkSize, b.globalWorkSize);
    EXPECT_EQ(a.argsHash, b.argsHash);
    EXPECT_EQ(a.args, b.args);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.blockCounts, b.blockCounts);
    EXPECT_EQ(a.bytesRead, b.bytesRead);
    EXPECT_EQ(a.bytesWritten, b.bytesWritten);
}

TEST_F(GtPinTest, SparseDeliveryMatchesDenseDiff)
{
    DenseDiff dense(driver.traceBuffer());
    Tee<KernelProfileTool> prof(dense);
    Tee<BasicBlockCounterTool> bb(dense);
    Tee<OpcodeMixTool> mix(dense);
    Tee<MemBytesTool> mem(dense);
    Tee<SimdUtilizationTool> simd(dense);
    Tee<KernelTimerTool> timer(dense);
    GtPin pin;
    pin.addTool(&dense);
    pin.addTool(&prof);
    pin.addTool(&bb);
    pin.addTool(&mix);
    pin.addTool(&mem);
    pin.addTool(&simd);
    pin.addTool(&timer);
    pin.attach(driver);
    dense.baseline();

    ocl::Context ctx = rt.createContext();
    ocl::CommandQueue q = rt.createCommandQueue(ctx);
    ocl::Mem buf = rt.createBuffer(ctx, 1 << 20);
    auto build = [&](const std::string &tname) {
        isa::KernelSource src;
        src.name = tname + "_k";
        src.templateName = tname;
        ocl::Program prog = rt.createProgramWithSource(ctx, {src});
        rt.buildProgram(prog);
        ocl::Kernel k = rt.createKernel(prog, src.name);
        const isa::KernelBinary &bin =
            driver.binary(driver.numKernels() - 1);
        for (uint32_t a = 0; a < bin.numArgs; ++a)
            rt.setKernelArg(k, a, buf);
        return k;
    };
    auto expect_tools_agree = [&] {
        ASSERT_EQ(prof.live.profiles().size(),
                  prof.oracle.profiles().size());
        expectProfilesEqual(prof.live.profiles().back(),
                            prof.oracle.profiles().back());
        EXPECT_EQ(prof.live.kernels(), prof.oracle.kernels());
        EXPECT_EQ(bb.live.lastBlockCounts(), bb.oracle.lastBlockCounts());
        EXPECT_EQ(bb.live.lastDynInstrs(), bb.oracle.lastDynInstrs());
        EXPECT_EQ(bb.live.totalBlockExecs(), bb.oracle.totalBlockExecs());
        EXPECT_EQ(mix.live.opcodeCounts(), mix.oracle.opcodeCounts());
        EXPECT_EQ(mix.live.classCounts(), mix.oracle.classCounts());
        EXPECT_EQ(mix.live.simdCounts(), mix.oracle.simdCounts());
        EXPECT_EQ(timer.live.totalCycles(), timer.oracle.totalCycles());
        EXPECT_EQ(simd.live.overallUtilization(),
                  simd.oracle.overallUtilization());
        for (uint32_t k = 0; k < driver.numKernels(); ++k) {
            EXPECT_EQ(mem.live.kernelBytesRead(k),
                      mem.oracle.kernelBytesRead(k));
            EXPECT_EQ(mem.live.kernelBytesWritten(k),
                      mem.oracle.kernelBytesWritten(k));
            EXPECT_EQ(simd.live.kernelUtilization(k),
                      simd.oracle.kernelUtilization(k));
            EXPECT_EQ(timer.live.kernelCycles(k),
                      timer.oracle.kernelCycles(k));
        }
    };
    auto dispatch = [&](ocl::Kernel k, uint64_t gws) {
        rt.enqueueNDRangeKernel(q, k, gws);
        rt.finish(q);
    };

    // Two kernels interleaved; cascade's control depends on the
    // thread, so its threads run explicitly.
    ocl::Kernel blur = build("blur");
    ocl::Kernel cascade = build("cascade");
    for (uint64_t gws : {256, 512}) {
        dispatch(blur, gws);
        expect_tools_agree();
        dispatch(cascade, gws);
        expect_tools_agree();
    }

    // A kernel JIT-compiled after dispatches grows the buffer.
    uint32_t slots_before = driver.traceBuffer().size();
    ocl::Kernel aes = build("aes");
    EXPECT_GT(driver.traceBuffer().size(), slots_before);
    dispatch(aes, 256);
    expect_tools_agree();
    dispatch(blur, 256);
    expect_tools_agree();

    // Dispatches while detached still accumulate into the buffer but
    // are never a delta after re-attaching.
    pin.detach();
    dispatch(cascade, 256);
    dispatch(aes, 256);
    pin.attach(driver);
    dense.baseline();
    dispatch(cascade, 512);
    expect_tools_agree();
    dispatch(aes, 256);
    expect_tools_agree();
    dispatch(blur, 256);
    expect_tools_agree();

    EXPECT_EQ(dense.dispatches, 9u);
    ASSERT_EQ(prof.live.profiles().size(), 9u);
    for (size_t i = 0; i < prof.live.profiles().size(); ++i)
        expectProfilesEqual(prof.live.profiles()[i],
                            prof.oracle.profiles()[i]);
    pin.detach();
}

TEST_F(GtPinTest, OverheadIsSmallMultiple)
{
    // Paper Section III-C: instrumented runs are a small multiple of
    // native time, nothing like simulation slowdowns.
    auto device_time = [](bool with_pin) {
        workloads::TemplateJit jit;
        gpu::TrialConfig t;
        t.noiseSigma = 0.0;
        ocl::GpuDriver drv(gpu::DeviceConfig::hd4000(), jit, t);
        BasicBlockCounterTool bb;
        OpcodeMixTool mix;
        MemBytesTool mem;
        KernelTimerTool timer;
        GtPin pin;
        pin.addTool(&bb);
        pin.addTool(&mix);
        pin.addTool(&mem);
        pin.addTool(&timer);
        if (with_pin)
            pin.attach(drv);
        ocl::ClRuntime rt(drv);
        ocl::Context ctx = rt.createContext();
        ocl::CommandQueue q = rt.createCommandQueue(ctx);
        isa::KernelSource src;
        src.name = "oh";
        src.templateName = "blend";
        ocl::Program prog = rt.createProgramWithSource(ctx, {src});
        rt.buildProgram(prog);
        ocl::Kernel k = rt.createKernel(prog, "oh");
        ocl::Mem buf = rt.createBuffer(ctx, 1 << 20);
        rt.setKernelArg(k, 0, buf);
        rt.setKernelArg(k, 1, buf);
        rt.setKernelArg(k, 2, buf);
        rt.setKernelArg(k, 3, 0x3f000000u);
        for (int i = 0; i < 10; ++i)
            rt.enqueueNDRangeKernel(q, k, 65536);
        rt.finish(q);
        double t_dev = drv.deviceBusySeconds();
        if (with_pin)
            pin.detach();
        return t_dev;
    };

    double native = device_time(false);
    double pinned = device_time(true);
    double overhead = pinned / native;
    EXPECT_GT(overhead, 1.0);
    EXPECT_LT(overhead, 12.0); // the paper reports 2-10x
}

} // anonymous namespace
} // namespace gt::gtpin
