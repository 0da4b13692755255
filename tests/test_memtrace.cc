/**
 * @file
 * Batched SoA memory-trace pipeline tests: the MemTraceSink's
 * chunking contract, CacheModel's bulk consumer against the
 * per-access oracle, and end-to-end GT-Pin differentials — the
 * default chunked delivery must be bitwise identical to per-access
 * delivery (a one-record chunk on the switch interpreter, which never
 * gangs) at every thread count.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "gpu/executor.hh"
#include "gpu/memtrace.hh"
#include "gtpin/cache_sim.hh"
#include "gtpin/tools.hh"
#include "isa/builder.hh"
#include "ocl/runtime.hh"
#include "sched/thread_pool.hh"
#include "workloads/templates.hh"

namespace gt::gtpin
{
namespace
{

using gpu::MemBatch;
using gpu::MemTraceSink;
using isa::KernelBinary;
using isa::KernelBuilder;
using isa::Reg;
using isa::imm;

/** One unpacked trace record, for readable comparisons. */
struct Rec
{
    uint64_t addr;
    uint32_t bytes;
    bool write;
    bool operator==(const Rec &) const = default;
};

/** Append a batch's records to @p out, one Rec per entry. */
void
unpack(const MemBatch &batch, std::vector<Rec> &out)
{
    for (size_t i = 0; i < batch.count; ++i) {
        uint32_t meta = batch.metas[i];
        out.push_back({batch.addrs[i], MemBatch::bytes(meta),
                       MemBatch::isWrite(meta)});
    }
}

// --- MemTraceSink chunking contract ------------------------------------

TEST(MemTraceSink, FlushesFullChunksInOrder)
{
    std::vector<size_t> sizes;
    std::vector<Rec> recs;
    gpu::MemBatchFn fn = [&](const MemBatch &b) {
        sizes.push_back(b.count);
        unpack(b, recs);
    };

    MemTraceSink sink;
    sink.begin(&fn, 4);
    for (uint32_t i = 0; i < 10; ++i)
        sink.append(0x1000 + i * 64, 4 + i, i % 2 == 1);
    sink.finish();

    EXPECT_EQ(sizes, (std::vector<size_t>{4, 4, 2}));
    ASSERT_EQ(recs.size(), 10u);
    for (uint32_t i = 0; i < 10; ++i) {
        EXPECT_EQ(recs[i], (Rec{0x1000 + i * 64, 4 + i, i % 2 == 1}))
            << "record " << i;
    }
}

TEST(MemTraceSink, ExactlyFullBufferFlushesOnce)
{
    size_t batches = 0, records = 0;
    gpu::MemBatchFn fn = [&](const MemBatch &b) {
        ++batches;
        records += b.count;
    };
    MemTraceSink sink;
    sink.begin(&fn, 4);
    for (uint32_t i = 0; i < 4; ++i)
        sink.append(i, 4, false);
    // The chunk flushed the moment it filled; finish() must not
    // deliver a second, empty batch.
    EXPECT_EQ(batches, 1u);
    sink.finish();
    EXPECT_EQ(batches, 1u);
    EXPECT_EQ(records, 4u);
}

TEST(MemTraceSink, EmptyTraceDeliversNothing)
{
    size_t batches = 0;
    gpu::MemBatchFn fn = [&](const MemBatch &) { ++batches; };
    MemTraceSink sink;
    sink.begin(&fn, 4);
    sink.finish();
    EXPECT_EQ(batches, 0u);
}

TEST(MemTraceSink, MetaPackingRoundTrips)
{
    // The write flag lives in the top meta bit; byte counts up to
    // bytesMask survive unchanged.
    std::vector<Rec> recs;
    gpu::MemBatchFn fn = [&](const MemBatch &b) { unpack(b, recs); };
    MemTraceSink sink;
    sink.begin(&fn, 8);
    sink.append(~0ull, MemBatch::bytesMask, true);
    sink.append(0, 1, false);
    sink.finish();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0], (Rec{~0ull, MemBatch::bytesMask, true}));
    EXPECT_EQ(recs[1], (Rec{0, 1, false}));
}

// --- CacheModel bulk consumer vs. per-access oracle --------------------

TEST(CacheModelBatch, MatchesPerAccessOracle)
{
    // Pseudo-random trace with deliberate same-line runs and
    // line-straddling accesses; both consumers must agree on every
    // counter and on subsequent behaviour (same final cache state).
    CacheModel oracle(16 * 1024, 4, 64);
    CacheModel batched(16 * 1024, 4, 64);

    std::vector<uint64_t> addrs;
    std::vector<uint32_t> metas;
    uint64_t lcg = 12345;
    for (int i = 0; i < 20000; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        uint64_t addr = (lcg >> 16) % (256 * 1024);
        uint32_t bytes = 1u << ((lcg >> 8) % 6); // 1..32 bytes
        bool write = (lcg & 1) != 0;
        // Every fourth record repeats the previous address to build
        // same-line runs, the accessBatch fast path.
        if (i % 4 == 3 && !addrs.empty()) {
            addr = addrs.back();
            bytes = 4;
        }
        addrs.push_back(addr);
        metas.push_back(bytes | (write ? MemBatch::writeBit : 0));
    }

    for (size_t i = 0; i < addrs.size(); ++i) {
        oracle.access(addrs[i], MemBatch::bytes(metas[i]),
                      MemBatch::isWrite(metas[i]));
    }
    // Feed the batch consumer in uneven chunks to cross run
    // boundaries mid-batch.
    size_t chunk_sizes[] = {1, 7, 100, 4096, 128};
    size_t pos = 0, c = 0;
    while (pos < addrs.size()) {
        size_t n = std::min(chunk_sizes[c++ % 5], addrs.size() - pos);
        batched.accessBatch({addrs.data() + pos, metas.data() + pos, n});
        pos += n;
    }

    EXPECT_EQ(batched.hits(), oracle.hits());
    EXPECT_EQ(batched.misses(), oracle.misses());
    EXPECT_EQ(batched.writebacks(), oracle.writebacks());

    // Final cache state must match too: replay a probe sweep and
    // compare the resulting counters.
    for (uint64_t addr = 0; addr < 64 * 1024; addr += 64) {
        oracle.access(addr, 4, false);
        uint64_t a[] = {addr};
        uint32_t m[] = {4};
        batched.accessBatch({a, m, 1});
    }
    EXPECT_EQ(batched.hits(), oracle.hits());
    EXPECT_EQ(batched.misses(), oracle.misses());
    EXPECT_EQ(batched.writebacks(), oracle.writebacks());
}

// --- executor-level delivery -------------------------------------------

class MemTraceExecTest : public ::testing::Test
{
  protected:
    MemTraceExecTest()
        : config(gpu::DeviceConfig::hd4000()), memory(16 << 20),
          exec(config, memory)
    {}

    /** 16 lanes each storing 4 bytes to arg0 + 4*gid. */
    static KernelBinary
    storeKernel()
    {
        KernelBuilder b("st16", 1);
        Reg a = b.reg();
        b.shl(a, b.globalIds(), imm(2), 16);
        b.add(a, a, b.arg(0), 16);
        b.store(b.globalIds(), a, 4, 16);
        b.halt();
        return b.finish();
    }

    gpu::ExecProfile
    runBatched(const KernelBinary &bin, uint64_t gws, size_t chunk,
               std::vector<size_t> &sizes, std::vector<Rec> &recs)
    {
        gpu::Dispatch d;
        d.binary = &bin;
        d.globalSize = gws;
        d.simdWidth = 16;
        d.args = {(uint32_t)base};
        exec.setMemTraceChunk(chunk);
        return exec.run(d, gpu::Executor::Mode::Full, nullptr,
                        [&](const MemBatch &b) {
                            sizes.push_back(b.count);
                            unpack(b, recs);
                        });
    }

    gpu::DeviceConfig config;
    gpu::DeviceMemory memory;
    gpu::Executor exec;
    uint64_t base = 0x1000;
};

TEST_F(MemTraceExecTest, ExactlyFullDispatchFlushesOnce)
{
    KernelBinary bin = storeKernel();
    std::vector<size_t> sizes;
    std::vector<Rec> recs;
    runBatched(bin, 16, 16, sizes, recs); // 16 records, chunk 16
    EXPECT_EQ(sizes, (std::vector<size_t>{16}));
    ASSERT_EQ(recs.size(), 16u);
    for (uint32_t lane = 0; lane < 16; ++lane)
        EXPECT_EQ(recs[lane], (Rec{base + lane * 4, 4, true}));
}

TEST_F(MemTraceExecTest, MultiFlushDispatchPreservesOrder)
{
    KernelBinary bin = storeKernel();
    std::vector<size_t> sizes;
    std::vector<Rec> recs;
    runBatched(bin, 64, 5, sizes, recs); // 64 records, chunks of 5
    ASSERT_EQ(sizes.size(), 13u);        // 12 full + final 4
    for (size_t i = 0; i < 12; ++i)
        EXPECT_EQ(sizes[i], 5u);
    EXPECT_EQ(sizes[12], 4u);
    ASSERT_EQ(recs.size(), 64u);
    for (uint32_t gid = 0; gid < 64; ++gid)
        EXPECT_EQ(recs[gid], (Rec{base + gid * 4, 4, true}));
}

TEST_F(MemTraceExecTest, DispatchWithoutSendsDeliversNothing)
{
    KernelBuilder b("nosend", 0);
    Reg r = b.reg();
    b.add(r, b.globalIds(), imm(1), 16);
    b.halt();
    KernelBinary bin = b.finish();

    std::vector<size_t> sizes;
    std::vector<Rec> recs;
    gpu::Dispatch d;
    d.binary = &bin;
    d.globalSize = 32;
    d.simdWidth = 16;
    exec.setMemTraceChunk(8);
    exec.run(d, gpu::Executor::Mode::Full, nullptr,
             [&](const MemBatch &bch) {
                 sizes.push_back(bch.count);
                 unpack(bch, recs);
             });
    EXPECT_TRUE(sizes.empty());
    EXPECT_TRUE(recs.empty());
}

TEST_F(MemTraceExecTest, LocalSendsExcludedIdenticallyToOracle)
{
    // One local store, one local load, one global store per lane:
    // only the global send may appear in the trace, in both modes.
    KernelBuilder b("slm", 1);
    Reg a = b.reg(), v = b.reg(), g = b.reg();
    b.shl(a, b.globalIds(), imm(2), 16);
    b.store(b.globalIds(), a, 4, 16, 0, isa::AddrSpace::Local);
    b.load(v, a, 4, 16, 0, isa::AddrSpace::Local);
    b.shl(g, b.globalIds(), imm(2), 16);
    b.add(g, g, b.arg(0), 16);
    b.store(v, g, 4, 16);
    b.halt();
    KernelBinary bin = b.finish();

    std::vector<size_t> sizes, oracle_sizes;
    std::vector<Rec> batch_recs, oracle_recs;
    runBatched(bin, 16, 8, sizes, batch_recs);
    // A one-record chunk delivers every access on its own.
    runBatched(bin, 16, 1, oracle_sizes, oracle_recs);
    EXPECT_EQ(oracle_sizes, std::vector<size_t>(16, 1));

    ASSERT_EQ(batch_recs.size(), 16u); // global stores only
    for (uint32_t lane = 0; lane < 16; ++lane)
        EXPECT_EQ(batch_recs[lane], (Rec{base + lane * 4, 4, true}));
    EXPECT_EQ(batch_recs, oracle_recs);
}

TEST_F(MemTraceExecTest, BothBackendsEmitIdenticalTraces)
{
    // The Switch and Uops interpreters share the sink plumbing; both
    // must produce the same ordered trace at any chunk size, and the
    // same trace as each other.
    KernelBinary bin = storeKernel();
    std::vector<Rec> per_backend[2];
    for (auto backend : {gpu::Executor::Backend::Switch,
                         gpu::Executor::Backend::Uops}) {
        exec.setBackend(backend);
        std::vector<size_t> sizes, oracle_sizes;
        std::vector<Rec> batch_recs, oracle_recs;
        runBatched(bin, 48, 7, sizes, batch_recs);
        runBatched(bin, 48, 1, oracle_sizes, oracle_recs);
        const bool uops = backend == gpu::Executor::Backend::Uops;
        EXPECT_EQ(batch_recs, oracle_recs) << (uops ? "uops" : "switch");
        per_backend[uops] = batch_recs;
    }
    EXPECT_EQ(per_backend[0], per_backend[1]);
}

// --- end-to-end GT-Pin differential ------------------------------------

/** Counters one profiled stack produces; must not depend on how the
 * trace is delivered. */
struct StackResult
{
    uint64_t hits, misses, writebacks;
    uint64_t bytesRead, bytesWritten, dynInstrs;
    bool operator==(const StackResult &) const = default;
};

/** How one profiled stack delivers its memory trace. */
enum class Delivery
{
    /** Reference: switch interpreter (never gangs), one-record
     * chunks, and a cache tool consuming them per access. */
    PerAccess,
    Chunked, //!< default uop executor, chunk size, bulk consumer
};

/** A cache tool consuming the trace through GtPinTool's default
 * onMemBatch(), which replays every record into onMemAccess(). */
class PerAccessCacheTool : public CacheSimTool
{
  public:
    using CacheSimTool::CacheSimTool;

    void
    onMemBatch(const gpu::MemBatch &batch) override
    {
        GtPinTool::onMemBatch(batch);
    }
};

/** Set @p driver's executor up for @p delivery. */
void
configure(ocl::GpuDriver &driver, Delivery delivery)
{
    if (delivery == Delivery::PerAccess) {
        driver.executor().setBackend(gpu::Executor::Backend::Switch);
        driver.executor().setMemTraceChunk(1);
    }
}

/**
 * Build a private driver + GT-Pin stack with @p delivery, dispatch
 * template @p tname twice (256 then 512 items), and collect every
 * counter.
 */
StackResult
runStack(const std::string &tname, Delivery delivery)
{
    workloads::TemplateJit jit;
    gpu::TrialConfig trial;
    trial.noiseSigma = 0.0;
    ocl::GpuDriver driver(gpu::DeviceConfig::hd4000(), jit, trial);
    configure(driver, delivery);

    std::unique_ptr<CacheSimTool> cache =
        delivery == Delivery::PerAccess
        ? std::make_unique<PerAccessCacheTool>(64 * 1024, 16, 64)
        : std::make_unique<CacheSimTool>(64 * 1024, 16, 64);
    MemBytesTool mem;
    BasicBlockCounterTool bb;
    GtPin pin;
    pin.addTool(cache.get());
    pin.addTool(&mem);
    pin.addTool(&bb);
    pin.attach(driver);

    ocl::ClRuntime rt(driver);
    ocl::Context ctx = rt.createContext();
    ocl::CommandQueue q = rt.createCommandQueue(ctx);
    isa::KernelSource src;
    src.name = tname + "_mt";
    src.templateName = tname;
    ocl::Program prog = rt.createProgramWithSource(ctx, {src});
    rt.buildProgram(prog);
    ocl::Kernel k = rt.createKernel(prog, src.name);
    ocl::Mem buf = rt.createBuffer(ctx, 1 << 20);
    const KernelBinary &bin = driver.binary(0);
    for (uint32_t a = 0; a < bin.numArgs; ++a)
        rt.setKernelArg(k, a, buf);
    rt.enqueueNDRangeKernel(q, k, 256);
    rt.enqueueNDRangeKernel(q, k, 512);
    rt.finish(q);
    pin.detach();

    return {cache->cache().hits(), cache->cache().misses(),
            cache->cache().writebacks(), mem.totalBytesRead(),
            mem.totalBytesWritten(), bb.totalDynInstrs()};
}

TEST(GtPinMemTrace, BatchBitwiseIdenticalToCallbackOracle)
{
    for (const char *tname : {"stream", "blur", "hash", "histogram"}) {
        StackResult callback = runStack(tname, Delivery::PerAccess);
        StackResult batch = runStack(tname, Delivery::Chunked);
        EXPECT_EQ(batch, callback) << tname;
        EXPECT_GT(batch.hits + batch.misses, 0u) << tname;
    }
}

TEST(GtPinMemTrace, ParallelStacksMatchSerialBitwise)
{
    // Private stacks share no mutable state, so N concurrent batched
    // profiles must be bitwise identical to serial ones (the 1-vs-N
    // determinism the pipeline layer relies on).
    const std::vector<std::string> tnames = {"stream", "blur", "hash",
                                             "julia", "effect",
                                             "blend"};
    std::vector<StackResult> serial(tnames.size());
    for (size_t i = 0; i < tnames.size(); ++i)
        serial[i] = runStack(tnames[i], Delivery::Chunked);

    std::vector<StackResult> parallel(tnames.size());
    sched::ThreadPool pool(4);
    pool.parallelFor(
        tnames.size(),
        [&](size_t i) {
            parallel[i] = runStack(tnames[i], Delivery::Chunked);
        },
        1);

    for (size_t i = 0; i < tnames.size(); ++i)
        EXPECT_EQ(parallel[i], serial[i]) << tnames[i];
}

TEST(GtPinMemTrace, ProfilesIdenticalAcrossModes)
{
    // The DispatchResult profile (executor ground truth) must not
    // depend on the trace delivery either.
    auto profile_of = [](Delivery delivery) {
        workloads::TemplateJit jit;
        gpu::TrialConfig trial;
        trial.noiseSigma = 0.0;
        ocl::GpuDriver driver(gpu::DeviceConfig::hd4000(), jit, trial);
        configure(driver, delivery);
        CacheSimTool cache;
        GtPin pin;
        pin.addTool(&cache);
        pin.attach(driver);

        ocl::ClRuntime rt(driver);
        ocl::Context ctx = rt.createContext();
        ocl::CommandQueue q = rt.createCommandQueue(ctx);
        isa::KernelSource src;
        src.name = "prof";
        src.templateName = "nbody";
        ocl::Program prog = rt.createProgramWithSource(ctx, {src});
        rt.buildProgram(prog);
        ocl::Kernel k = rt.createKernel(prog, "prof");
        ocl::Mem buf = rt.createBuffer(ctx, 1 << 20);
        const KernelBinary &bin = driver.binary(0);
        for (uint32_t a = 0; a < bin.numArgs; ++a)
            rt.setKernelArg(k, a, buf);

        ocl::DispatchResult last;
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
        rt.enqueueNDRangeKernel(q, k, 256);
        rt.finish(q);
        rt.removeObserver(&grab);
        pin.detach();
        return last;
    };

    ocl::DispatchResult callback = profile_of(Delivery::PerAccess);
    ocl::DispatchResult batch = profile_of(Delivery::Chunked);
    EXPECT_EQ(batch.profile.dynInstrs, callback.profile.dynInstrs);
    EXPECT_EQ(batch.profile.bytesRead, callback.profile.bytesRead);
    EXPECT_EQ(batch.profile.bytesWritten,
              callback.profile.bytesWritten);
    EXPECT_EQ(batch.profile.blockCounts, callback.profile.blockCounts);
    EXPECT_EQ(batch.profile.threadCycles, callback.profile.threadCycles);
}

} // anonymous namespace
} // namespace gt::gtpin
