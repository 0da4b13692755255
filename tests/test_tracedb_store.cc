/**
 * @file
 * Columnar trace-store tests: the on-disk backend must be bitwise
 * identical to the in-memory oracle on every accessor, the varint
 * encoder must round-trip its continuation boundaries exactly, and
 * truncated or corrupt files must fail with FatalError, never a
 * wild read — on synthetic traces, on every builtin kernel
 * template, and end-to-end through exploreConfigs at 1, 4, and
 * hardware thread counts.
 */

#include <cstdio>
#include <thread>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/varint.hh"
#include "core/explorer.hh"
#include "core/feature_engine.hh"
#include "core/pipeline.hh"
#include "core/trace_db.hh"
#include "core/trace_store.hh"
#include "ocl/runtime.hh"
#include "temp_path.hh"
#include "workloads/templates.hh"
#include "workloads/workload.hh"

namespace gt::core
{
namespace
{

// --- varint boundaries -------------------------------------------

TEST(Varint, RoundTripsContinuationBoundaries)
{
    // One value per interesting width: each 7-bit group boundary
    // (127/128, 2^14 - 1 / 2^14), the 2^32 seam, and the 64-bit top.
    const std::pair<uint64_t, size_t> cases[] = {
        {0, 1},
        {1, 1},
        {127, 1},
        {128, 2},
        {129, 2},
        {(1u << 14) - 1, 2},
        {1u << 14, 3},
        {(1ull << 32) - 1, 5},
        {1ull << 32, 5},
        {(1ull << 35) - 1, 5},
        {1ull << 35, 6},
        {UINT64_MAX, 10},
    };
    for (const auto &[value, bytes] : cases) {
        std::vector<uint8_t> buf;
        putVarint(buf, value);
        EXPECT_EQ(buf.size(), bytes) << value;
        ByteReader reader(buf.data(), buf.data() + buf.size(),
                          "test");
        EXPECT_EQ(reader.getVarint(), value);
        reader.expectDone();
    }
    // All cases packed back to back decode in order.
    std::vector<uint8_t> buf;
    for (const auto &[value, bytes] : cases)
        putVarint(buf, value);
    ByteReader reader(buf.data(), buf.data() + buf.size(), "test");
    for (const auto &[value, bytes] : cases)
        EXPECT_EQ(reader.getVarint(), value);
    reader.expectDone();
}

TEST(Varint, TruncationAndOverflowAreFatal)
{
    setLogQuiet(true);
    std::vector<uint8_t> buf;
    putVarint(buf, 1ull << 32);
    {
        // Drop the terminating byte: the continuation bit now runs
        // off the region.
        ByteReader reader(buf.data(), buf.data() + buf.size() - 1,
                          "test");
        EXPECT_THROW(reader.getVarint(), FatalError);
    }
    {
        std::vector<uint8_t> wide(11, 0xff);
        ByteReader reader(wide.data(), wide.data() + wide.size(),
                          "test");
        EXPECT_THROW(reader.getVarint(), FatalError);
    }
    {
        std::vector<uint8_t> one{42};
        ByteReader reader(one.data(), one.data() + one.size(),
                          "test");
        EXPECT_THROW(reader.getBytes(nullptr, 2), FatalError);
    }
    {
        std::vector<uint8_t> big;
        putVarint(big, 1000);
        ByteReader reader(big.data(), big.data() + big.size(),
                          "test");
        EXPECT_THROW(reader.getCount(999), FatalError);
    }
    {
        std::vector<uint8_t> two{1, 2};
        ByteReader reader(two.data(), two.data() + two.size(),
                          "test");
        reader.getVarint();
        EXPECT_THROW(reader.expectDone(), FatalError);
    }
    setLogQuiet(false);
}

// --- synthetic traces --------------------------------------------

gtpin::DispatchProfile
makeProfile(uint64_t seq, uint64_t instrs, uint32_t kernel_id,
            Rng &rng)
{
    gtpin::DispatchProfile p;
    p.seq = seq;
    p.kernelId = kernel_id;
    p.kernelName = "kern_" + std::to_string(kernel_id);
    p.globalWorkSize = 16 + (rng.next() % 4096);
    p.argsHash = rng.next();
    p.args.resize(rng.next() % 5);
    for (uint32_t &a : p.args)
        a = (uint32_t)rng.next();
    p.instrs = instrs;
    size_t blocks = rng.next() % 7; // including block-free kernels
    p.blockCounts.resize(blocks);
    p.blockLens.resize(blocks);
    p.blockReadBytes.resize(blocks);
    p.blockWriteBytes.resize(blocks);
    for (size_t b = 0; b < blocks; ++b) {
        p.blockCounts[b] = rng.next() % 100000;
        p.blockLens[b] = (uint32_t)(rng.next() % 64);
        p.blockReadBytes[b] = (uint32_t)(rng.next() % 4096);
        p.blockWriteBytes[b] = (uint32_t)(rng.next() % 4096);
    }
    p.bytesRead = rng.next() % (1ull << 40);
    p.bytesWritten = rng.next() % (1ull << 33);
    return p;
}

/** A deterministic joined input: @p n dispatches, a sync roughly
 * every @p sync_every kernels, instruction counts sweeping the
 * varint continuation boundaries. */
struct SyntheticTrace
{
    std::vector<gtpin::DispatchProfile> profiles;
    std::vector<cfl::KernelTiming> timings;
    std::vector<ocl::ApiCallRecord> calls;
};

SyntheticTrace
makeTrace(uint64_t n, uint64_t sync_every, uint64_t seed = 1234)
{
    // Land exactly on the LEB128 group boundaries too.
    const uint64_t boundary[] = {0,   1,          127,
                                 128, (1u << 14), (1ull << 32)};
    Rng rng(seed);
    SyntheticTrace t;
    uint64_t idx = 0;
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t instrs = (i % 7 == 3)
                              ? boundary[i % 6]
                              : rng.next() % (1ull << 20);
        t.profiles.push_back(
            makeProfile(i, instrs, (uint32_t)(i % 5), rng));

        cfl::KernelTiming timing;
        timing.seq = i;
        timing.kernelName = t.profiles.back().kernelName;
        // Full-entropy mantissas so any re-summation drift or byte
        // swap in the seconds column shows up as bitwise inequality.
        timing.seconds =
            (double)(rng.next() >> 11) * 0x1.0p-53 * 1e-3;
        t.timings.push_back(timing);

        ocl::ApiCallRecord call;
        call.callIndex = idx++;
        call.id = ocl::ApiCallId::EnqueueNDRangeKernel;
        call.dispatchSeq = i;
        t.calls.push_back(call);
        if ((i + 1) % sync_every == 0) {
            ocl::ApiCallRecord sync;
            sync.callIndex = idx++;
            sync.id = ocl::ApiCallId::Finish;
            t.calls.push_back(sync);
        }
    }
    return t;
}

void
expectProfilesEqual(const gtpin::DispatchProfile &a,
                    const gtpin::DispatchProfile &b)
{
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.kernelId, b.kernelId);
    EXPECT_EQ(a.kernelName, b.kernelName);
    EXPECT_EQ(a.globalWorkSize, b.globalWorkSize);
    EXPECT_EQ(a.argsHash, b.argsHash);
    EXPECT_EQ(a.args, b.args);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.blockCounts, b.blockCounts);
    EXPECT_EQ(a.blockLens, b.blockLens);
    EXPECT_EQ(a.blockReadBytes, b.blockReadBytes);
    EXPECT_EQ(a.blockWriteBytes, b.blockWriteBytes);
    EXPECT_EQ(a.bytesRead, b.bytesRead);
    EXPECT_EQ(a.bytesWritten, b.bytesWritten);
}

/** Every public accessor, both backends, bitwise. */
void
expectDatabasesEqual(const TraceDatabase &mem,
                     const TraceDatabase &col)
{
    ASSERT_EQ(mem.numDispatches(), col.numDispatches());
    EXPECT_EQ(mem.totalInstrs(), col.totalInstrs());
    EXPECT_EQ(mem.totalSeconds(), col.totalSeconds()); // bitwise
    EXPECT_EQ(mem.numSyncEpochs(), col.numSyncEpochs());
    if (mem.totalInstrs() > 0)
        EXPECT_EQ(mem.measuredSpi(), col.measuredSpi()); // bitwise

    const uint64_t n = mem.numDispatches();
    for (uint64_t i = 0; i < n; ++i) {
        EXPECT_EQ(mem.seconds(i), col.seconds(i)); // bitwise
        EXPECT_EQ(mem.secondsData()[i], col.secondsData()[i]);
        EXPECT_EQ(mem.syncEpoch(i), col.syncEpoch(i));
        expectProfilesEqual(mem.profileAt(i), col.profileAt(i));
    }

    // Ranges of every small width from every start: crosses every
    // block boundary both inside and at the edges.
    for (uint64_t width : {0u, 1u, 2u, 3u, 4u, 7u, 16u, 63u}) {
        for (uint64_t first = 0; first < n; ++first) {
            uint64_t last = std::min(n - 1, first + width);
            EXPECT_EQ(mem.rangeInstrs(first, last),
                      col.rangeInstrs(first, last));
            EXPECT_EQ(mem.rangeSeconds(first, last),
                      col.rangeSeconds(first, last)); // bitwise
        }
    }
    if (n > 0) {
        EXPECT_EQ(mem.rangeInstrs(0, n - 1), mem.totalInstrs());
        EXPECT_EQ(col.rangeInstrs(0, n - 1), col.totalInstrs());
    }
}

TraceDatabase
buildFrom(const SyntheticTrace &t, TraceDbBackend backend,
          uint32_t block_size = trace_store::defaultBlockSize)
{
    auto profiles = t.profiles; // build() consumes them
    return TraceDatabase::build(std::move(profiles), t.timings,
                                t.calls, backend, block_size);
}

TEST(TraceStore, EmptyWorkload)
{
    setLogQuiet(true);
    SyntheticTrace t;
    TraceDatabase db = buildFrom(t, TraceDbBackend::Columnar);
    EXPECT_EQ(db.numDispatches(), 0u);
    EXPECT_EQ(db.totalInstrs(), 0u);
    EXPECT_EQ(db.totalSeconds(), 0.0);
    EXPECT_EQ(db.numSyncEpochs(), 0u);
    EXPECT_THROW(db.measuredSpi(), PanicError);
    EXPECT_EQ(db.memoryFootprint().fileBytes, 0u);
    setLogQuiet(false);
}

TEST(TraceStore, SingleDispatch)
{
    setLogQuiet(true);
    SyntheticTrace t = makeTrace(1, 1);
    TraceDatabase mem = buildFrom(t, TraceDbBackend::Mem);
    TraceDatabase col = buildFrom(t, TraceDbBackend::Columnar);
    expectDatabasesEqual(mem, col);
    EXPECT_EQ(col.backend(), TraceDbBackend::Columnar);
    EXPECT_GT(col.memoryFootprint().fileBytes, 0u);
    setLogQuiet(false);
}

class BlockSizeTest : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BlockSizeTest, SyntheticDifferentialBitwise)
{
    setLogQuiet(true);
    // 421 dispatches: prime, so it never divides evenly into blocks
    // and the last block is always partial.
    SyntheticTrace t = makeTrace(421, 13);
    TraceDatabase mem = buildFrom(t, TraceDbBackend::Mem);
    TraceDatabase col =
        buildFrom(t, TraceDbBackend::Columnar, GetParam());
    expectDatabasesEqual(mem, col);
    setLogQuiet(false);
}

// Block size 1 (every dispatch its own block), tiny sizes around
// the range widths above, one that divides 421's neighbors, and the
// default.
INSTANTIATE_TEST_SUITE_P(Sizes, BlockSizeTest,
                         ::testing::Values(1u, 3u, 4u, 64u, 256u),
                         [](const auto &info) {
                             return "block" +
                                    std::to_string(info.param);
                         });

TEST(TraceStore, FootprintShrinksAndIsAccounted)
{
    setLogQuiet(true);
    SyntheticTrace t = makeTrace(4096, 32);
    TraceDatabase mem = buildFrom(t, TraceDbBackend::Mem);
    TraceDatabase col = buildFrom(t, TraceDbBackend::Columnar);

    TraceDbFootprint fm = mem.memoryFootprint();
    TraceDbFootprint fc = col.memoryFootprint();
    EXPECT_EQ(fm.fileBytes, 0u);
    EXPECT_EQ(fm.residentBytes,
              fm.recordBytes + fm.profileBytes + fm.columnBytes);
    EXPECT_GT(fm.recordBytes, 0u);
    EXPECT_GT(fm.profileBytes, 0u);

    EXPECT_GT(fc.fileBytes, 0u);
    EXPECT_GT(fc.profileBytes, 0u);
    EXPECT_EQ(fc.recordBytes, 0u);
    // The resident reduction is the point of the backend.
    EXPECT_LT(fc.residentBytes, fm.residentBytes / 5);
    // Touch a profile: the thread cache now holds a decoded block.
    (void)col.profileAt(0);
    EXPECT_GT(col.memoryFootprint().cacheBytes, 0u);
    setLogQuiet(false);
}

TEST(TraceStore, MissingSpillDirIsFatalAndNamesThePath)
{
    setLogQuiet(true);
    SyntheticTrace t = makeTrace(8, 4);
    std::vector<DispatchRecord> records(t.profiles.size());
    for (size_t i = 0; i < records.size(); ++i) {
        records[i].profile = t.profiles[i];
        records[i].seconds = t.timings[i].seconds;
    }
    trace_store::ColumnarOptions options;
    options.spillDir = test::uniqueTempPath(".absent") + "/no/such/dir";
    try {
        trace_store::ColumnarStore::spill(records, options);
        ADD_FAILURE() << "spill into a missing directory succeeded";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find(options.spillDir), std::string::npos) << msg;
        EXPECT_NE(msg.find("GT_TRACEDB_DIR"), std::string::npos) << msg;
    }
    setLogQuiet(false);
}

TEST(TraceStore, ThreadCacheDropsSlotsOfDestroyedStores)
{
    setLogQuiet(true);
    SyntheticTrace t = makeTrace(256, 16);
    TraceDatabase live = buildFrom(t, TraceDbBackend::Columnar);
    (void)live.profileAt(0);
    uint64_t with_live = trace_store::threadCacheResidentBytes();
    EXPECT_GT(with_live, 0u);

    {
        TraceDatabase dead = buildFrom(t, TraceDbBackend::Columnar);
        (void)dead.profileAt(0);
        (void)dead.profileAt(200);
        // Two stores' decoded blocks coexist in this thread's cache.
        EXPECT_GT(trace_store::threadCacheResidentBytes(),
                  with_live);
    }

    // Destroying a store invalidates its slots; the surviving
    // store's stay resident and serviceable.
    EXPECT_EQ(trace_store::threadCacheResidentBytes(), with_live);
    expectProfilesEqual(live.profileAt(100), t.profiles[100]);

    TraceDatabase mem = buildFrom(t, TraceDbBackend::Mem);
    expectDatabasesEqual(mem, live);
    setLogQuiet(false);
}

TEST(TraceStore, ConcurrentReadersSeeIdenticalData)
{
    setLogQuiet(true);
    SyntheticTrace t = makeTrace(300, 10);
    TraceDatabase mem = buildFrom(t, TraceDbBackend::Mem);
    TraceDatabase col = buildFrom(t, TraceDbBackend::Columnar, 8);

    // Each thread walks a different stride so block decodes overlap
    // and interleave across the shared store.
    auto walk = [&](uint64_t stride) {
        for (uint64_t pass = 0; pass < 4; ++pass) {
            for (uint64_t i = pass; i < col.numDispatches();
                 i += stride) {
                ASSERT_EQ(col.profileAt(i).instrs,
                          mem.profileAt(i).instrs);
                ASSERT_EQ(col.seconds(i), mem.seconds(i));
                ASSERT_EQ(col.rangeInstrs(0, i),
                          mem.rangeInstrs(0, i));
            }
        }
    };
    std::vector<std::thread> threads;
    for (uint64_t s : {1u, 2u, 3u, 5u})
        threads.emplace_back(walk, s);
    for (auto &thread : threads)
        thread.join();
    setLogQuiet(false);
}

// --- the persistent file format ----------------------------------

class StoreFileTest : public ::testing::Test
{
  protected:
    StoreFileTest()
        : path(test::uniqueTempPath(".gtcol"))
    {
    }

    ~StoreFileTest() override { std::remove(path.c_str()); }

    /** Write the synthetic trace's joined records to `path`. */
    std::vector<DispatchRecord>
    writeRecords(uint64_t n)
    {
        SyntheticTrace t = makeTrace(n, 7);
        std::vector<DispatchRecord> records;
        uint64_t epoch = 0;
        for (uint64_t i = 0; i < n; ++i) {
            DispatchRecord rec;
            rec.profile = t.profiles[i];
            rec.seconds = t.timings[i].seconds;
            rec.syncEpoch = epoch;
            if ((i + 1) % 7 == 0)
                ++epoch;
            records.push_back(std::move(rec));
        }
        trace_store::ColumnarOptions options;
        options.blockSize = 16;
        trace_store::ColumnarStore::writeFile(records, path,
                                              options);
        return records;
    }

    std::vector<uint8_t>
    readAll()
    {
        FILE *f = std::fopen(path.c_str(), "rb");
        GT_ASSERT(f, "cannot reopen ", path);
        std::vector<uint8_t> bytes;
        uint8_t buf[4096];
        size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            bytes.insert(bytes.end(), buf, buf + got);
        std::fclose(f);
        return bytes;
    }

    void
    writeAll(const std::vector<uint8_t> &bytes)
    {
        FILE *f = std::fopen(path.c_str(), "wb");
        GT_ASSERT(f, "cannot rewrite ", path);
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
    }

    std::string path;
};

TEST_F(StoreFileTest, WriteOpenRoundTripsEveryField)
{
    setLogQuiet(true);
    auto records = writeRecords(100);
    auto store = trace_store::ColumnarStore::openFile(path);
    ASSERT_EQ(store->numDispatches(), records.size());
    uint64_t prefix = 0;
    for (uint64_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(store->seconds(i), records[i].seconds);
        EXPECT_EQ(store->syncEpoch(i), records[i].syncEpoch);
        EXPECT_EQ(store->instrPrefixAt(i), prefix);
        expectProfilesEqual(store->profileAt(i),
                            records[i].profile);
        prefix += records[i].profile.instrs;
    }
    EXPECT_EQ(store->instrPrefixAt(records.size()), prefix);
    EXPECT_EQ(store->totalInstrs(), prefix);
    setLogQuiet(false);
}

TEST_F(StoreFileTest, TruncatedFileIsFatal)
{
    setLogQuiet(true);
    writeRecords(100);
    std::vector<uint8_t> bytes = readAll();
    // Any truncation point must fail the header's fileBytes check
    // (or the header-size check) before any section is touched.
    for (size_t keep :
         {bytes.size() - 1, bytes.size() / 2, size_t{64}, size_t{0}}) {
        std::vector<uint8_t> cut(bytes.begin(),
                                 bytes.begin() + keep);
        writeAll(cut);
        EXPECT_THROW(trace_store::ColumnarStore::openFile(path),
                     FatalError)
            << "kept " << keep;
    }
    setLogQuiet(false);
}

TEST_F(StoreFileTest, BadMagicVersionAndPaddingAreFatal)
{
    setLogQuiet(true);
    writeRecords(10);
    std::vector<uint8_t> bytes = readAll();

    std::vector<uint8_t> mutated = bytes;
    mutated[0] ^= 0xff;
    writeAll(mutated);
    EXPECT_THROW(trace_store::ColumnarStore::openFile(path),
                 FatalError);

    // Version field sits right after the 8-byte magic.
    mutated = bytes;
    mutated[8] += 1;
    writeAll(mutated);
    EXPECT_THROW(trace_store::ColumnarStore::openFile(path),
                 FatalError);

    // Trailing garbage breaks the recorded-size check.
    mutated = bytes;
    mutated.push_back(0);
    writeAll(mutated);
    EXPECT_THROW(trace_store::ColumnarStore::openFile(path),
                 FatalError);
    setLogQuiet(false);
}

// --- every builtin kernel template -------------------------------

class TemplateDiff : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TemplateDiff, MemAndColumnarAgreeBitwise)
{
    setLogQuiet(true);
    workloads::TemplateJit jit;
    gpu::TrialConfig trial;
    trial.noiseSigma = 0.0;
    ocl::GpuDriver driver(gpu::DeviceConfig::hd4000(), jit, trial);

    gtpin::KernelProfileTool tool;
    gtpin::GtPin pin;
    pin.addTool(&tool);
    pin.attach(driver);

    ocl::ClRuntime rt(driver);
    cfl::ApiTracer tracer;
    rt.addObserver(&tracer);

    ocl::Context ctx = rt.createContext();
    ocl::CommandQueue q = rt.createCommandQueue(ctx);
    isa::KernelSource src;
    src.name = "td_" + GetParam();
    src.templateName = GetParam();
    src.params = {8};
    ocl::Program prog = rt.createProgramWithSource(ctx, {src});
    rt.buildProgram(prog);
    ocl::Kernel k = rt.createKernel(prog, src.name);
    ocl::Mem buf = rt.createBuffer(ctx, 1 << 20);
    const isa::KernelBinary &bin = driver.binary(0);
    for (uint32_t a = 0; a < bin.numArgs; ++a)
        rt.setKernelArg(k, a, buf);
    rt.enqueueNDRangeKernel(q, k, 64);
    rt.enqueueNDRangeKernel(q, k, 128);
    rt.finish(q);
    rt.enqueueNDRangeKernel(q, k, 64);
    rt.finish(q);
    pin.detach();

    auto profiles = tool.takeProfiles();
    auto copy = profiles;
    TraceDatabase mem = TraceDatabase::build(
        std::move(copy), tracer.kernelTimings(),
        tracer.callStream(), TraceDbBackend::Mem);
    // Block size 2: the three dispatches straddle a block boundary.
    TraceDatabase col = TraceDatabase::build(
        std::move(profiles), tracer.kernelTimings(),
        tracer.callStream(), TraceDbBackend::Columnar, 2);
    EXPECT_EQ(mem.numDispatches(), 3u);
    EXPECT_EQ(mem.numSyncEpochs(), 2u);
    expectDatabasesEqual(mem, col);
    setLogQuiet(false);
}

INSTANTIATE_TEST_SUITE_P(
    AllTemplates, TemplateDiff,
    ::testing::ValuesIn(workloads::builtinTemplates().templateNames()),
    [](const auto &info) { return info.param; });

// --- end-to-end exploration --------------------------------------

TEST(TraceStoreExplore, ExplorationBitwiseAcrossBackendsAndThreads)
{
    setLogQuiet(true);
    const workloads::Workload *w =
        workloads::findWorkload("cb-histogram-buffer");
    ASSERT_NE(w, nullptr);
    ProfiledApp app = profileApp(*w);

    gpu::TrialConfig trial; // profileApp's default
    TraceDatabase mem =
        replayTrial(app.recording, gpu::DeviceConfig::hd4000(),
                    trial, TraceDbBackend::Mem);
    TraceDatabase col =
        replayTrial(app.recording, gpu::DeviceConfig::hd4000(),
                    trial, TraceDbBackend::Columnar);
    expectDatabasesEqual(mem, col);

    auto explore = [](const TraceDatabase &db, unsigned threads) {
        sched::ThreadPool pool(threads);
        simpoint::ClusterOptions options;
        options.pool = &pool;
        FeatureEngine engine(db, FeatureBackend::Flat);
        return exploreConfigs(db, options, 0, &engine);
    };

    Exploration want = explore(mem, 1);
    for (unsigned threads :
         {1u, 4u, std::max(1u, std::thread::hardware_concurrency())}) {
        Exploration got = explore(col, threads);
        ASSERT_EQ(want.results.size(), got.results.size());
        for (size_t i = 0; i < want.results.size(); ++i) {
            const ConfigResult &a = want.results[i];
            const ConfigResult &b = got.results[i];
            EXPECT_EQ(a.selection.scheme, b.selection.scheme);
            EXPECT_EQ(a.selection.feature, b.selection.feature);
            EXPECT_EQ(a.selection.selected, b.selection.selected);
            EXPECT_EQ(a.selection.ratios,
                      b.selection.ratios); // bitwise
            EXPECT_EQ(a.selection.selectedInstrs,
                      b.selection.selectedInstrs);
            EXPECT_EQ(a.errorPct, b.errorPct); // bitwise
        }
    }
    setLogQuiet(false);
}

} // anonymous namespace
} // namespace gt::core
