/**
 * @file
 * Columnar trace-store tests: every accessor of a sealed database
 * must be bitwise identical to the TraceDatabase::Builder holding
 * the same joined rows resident, the varint
 * encoder must round-trip its continuation boundaries exactly, and
 * truncated or corrupt files must fail with FatalError, never a
 * wild read — on synthetic traces, on every builtin kernel
 * template, and end-to-end through exploreConfigs at 1, 4, and
 * hardware thread counts.
 */

#include <cstdio>
#include <cstring>
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

constexpr uint32_t numSyntheticKernels = 5;

/** Kernel @p kernel_id's static row: the name and per-block arrays
 * every dispatch of it shares. */
gtpin::KernelStatic
makeKernel(uint32_t kernel_id, Rng &rng)
{
    gtpin::KernelStatic k;
    k.name = "kern_" + std::to_string(kernel_id);
    size_t blocks = rng.next() % 7; // including block-free kernels
    for (size_t b = 0; b < blocks; ++b) {
        k.blockLens.push_back((uint32_t)(rng.next() % 64));
        k.blockReadBytes.push_back((uint32_t)(rng.next() % 4096));
        k.blockWriteBytes.push_back((uint32_t)(rng.next() % 4096));
    }
    return k;
}

gtpin::DispatchProfile
makeProfile(uint64_t seq, uint64_t instrs, uint32_t kernel_id,
            size_t blocks, Rng &rng)
{
    gtpin::DispatchProfile p;
    p.seq = seq;
    p.kernelId = kernel_id;
    p.globalWorkSize = 16 + (rng.next() % 4096);
    p.argsHash = rng.next();
    p.args.resize(rng.next() % 5);
    for (uint32_t &a : p.args)
        a = (uint32_t)rng.next();
    p.instrs = instrs;
    p.blockCounts.resize(blocks);
    for (uint64_t &count : p.blockCounts)
        count = rng.next() % 100000;
    p.bytesRead = rng.next() % (1ull << 40);
    p.bytesWritten = rng.next() % (1ull << 33);
    return p;
}

/** A deterministic joined input: @p n dispatches of five kernels, a
 * sync roughly every @p sync_every kernels, instruction counts
 * sweeping the varint continuation boundaries. */
struct SyntheticTrace
{
    std::vector<gtpin::DispatchProfile> profiles;
    std::shared_ptr<const gtpin::KernelTable> kernels;
    std::vector<cfl::KernelTiming> timings;
    std::vector<ocl::ApiCallRecord> calls;

    /** A copy of the profiles with their table, as build() takes. */
    gtpin::ProfileSet set() const { return {profiles, kernels}; }
};

SyntheticTrace
makeTrace(uint64_t n, uint64_t sync_every, uint64_t seed = 1234)
{
    // Land exactly on the LEB128 group boundaries too.
    const uint64_t boundary[] = {0,   1,          127,
                                 128, (1u << 14), (1ull << 32)};
    Rng rng(seed);
    SyntheticTrace t;
    auto kernels = std::make_shared<gtpin::KernelTable>();
    for (uint32_t k = 0; k < numSyntheticKernels; ++k)
        kernels->set(k, makeKernel(k, rng));
    t.kernels = kernels;
    uint64_t idx = 0;
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t instrs = (i % 7 == 3)
                              ? boundary[i % 6]
                              : rng.next() % (1ull << 20);
        auto kernel = (uint32_t)(i % numSyntheticKernels);
        t.profiles.push_back(makeProfile(
            i, instrs, kernel, kernels->at(kernel).numBlocks(), rng));

        cfl::KernelTiming timing;
        timing.seq = i;
        timing.kernelName = kernels->at(kernel).name;
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
    EXPECT_EQ(a.globalWorkSize, b.globalWorkSize);
    EXPECT_EQ(a.argsHash, b.argsHash);
    EXPECT_EQ(a.args, b.args);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.blockCounts, b.blockCounts);
    EXPECT_EQ(a.bytesRead, b.bytesRead);
    EXPECT_EQ(a.bytesWritten, b.bytesWritten);
}

/** Every public accessor of @p db against the resident rows of
 * @p ref, the builder fed the same joined dispatches, bitwise. */
void
expectMatchesBuilder(const TraceDatabase::Builder &ref,
                     const TraceDatabase &db)
{
    const uint64_t n = ref.numAppended();
    ASSERT_EQ(n, db.numDispatches());
    if (n > 0)
        EXPECT_EQ(ref.kernels(), db.kernels());
    EXPECT_EQ(ref.totalInstrs(), db.totalInstrs());
    EXPECT_EQ(ref.totalSeconds(), db.totalSeconds()); // bitwise
    EXPECT_EQ(n > 0 ? ref.syncEpoch(n - 1) + 1 : 0, db.numSyncEpochs());
    if (ref.totalInstrs() > 0) {
        EXPECT_EQ(ref.totalSeconds() / (double)ref.totalInstrs(),
                  db.measuredSpi()); // bitwise
    }

    for (uint64_t i = 0; i < n; ++i) {
        EXPECT_EQ(ref.seconds(i), db.seconds(i)); // bitwise
        EXPECT_EQ(ref.seconds(i), db.secondsData()[i]);
        EXPECT_EQ(ref.syncEpoch(i), db.syncEpoch(i));
        expectProfilesEqual(ref.profileAt(i), db.profileAt(i));
    }

    // Ranges of every small width from every start: crosses every
    // block boundary both inside and at the edges.
    for (uint64_t width : {0u, 1u, 2u, 3u, 4u, 7u, 16u, 63u}) {
        for (uint64_t first = 0; first < n; ++first) {
            uint64_t last = std::min(n - 1, first + width);
            EXPECT_EQ(ref.rangeInstrs(first, last),
                      db.rangeInstrs(first, last));
            EXPECT_EQ(ref.rangeSeconds(first, last),
                      db.rangeSeconds(first, last)); // bitwise
        }
    }
    if (n > 0) {
        EXPECT_EQ(ref.rangeInstrs(0, n - 1), ref.totalInstrs());
        EXPECT_EQ(db.rangeInstrs(0, n - 1), db.totalInstrs());
    }
}

/** The builder fed @p profiles joined with @p timings and the epochs
 * of @p calls, one appendJoined() per dispatch. */
TraceDatabase::Builder
joinedBuilder(gtpin::ProfileSet profiles,
              const std::vector<cfl::KernelTiming> &timings,
              const std::vector<ocl::ApiCallRecord> &calls)
{
    EpochAssignments epochs = assignEpochs(calls);
    TraceDatabase::Builder builder;
    builder.useKernels(profiles.kernels);
    for (size_t i = 0; i < profiles.dispatches.size(); ++i) {
        builder.appendJoined(std::move(profiles.dispatches[i]),
                             timings[i].seconds, epochs[i].second);
    }
    return builder;
}

TraceDatabase::Builder
referenceOf(const SyntheticTrace &t)
{
    return joinedBuilder(t.set(), t.timings, t.calls);
}

TraceDatabase
buildFrom(const SyntheticTrace &t,
          uint32_t block_size = trace_store::defaultBlockSize)
{
    return TraceDatabase::build(t.set(), t.timings, t.calls,
                                block_size);
}

TEST(TraceStore, EmptyWorkload)
{
    setLogQuiet(true);
    SyntheticTrace t;
    TraceDatabase db = buildFrom(t);
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
    TraceDatabase col = buildFrom(t);
    expectMatchesBuilder(referenceOf(t), col);
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
    expectMatchesBuilder(referenceOf(t), buildFrom(t, GetParam()));
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
    TraceDatabase::Builder ref = referenceOf(t);
    TraceDatabase col = ref.seal();

    TraceDbFootprint fc = col.memoryFootprint();
    EXPECT_GT(fc.fileBytes, 0u);
    EXPECT_GT(fc.profileBytes, 0u);
    EXPECT_EQ(fc.residentBytes, fc.columnBytes + fc.cacheBytes);
    // The resident reduction against the builder, which holds the
    // joined rows resident, is the point of the store.
    EXPECT_LT(fc.residentBytes, ref.memoryBytes() / 5);
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
        trace_store::ColumnarStore::spill(records, *t.kernels, options);
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
    TraceDatabase live = buildFrom(t);
    (void)live.profileAt(0);
    uint64_t with_live = trace_store::threadCacheResidentBytes();
    EXPECT_GT(with_live, 0u);

    {
        TraceDatabase dead = buildFrom(t);
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

    expectMatchesBuilder(referenceOf(t), live);
    setLogQuiet(false);
}

TEST(TraceStore, ConcurrentReadersSeeIdenticalData)
{
    setLogQuiet(true);
    SyntheticTrace t = makeTrace(300, 10);
    const TraceDatabase::Builder ref = referenceOf(t);
    TraceDatabase col = buildFrom(t, 8);

    // Each thread walks a different stride so block decodes overlap
    // and interleave across the shared store.
    auto walk = [&](uint64_t stride) {
        for (uint64_t pass = 0; pass < 4; ++pass) {
            for (uint64_t i = pass; i < col.numDispatches();
                 i += stride) {
                ASSERT_EQ(col.profileAt(i).instrs,
                          ref.profileAt(i).instrs);
                ASSERT_EQ(col.seconds(i), ref.seconds(i));
                ASSERT_EQ(col.rangeInstrs(0, i),
                          ref.rangeInstrs(0, i));
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

    /** Write the synthetic trace's joined records to `path`, with
     * @p kernels as the table (the trace's own by default). */
    std::vector<DispatchRecord>
    writeRecords(uint64_t n, const gtpin::KernelTable *kernels = nullptr)
    {
        SyntheticTrace t = makeTrace(n, 7);
        table = t.kernels;
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
        trace_store::ColumnarStore::writeFile(
            records, kernels ? *kernels : *t.kernels, path, options);
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

    /** Patch the header's 64-bit field at byte @p offset. */
    void
    patchHeader(size_t offset, uint64_t value)
    {
        std::vector<uint8_t> bytes = readAll();
        std::memcpy(bytes.data() + offset, &value, sizeof(value));
        writeAll(bytes);
    }

    std::string path;
    std::shared_ptr<const gtpin::KernelTable> table; //!< trace's own
};

/** The FatalError message of opening `path` and decoding every
 * profile, or "" if all of it succeeds. */
std::string
openAndDecodeError(const std::string &path)
{
    try {
        auto store = trace_store::ColumnarStore::openFile(path);
        for (uint64_t i = 0; i < store->numDispatches(); ++i)
            (void)store->profileAt(i);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

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
    EXPECT_EQ(store->kernels(), *table);
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

// Header field offsets (FileHeader in trace_store.cc): the version
// follows the 8-byte magic; sectionLen[] starts at byte 80, and the
// kernel table is section 3.
constexpr size_t versionOffset = 8;
constexpr size_t kernelTableLenOffset = 80 + 3 * 8;

TEST_F(StoreFileTest, PreviousVersionIsFatalAndNamesBothVersions)
{
    setLogQuiet(true);
    writeRecords(10);
    std::vector<uint8_t> bytes = readAll();
    uint32_t previous = 1;
    std::memcpy(bytes.data() + versionOffset, &previous,
                sizeof(previous));
    writeAll(bytes);
    std::string msg = openAndDecodeError(path);
    EXPECT_NE(msg.find("format version 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("reads version 2"), std::string::npos) << msg;
    setLogQuiet(false);
}

TEST_F(StoreFileTest, RowOfAKernelMissingFromTheTableIsFatal)
{
    setLogQuiet(true);
    // Kernel 3 has no row: ids 0-2 only.
    gtpin::KernelTable partial;
    for (uint32_t k = 0; k < 3; ++k)
        partial.set(k, makeTrace(0, 1).kernels->at(k));
    writeRecords(20, &partial);
    std::string msg = openAndDecodeError(path);
    EXPECT_NE(msg.find("kernelId 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("missing from the kernel table"),
              std::string::npos)
        << msg;
    setLogQuiet(false);
}

TEST_F(StoreFileTest, RowBlockCountOtherThanItsKernelsIsFatal)
{
    setLogQuiet(true);
    // Kernel 2's row gains a block its dispatches do not count.
    gtpin::KernelTable wider = *makeTrace(0, 1).kernels;
    gtpin::KernelStatic row = wider.at(2);
    row.blockLens.push_back(1);
    row.blockReadBytes.push_back(0);
    row.blockWriteBytes.push_back(0);
    wider.set(2, row);
    writeRecords(20, &wider);
    std::string msg = openAndDecodeError(path);
    EXPECT_NE(msg.find("blockCounts of dispatch 2 "), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("kernel 2 has " +
                       std::to_string(row.numBlocks()) + " blocks"),
              std::string::npos)
        << msg;
    setLogQuiet(false);
}

TEST_F(StoreFileTest, TruncatedKernelTableIsFatal)
{
    setLogQuiet(true);
    writeRecords(20);
    std::vector<uint8_t> bytes = readAll();
    uint64_t len = 0;
    std::memcpy(&len, bytes.data() + kernelTableLenOffset, sizeof(len));
    ASSERT_GT(len, 1u);
    // Each cut leaves a table that ends inside a field: a varint, a
    // name, or a count larger than the bytes left to hold it.
    for (uint64_t keep : {len - 1, len / 2, uint64_t{1}}) {
        patchHeader(kernelTableLenOffset, keep);
        std::string msg = openAndDecodeError(path);
        EXPECT_NE(msg.find("trace store kernel table: "),
                  std::string::npos)
            << "kept " << keep << ": " << msg;
    }
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

    // The in-memory reference is the builder holding the joined rows.
    auto profiles = tool.takeProfiles();
    TraceDatabase::Builder ref = joinedBuilder(
        profiles, tracer.kernelTimings(), tracer.callStream());
    // Block size 2: the three dispatches straddle a block boundary.
    TraceDatabase col = TraceDatabase::build(
        std::move(profiles), tracer.kernelTimings(),
        tracer.callStream(), 2);
    EXPECT_EQ(col.numDispatches(), 3u);
    EXPECT_EQ(col.numSyncEpochs(), 2u);
    expectMatchesBuilder(ref, col);
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

    // replayTrial's database against a builder fed the rows of a
    // second, independent replay of the same trial.
    gpu::TrialConfig trial; // profileApp's default
    InstrumentedStack stack(gpu::DeviceConfig::hd4000(), trial);
    cfl::replay(app.recording, stack.runtime);
    ReplayArtifact replayed = stack.takeArtifact();
    TraceDatabase::Builder ref = joinedBuilder(
        std::move(replayed.profiles), replayed.timings, replayed.calls);
    TraceDatabase col =
        replayTrial(app.recording, gpu::DeviceConfig::hd4000(), trial);
    expectMatchesBuilder(ref, col);

    auto explore = [](const TraceDatabase &db, unsigned threads) {
        sched::ThreadPool pool(threads);
        simpoint::ClusterOptions options;
        options.pool = &pool;
        FeatureEngine engine(db);
        return exploreConfigs(db, options, 0, &engine);
    };

    // One dispatch per block: every interval spans block boundaries.
    Exploration want = explore(ref.seal(1), 1);
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
