/**
 * @file
 * Columnar trace-store benchmark: resident memory and exploration
 * query throughput of the sealed (on-disk columnar) TraceDatabase
 * against the TraceDatabase::Builder it is sealed from, which holds
 * every joined row resident.
 *
 * A large deterministic synthetic suite (hundreds of thousands of
 * joined dispatches) is fed to a builder once and sealed, then both
 * serve the paper's post-profiling access pattern — interval
 * building under all three schemes, feature lowering, whole-suite
 * extraction, per-dispatch profile scans, and a random mix of range
 * queries — with every result compared bitwise between the two.
 * Two gates are enforced:
 *
 *  - resident memory must shrink by at least 5x in the sealed
 *    database (that reduction is the store's reason to exist);
 *  - the sealed database's query phase must stay within 1.5x of the
 *    builder's wall clock.
 *
 *     cd /path/to/repo && build/bench/trace_store
 *
 * Pass --smoke for the smaller CI variant. Results land in
 * BENCH_tracedb.json.
 */

#include <chrono>
#include <iostream>

#include "bench/harness.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "core/feature_engine.hh"
#include "core/interval.hh"
#include "core/trace_db.hh"

using namespace gt;
using core::TraceDatabase;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

struct Inputs
{
    std::vector<gtpin::DispatchProfile> profiles;
    std::shared_ptr<const gtpin::KernelTable> kernels;
    std::vector<cfl::KernelTiming> timings;
    std::vector<ocl::ApiCallRecord> calls;
};

/** A deterministic joined suite shaped like the profiled CB apps:
 * a few dozen distinct kernels, each with its own static block
 * arrays, re-dispatched many times, small per-kernel block vectors,
 * syncs every handful of kernels. */
Inputs
makeInputs(uint64_t n)
{
    constexpr uint32_t numKernels = 48;
    Rng rng(0xbadc0ffee);
    Inputs in;
    auto kernels = std::make_shared<gtpin::KernelTable>();
    for (uint32_t kernel = 0; kernel < numKernels; ++kernel) {
        gtpin::KernelStatic k;
        k.name = "suite_kernel_" + std::to_string(kernel);
        for (size_t b = 0; b < 2 + kernel % 6; ++b) {
            k.blockLens.push_back(4 + (uint32_t)(rng.next() % 28));
            k.blockReadBytes.push_back((uint32_t)(rng.next() % 2048));
            k.blockWriteBytes.push_back((uint32_t)(rng.next() % 2048));
        }
        kernels->set(kernel, std::move(k));
    }
    in.kernels = kernels;
    in.profiles.reserve(n);
    in.timings.reserve(n);
    uint64_t idx = 0;
    for (uint64_t i = 0; i < n; ++i) {
        uint32_t kernel = (uint32_t)(rng.next() % numKernels);
        const gtpin::KernelStatic &k = kernels->at(kernel);
        gtpin::DispatchProfile p;
        p.seq = i;
        p.kernelId = kernel;
        p.globalWorkSize = 64 << (kernel % 6);
        p.argsHash = rng.next();
        p.args.resize(2 + kernel % 4);
        for (uint32_t &a : p.args)
            a = (uint32_t)rng.next();
        p.blockCounts.resize(k.numBlocks());
        for (size_t b = 0; b < k.numBlocks(); ++b) {
            p.blockCounts[b] = rng.next() % 50000;
            p.instrs += p.blockCounts[b] * k.blockLens[b];
            p.bytesRead += p.blockCounts[b] * k.blockReadBytes[b];
            p.bytesWritten += p.blockCounts[b] * k.blockWriteBytes[b];
        }
        in.profiles.push_back(std::move(p));

        cfl::KernelTiming t;
        t.seq = i;
        t.kernelName = k.name;
        t.seconds = (double)(rng.next() >> 11) * 0x1.0p-53 * 1e-3;
        in.timings.push_back(t);

        ocl::ApiCallRecord call;
        call.callIndex = idx++;
        call.id = ocl::ApiCallId::EnqueueNDRangeKernel;
        call.dispatchSeq = i;
        in.calls.push_back(call);
        if (rng.next() % 9 == 0) {
            ocl::ApiCallRecord sync;
            sync.callIndex = idx++;
            sync.id = ocl::ApiCallId::Finish;
            in.calls.push_back(sync);
        }
    }
    return in;
}

uint64_t
numRows(const TraceDatabase &db)
{
    return db.numDispatches();
}

uint64_t
numRows(const TraceDatabase::Builder &builder)
{
    return builder.numAppended();
}

/** One pass of the post-profiling access pattern over a database or
 * a builder (the same query surface); returns a checksum folding
 * every queried value, so the two can be compared and the work
 * cannot be dead-code-eliminated. */
template <typename Rows>
double
queryPass(const Rows &rows)
{
    const uint64_t n = numRows(rows);
    double checksum = 0.0;

    // Interval building under all three schemes (prefix queries),
    // fed as buildIntervals() feeds its incremental core.
    std::vector<core::Interval> kept;
    for (core::IntervalScheme scheme :
         {core::IntervalScheme::SyncBounded,
          core::IntervalScheme::ApproxInstructions,
          core::IntervalScheme::SingleKernel}) {
        core::IncrementalIntervals inc(
            scheme, std::max<uint64_t>(1, rows.totalInstrs() / 1000));
        for (uint64_t d = 0; d < n; ++d) {
            inc.append(rows.syncEpoch(d), rows.rangeInstrs(d, d),
                       rows.seconds(d));
        }
        auto intervals = inc.snapshot();
        checksum += (double)intervals.size();
        for (const core::Interval &iv : intervals) {
            checksum += iv.seconds + (double)(iv.instrs % 1021);
        }
        if (scheme == core::IntervalScheme::ApproxInstructions)
            kept = std::move(intervals);
    }

    // Feature lowering + whole-suite extraction (profile scans).
    core::DispatchFeatureCache cache;
    for (uint64_t d = 0; d < n; ++d)
        cache.appendDispatch(rows.profileAt(d), rows.kernels());
    cache.refreshColumns();
    core::DispatchFeatureCache::Scratch scratch;
    for (core::FeatureKind kind :
         {core::FeatureKind::KN, core::FeatureKind::BB_R_W}) {
        for (const core::Interval &iv : kept) {
            core::FeatureVector vec = cache.extract(iv, kind, scratch);
            vec.normalize();
            for (double v : vec.values())
                checksum += v;
        }
    }

    // The validators' sequential per-dispatch profile walk.
    for (uint64_t d = 0; d < n; ++d)
        checksum += (double)(rows.profileAt(d).instrs % 4093);

    // Random range queries (fig6/fig8-style replay accounting).
    Rng rng(0x5eed);
    for (int i = 0; i < 2000; ++i) {
        uint64_t first = rng.next() % n;
        uint64_t last =
            std::min(n - 1, first + rng.next() % 2048);
        checksum += (double)(rows.rangeInstrs(first, last) % 8191) +
                    rows.rangeSeconds(first, last);
    }
    checksum += rows.totalSeconds() / (double)rows.totalInstrs() +
                rows.totalSeconds() +
                (double)(rows.totalInstrs() % 65521);
    return checksum;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    const bool smoke = bench::stripSmokeFlag(argc, argv);
    const uint64_t n = smoke ? 40000 : 250000;

    Inputs in = makeInputs(n);
    std::cout << "synthetic suite: " << n << " dispatches, "
              << in.calls.size() << " api calls\n";

    // The join build() runs: each dispatch with its timing and the
    // epoch the call stream assigns it.
    auto t0 = std::chrono::steady_clock::now();
    const core::EpochAssignments epochs = core::assignEpochs(in.calls);
    TraceDatabase::Builder builder;
    builder.useKernels(in.kernels);
    for (uint64_t i = 0; i < n; ++i) {
        builder.appendJoined(std::move(in.profiles[i]),
                             in.timings[i].seconds, epochs[i].second);
    }
    const double builder_build_s = secondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    TraceDatabase col = builder.seal();
    const double col_build_s = builder_build_s + secondsSince(t0);

    const uint64_t builder_bytes = builder.memoryBytes();
    const core::TraceDbFootprint fc = col.memoryFootprint();
    const double shrink =
        (double)builder_bytes / (double)fc.residentBytes;
    std::cout << "resident: builder " << humanBytes(builder_bytes)
              << " -> columnar " << humanBytes(fc.residentBytes)
              << "  (" << fixed(shrink, 1) << "x smaller; spill "
              << humanBytes(fc.fileBytes) << " on disk)\n";

    // Two timed passes each, keeping the faster one; results must
    // agree bitwise between the two on every pass.
    auto time_queries = [&](const auto &rows, double &checksum) {
        double best = 1e30;
        for (int rep = 0; rep < 2; ++rep) {
            auto start = std::chrono::steady_clock::now();
            double sum = queryPass(rows);
            best = std::min(best, secondsSince(start));
            if (rep == 0)
                checksum = sum;
            GT_ASSERT(sum == checksum,
                      "query pass not deterministic");
        }
        return best;
    };

    double builder_sum = 0.0, col_sum = 0.0;
    double builder_query_s = time_queries(builder, builder_sum);
    double col_query_s = time_queries(col, col_sum);
    GT_ASSERT(builder_sum == col_sum,
              "columnar query results diverge from the builder's");

    const double ratio = col_query_s / builder_query_s;
    std::cout << "query pass: builder " << fixed(builder_query_s, 3)
              << " s, columnar " << fixed(col_query_s, 3) << " s  ("
              << fixed(ratio, 2) << "x; bitwise-equal checksums)\n"
              << "build: builder " << fixed(builder_build_s, 3)
              << " s, columnar " << fixed(col_build_s, 3) << " s\n";

    bench::BenchReport report("BENCH_tracedb.json", smoke);
    report.scalar("dispatches", n);
    report.scalar("builder_resident_bytes", builder_bytes);
    report.scalar("columnar_resident_bytes", fc.residentBytes);
    report.scalar("columnar_file_bytes", fc.fileBytes);
    report.scalar("resident_shrink", shrink);
    report.scalar("builder_query_s", builder_query_s);
    report.scalar("columnar_query_s", col_query_s);
    report.scalar("query_ratio", ratio);
    report.scalar("builder_build_s", builder_build_s);
    report.scalar("columnar_build_s", col_build_s);
    report.gate("shrink_gate", shrink >= 5.0,
                "columnar resident-memory reduction regressed below "
                "5x: " + std::to_string(shrink));
    report.gate("query_gate", ratio <= 1.5,
                "columnar query throughput regressed beyond 1.5x of "
                "the builder's: " + std::to_string(ratio));
    return report.finish();
}
