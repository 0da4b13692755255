/**
 * @file
 * Columnar trace-store benchmark: resident memory and exploration
 * query throughput of the on-disk columnar TraceDatabase backend
 * against the fully-resident mem oracle.
 *
 * A large deterministic synthetic suite (hundreds of thousands of
 * joined dispatches) is built once through each backend, then both
 * serve the paper's post-profiling access pattern — interval
 * building under all three schemes, feature-engine lowering,
 * whole-suite extraction, per-dispatch profile scans, and a random
 * mix of range queries — with every result compared bitwise
 * between the backends. Two gates are enforced:
 *
 *  - resident memory must shrink by at least 5x on the columnar
 *    backend (that reduction is the tentpole's reason to exist);
 *  - the columnar query phase must stay within 1.5x of the mem
 *    oracle's wall clock.
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
using core::TraceDbBackend;

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
    std::vector<cfl::KernelTiming> timings;
    std::vector<ocl::ApiCallRecord> calls;
};

/** A deterministic joined suite shaped like the profiled CB apps:
 * a few dozen distinct kernels re-dispatched many times, small
 * per-kernel block vectors, syncs every handful of kernels. */
Inputs
makeInputs(uint64_t n)
{
    Rng rng(0xbadc0ffee);
    Inputs in;
    in.profiles.reserve(n);
    in.timings.reserve(n);
    uint64_t idx = 0;
    for (uint64_t i = 0; i < n; ++i) {
        uint32_t kernel = (uint32_t)(rng.next() % 48);
        gtpin::DispatchProfile p;
        p.seq = i;
        p.kernelId = kernel;
        p.kernelName = "suite_kernel_" + std::to_string(kernel);
        p.globalWorkSize = 64 << (kernel % 6);
        p.argsHash = rng.next();
        p.args.resize(2 + kernel % 4);
        for (uint32_t &a : p.args)
            a = (uint32_t)rng.next();
        size_t blocks = 2 + kernel % 6;
        p.blockCounts.resize(blocks);
        p.blockLens.resize(blocks);
        p.blockReadBytes.resize(blocks);
        p.blockWriteBytes.resize(blocks);
        for (size_t b = 0; b < blocks; ++b) {
            p.blockCounts[b] = rng.next() % 50000;
            p.blockLens[b] = 4 + (uint32_t)(rng.next() % 28);
            p.instrs += p.blockCounts[b] * p.blockLens[b];
            p.blockReadBytes[b] = (uint32_t)(rng.next() % 2048);
            p.blockWriteBytes[b] = (uint32_t)(rng.next() % 2048);
            p.bytesRead += p.blockCounts[b] * p.blockReadBytes[b];
            p.bytesWritten += p.blockCounts[b] * p.blockWriteBytes[b];
        }
        in.profiles.push_back(std::move(p));

        cfl::KernelTiming t;
        t.seq = i;
        t.kernelName = in.profiles.back().kernelName;
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

/** One pass of the post-profiling access pattern; returns a
 * checksum folding every queried value, so backends can be compared
 * and the work cannot be dead-code-eliminated. */
double
queryPass(const TraceDatabase &db)
{
    double checksum = 0.0;

    // Interval building under all three schemes (prefix queries).
    std::vector<core::Interval> kept;
    for (core::IntervalScheme scheme :
         {core::IntervalScheme::SyncBounded,
          core::IntervalScheme::ApproxInstructions,
          core::IntervalScheme::SingleKernel}) {
        auto intervals = core::buildIntervals(db, scheme);
        checksum += (double)intervals.size();
        for (const core::Interval &iv : intervals) {
            checksum += iv.seconds + (double)(iv.instrs % 1021);
        }
        if (scheme == core::IntervalScheme::ApproxInstructions)
            kept = std::move(intervals);
    }

    // Feature lowering + whole-suite extraction (profile scans).
    core::FeatureEngine engine(db, core::FeatureBackend::Flat);
    for (core::FeatureKind kind :
         {core::FeatureKind::KN, core::FeatureKind::BB_R_W}) {
        auto vectors = engine.extractAll(kept, kind);
        for (const core::FeatureVector &vec : vectors) {
            for (double v : vec.values())
                checksum += v;
        }
    }

    // The validators' sequential per-dispatch profile walk.
    for (uint64_t d = 0; d < db.numDispatches(); ++d)
        checksum += (double)(db.profileAt(d).instrs % 4093);

    // Random range queries (fig6/fig8-style replay accounting).
    Rng rng(0x5eed);
    const uint64_t n = db.numDispatches();
    for (int i = 0; i < 2000; ++i) {
        uint64_t first = rng.next() % n;
        uint64_t last =
            std::min(n - 1, first + rng.next() % 2048);
        checksum += (double)(db.rangeInstrs(first, last) % 8191) +
                    db.rangeSeconds(first, last);
    }
    checksum += db.measuredSpi() + db.totalSeconds() +
                (double)(db.totalInstrs() % 65521);
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

    auto build = [&](TraceDbBackend backend, double &seconds) {
        auto profiles = in.profiles;
        auto t0 = std::chrono::steady_clock::now();
        TraceDatabase db =
            TraceDatabase::build(std::move(profiles), in.timings,
                                 in.calls, backend);
        seconds = secondsSince(t0);
        return db;
    };

    double mem_build_s = 0.0, col_build_s = 0.0;
    TraceDatabase mem = build(TraceDbBackend::Mem, mem_build_s);
    TraceDatabase col = build(TraceDbBackend::Columnar, col_build_s);

    const core::TraceDbFootprint fm = mem.memoryFootprint();
    const core::TraceDbFootprint fc = col.memoryFootprint();
    const double shrink =
        (double)fm.residentBytes / (double)fc.residentBytes;
    std::cout << "resident: mem " << humanBytes(fm.residentBytes)
              << " -> columnar " << humanBytes(fc.residentBytes)
              << "  (" << fixed(shrink, 1) << "x smaller; spill "
              << humanBytes(fc.fileBytes) << " on disk)\n";

    // Two timed passes per backend, keeping the faster one; results
    // must agree bitwise between backends on every pass.
    auto time_queries = [&](const TraceDatabase &db,
                            double &checksum) {
        double best = 1e30;
        for (int rep = 0; rep < 2; ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            double sum = queryPass(db);
            best = std::min(best, secondsSince(t0));
            if (rep == 0)
                checksum = sum;
            GT_ASSERT(sum == checksum,
                      "query pass not deterministic");
        }
        return best;
    };

    double mem_sum = 0.0, col_sum = 0.0;
    double mem_query_s = time_queries(mem, mem_sum);
    double col_query_s = time_queries(col, col_sum);
    GT_ASSERT(mem_sum == col_sum,
              "columnar query results diverge from the mem oracle");

    const double ratio = col_query_s / mem_query_s;
    std::cout << "query pass: mem " << fixed(mem_query_s, 3)
              << " s, columnar " << fixed(col_query_s, 3) << " s  ("
              << fixed(ratio, 2) << "x; bitwise-equal checksums)\n"
              << "build: mem " << fixed(mem_build_s, 3)
              << " s, columnar " << fixed(col_build_s, 3) << " s\n";

    bench::BenchReport report("BENCH_tracedb.json", smoke);
    report.scalar("dispatches", n);
    report.scalar("mem_resident_bytes", fm.residentBytes);
    report.scalar("columnar_resident_bytes", fc.residentBytes);
    report.scalar("columnar_file_bytes", fc.fileBytes);
    report.scalar("resident_shrink", shrink);
    report.scalar("mem_query_s", mem_query_s);
    report.scalar("columnar_query_s", col_query_s);
    report.scalar("query_ratio", ratio);
    report.scalar("mem_build_s", mem_build_s);
    report.scalar("columnar_build_s", col_build_s);
    report.gate("shrink_gate", shrink >= 5.0,
                "columnar resident-memory reduction regressed below "
                "5x: " + std::to_string(shrink));
    report.gate("query_gate", ratio <= 1.5,
                "columnar query throughput regressed beyond 1.5x of "
                "the mem oracle: " + std::to_string(ratio));
    return report.finish();
}
