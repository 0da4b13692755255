/**
 * @file
 * Shared plumbing for the per-figure benchmark harnesses: cached
 * application profiling (one native run per app per process), the
 * paper's presentation order, and the BENCH_*.json report machinery
 * every perf bench used to hand-roll (smoke-flag stripping, geomean
 * accumulation, the google-benchmark timing capture, and the JSON
 * writer with enforced pass/fail gates).
 *
 * The caches are mutex-guarded so scheduler tasks may call the
 * accessors concurrently; prefetchProfiles()/prefetchExplorations()
 * warm them through the parallel entry points (profileSuite and the
 * pooled 30-config explorer) so a bench's first figure does not pay
 * the whole suite's profiling cost serially.
 */

#ifndef GT_BENCH_HARNESS_HH
#define GT_BENCH_HARNESS_HH

#include <benchmark/benchmark.h>

#include <cmath>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hh"

namespace gt::bench
{

/** The 25 application names in the paper's figure order. */
const std::vector<std::string> &paperOrder();

/** Profile (once per process) and return the cached result. */
const core::ProfiledApp &profiledApp(const std::string &name);

/** Run the 30-config exploration (cached per process). */
const core::Exploration &exploration(const std::string &name);

/** Profile the whole suite concurrently into the cache. */
void prefetchProfiles();

/** Explore every profiled app's 30 configurations concurrently. */
void prefetchExplorations();

/**
 * Strip a leading-anywhere `--smoke` from @p argv before
 * google-benchmark (or the bench's own parser) sees it. @return
 * whether the flag was present — the CI variant: shorter timings and
 * relaxed perf gates, with every correctness assert kept.
 */
bool stripSmokeFlag(int &argc, char **argv);

/** Running geometric mean over speedup/ratio samples. */
class GeoMean
{
  public:
    void
    add(double ratio)
    {
        logSum += std::log(ratio);
        ++n;
    }

    int count() const { return n; }

    /** The geometric mean, or 0.0 before any sample. */
    double value() const { return n ? std::exp(logSum / n) : 0.0; }

  private:
    double logSum = 0.0;
    int n = 0;
};

/** Captures adjusted per-iteration real time for every finished run
 * on top of the normal console output (the `/min_time` suffix
 * google-benchmark appends is stripped, so lookups use the
 * registered name). */
class CaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            std::string name = run.benchmark_name();
            if (size_t pos = name.find("/min_time");
                pos != std::string::npos) {
                name.resize(pos);
            }
            times[name] = run.GetAdjustedRealTime();
        }
        ConsoleReporter::ReportRuns(runs);
    }

    std::map<std::string, double> times;
};

/**
 * Assembles one BENCH_*.json file: an optional "benchmarks" array of
 * per-case rows, top-level scalar fields, and named pass/fail gates.
 * A failed gate prints its message to stderr and makes finish()
 * return nonzero, so a bench's acceptance bound is enforced by its
 * own exit code (CI runs the binary, not a separate checker).
 */
class BenchReport
{
  public:
    /**
     * @param file_name e.g. "BENCH_gang.json" (cwd-relative).
     * @param smoke whether this is a --smoke run: finish() then
     *        writes "<stem>.smoke.json" instead, so a smoke run never
     *        overwrites the committed full-run file. Every report
     *        records its "mode" ("full" or "smoke") and the host's
     *        "nproc".
     */
    explicit BenchReport(std::string file_name, bool smoke = false);

    /** One object in the "benchmarks" array. */
    class Row
    {
      public:
        Row &field(const std::string &name, const std::string &value);
        Row &field(const std::string &name, const char *value);
        Row &field(const std::string &name, double value);
        Row &field(const std::string &name, uint64_t value);
        Row &field(const std::string &name, int value);
        Row &field(const std::string &name, bool value);

      private:
        friend class BenchReport;
        void key(const std::string &name);
        std::string body;
    };

    /** Append a row to @p array (arrays appear in first-use order;
     * most benches use the default single "benchmarks" array). The
     * reference stays valid for chained field() calls (rows live in
     * deques). */
    Row &addRow(const std::string &array = "benchmarks");

    void scalar(const std::string &name, double value);
    void scalar(const std::string &name, uint64_t value);
    void scalar(const std::string &name, int value);

    /**
     * Record one acceptance gate: emits `"name": "pass"|"fail"` and,
     * on failure, prints `FAIL: <fail_message>` to stderr and makes
     * finish() return 1. Callers relax smoke-mode gates by passing
     * `pass || smoke`.
     */
    void gate(const std::string &name, bool pass,
              const std::string &fail_message);

    /** Write the file, announce it on stdout, and @return the exit
     * code (0 iff every gate passed). */
    int finish();

  private:
    std::string file;
    std::vector<std::pair<std::string, std::deque<Row>>> arrays;
    std::vector<std::pair<std::string, std::string>> scalars;
    int rc = 0;
};

} // namespace gt::bench

#endif // GT_BENCH_HARNESS_HH
