/**
 * @file
 * The end-to-end benchmark of the GT-Pin flow (see README.md).
 *
 *   perfbench --workload explore|validate|serve --seed N --seconds S
 *             --trace 0|1 [--out-dir DIR]
 *             [--scratch DIR] [--git-rev REV] [--source-digest HEX]
 *
 * Set-up runs several times and its median is setup_s. Timed passes
 * then repeat until S seconds are spent (at least two). With --trace 0
 * every pass is untraced and the end-to-end metrics are printed; with
 * --trace 1 untraced and traced passes alternate, and the per-layer
 * metrics come from the traced ones. The last line of stdout is one
 * JSON object: correct, attempted, failed, metrics.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "flows.hh"
#include "stats.hh"

using namespace perfbench;

namespace
{

constexpr int setupRepetitions = 5;
constexpr size_t minPasses = 2;

/**
 * Untraced passes whose ops form the latency sample. A fixed count
 * keeps op_p50_ms and op_tail_ms independent of how many passes fit
 * in --seconds. Each count fits in a 20 s run on a 4-CPU x86-64 host
 * (explore ~4.4 s, validate ~1.5 s, serve ~0.4 s a pass); on a slower
 * host the run lengthens instead of the sample shrinking.
 */
size_t
opSamplePasses(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::Explore:
        return 4;
    case WorkloadKind::Validate:
        return 12;
    case WorkloadKind::Serve:
        return 24;
    }
    return minPasses;
}

struct Args
{
    WorkloadKind workload = WorkloadKind::Explore;
    bool haveWorkload = false;
    uint64_t seed = 0;
    bool haveSeed = false;
    double seconds = 0.0;
    bool trace = false;
    std::string outDir;
    std::string scratch = ".";
    std::string gitRev = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload explore|validate|serve "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--scratch DIR]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        std::string v = argv[++i];
        try {
            if (key == "--workload") {
                if (!parseWorkload(v, a.workload))
                    usage("unknown workload '" + v + "'");
                a.haveWorkload = true;
            } else if (key == "--seed") {
                a.seed = std::stoull(v);
                a.haveSeed = true;
            } else if (key == "--seconds") {
                a.seconds = std::stod(v);
                haveSeconds = a.seconds > 0;
            } else if (key == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                a.trace = v == "1";
                haveTrace = true;
            } else if (key == "--out-dir") {
                a.outDir = v;
            } else if (key == "--scratch") {
                a.scratch = v;
            } else if (key == "--git-rev") {
                a.gitRev = v;
            } else if (key == "--source-digest") {
                a.sourceDigest = v;
            } else {
                usage("unknown option " + key);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + v + "' for " + key);
        }
    }
    if (!a.haveWorkload || !a.haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    return a;
}

unsigned
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return (unsigned)std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Usage
{
    double user = 0.0, sys = 0.0;
    long minorFaults = 0;
};

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user = (double)ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
    u.sys = (double)ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
    u.minorFaults = ru.ru_minflt;
    return u;
}

/** Reset the kernel's resident high-water mark (Linux clear_refs
 * "5"); @return false where that is not permitted. */
bool
resetPeakRss()
{
    std::ofstream f("/proc/self/clear_refs");
    f << "5\n";
    f.flush();
    return (bool)f;
}

/** VmHWM in MiB (0 if unreadable). */
double
peakRssMib()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

struct PassRecord
{
    bool traced = false;
    double wall = 0.0, cpu = 0.0, sys = 0.0;
    double minorFaults = 0.0;
    double peakMib = 0.0;
    PassOutput out;
    std::map<std::string, double> layer; //!< traced passes only
};

/** Per-layer span names; each becomes metric <name>_s. */
const char *const layerSpans[] = {
    "ocl.driver_setup",      "ocl.driver_teardown",
    "gtpin.setup",           "gtpin.postprocess",
    "workloads.run",         "cfl.replay",
    "core.tracedb_build",    "core.intervals",
    "core.features",         "core.cluster",
    "core.error_eval",       "core.select",
    "core.detailed_setup",   "core.detailed_validate",
    "serve.submit_warm",     "serve.submit_cold",
    "serve.drain_wait",      "serve.refresh",
};

/** Counters a flow reports, with units. */
const std::pair<const char *, const char *> counterUnits[] = {
    {"ocl.drivers", "count"},
    {"gpu.dispatches", "count"},
    {"gpu.sim_instrs", "count"},
    {"core.tracedb_resident_bytes", "bytes"},
    {"core.kmeans_skip_frac", "frac"},
    {"gpu.checkpoint_builds", "count"},
    {"gpu.detailed_cells", "count"},
    {"serve.replays", "count"},
    {"serve.artifact_hits", "count"},
    {"serve.dup_replays", "count"},
    {"serve.evictions", "count"},
    {"serve.rehydrations", "count"},
    {"serve.reclustered", "count"},
    {"serve.memo_answers", "count"},
    {"serve.plan_cache_hit_frac", "frac"},
    {"serve.footprint_bytes", "bytes"},
};

/** Per-layer figures of one traced pass. */
std::map<std::string, double>
layerMetrics(const std::vector<SpanRecord> &spans, int64_t from,
             int64_t to, const PassRecord &p, unsigned width)
{
    std::map<std::string, double> self = selfSecondsByName(spans);
    std::map<std::string, double> m;
    for (const char *name : layerSpans)
        m[std::string(name) + "_s"] = self.count(name) ? self[name] : 0.0;
    double benchSelf = 0.0;
    for (const auto &[name, s] : self) {
        if (name.rfind("op.", 0) == 0)
            benchSelf += s;
    }
    m["bench.self_s"] = benchSelf;
    for (const auto &[name, unit] : counterUnits) {
        auto it = p.out.counters.find(name);
        m[name] = it == p.out.counters.end() ? 0.0 : it->second;
    }
    double execS = m["workloads.run_s"] + m["cfl.replay_s"] +
                   m["serve.submit_cold_s"] + m["serve.drain_wait_s"];
    m["gpu.sim_instrs_per_s"] = execS > 0 ? m["gpu.sim_instrs"] / execS
                                          : 0.0;
    m["process.sys_s"] = p.sys;
    m["process.minor_faults"] = p.minorFaults;
    m["sched.busy_frac"] = p.cpu / (p.wall * width);
    m["trace.coverage"] = layerCoverage(spans, from, to);
    return m;
}

/** Unit of a layerMetrics() entry; span self times are seconds. */
std::string
layerUnit(const std::string &name)
{
    for (const auto &[cname, cunit] : counterUnits) {
        if (name == cname)
            return cunit;
    }
    if (name == "gpu.sim_instrs_per_s")
        return "1/s";
    if (name == "process.minor_faults")
        return "count";
    if (name == "sched.busy_frac" || name == "trace.coverage")
        return "frac";
    return "s";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = v > 0 ? 1e300 : 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if ((unsigned char)c < 0x20)
            o += ' ';
        else
            o += c;
    }
    return o + "\"";
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string o = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
        o += (i ? ", " : "") + jsonString(ms[i].name) + ": {\"value\": " +
             jsonNumber(ms[i].value) + ", \"unit\": " +
             jsonString(ms[i].unit) + "}";
    }
    return o + "}";
}

std::string
hex64(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

/** Set-up, passes, checks and output; returns the exit code. Ops that
 * fail are counted inside the flows; anything escaping here (a failed
 * set-up, an I/O error) ends the run without a result. */
int
runBenchmark(const Args &args)
{
    const unsigned cpus = hostCpus();
    // A pool of width W has W workers; a parallel loop runs on the
    // caller (the generator, this thread) plus W - 1 of them, so at
    // most W threads are busy at once and the process holds
    // W + 1 <= cpus threads.
    const unsigned width = std::max(1u, cpus - 1);
    const unsigned threads = width == 1 ? 1 : width + 1;
    const size_t opPasses = opSamplePasses(args.workload);

    std::unique_ptr<Flow> flow = makeFlow(args.workload, args.seed);
    RunContext ctx;
    ctx.scratchDir = args.scratch;
    std::unique_ptr<gt::sched::ThreadPool> pool;

    std::vector<double> setups;
    for (int r = 0; r < setupRepetitions; ++r) {
        double t0 = nowS();
        pool.reset();
        pool = std::make_unique<gt::sched::ThreadPool>(width);
        ctx.pool = pool.get();
        flow->setup(ctx);
        setups.push_back(nowS() - t0);
    }

    Tracer tracer;
    std::vector<SpanRecord> traceSpans;
    std::vector<PassRecord> passes;
    std::vector<std::string> failures;
    const bool peakResettable = resetPeakRss();
    const double start = nowS();
    size_t traced = 0, untraced = 0;
    while (nowS() - start < args.seconds || untraced < minPasses ||
           (!args.trace && untraced < opPasses) ||
           (args.trace && traced < minPasses)) {
        PassRecord p;
        p.traced = args.trace && untraced > traced;
        ctx.tracer = p.traced ? &tracer : nullptr;
        resetPeakRss();
        Usage u0 = usageNow();
        int64_t from = tracer.nowNs();
        double t0 = nowS();
        p.out = flow->pass(ctx);
        p.wall = nowS() - t0;
        int64_t to = tracer.nowNs();
        Usage u1 = usageNow();
        p.peakMib = peakRssMib();
        p.cpu = (u1.user - u0.user) + (u1.sys - u0.sys);
        p.sys = u1.sys - u0.sys;
        p.minorFaults = (double)(u1.minorFaults - u0.minorFaults);
        if (p.traced) {
            std::vector<SpanRecord> spans = tracer.collect();
            tracer.clear();
            p.layer = layerMetrics(spans, from, to, p, width);
            traceSpans.insert(traceSpans.end(), spans.begin(),
                              spans.end());
        }
        if (passes.empty())
            flow->check(ctx, failures);
        flow->release();
        if (!passes.empty() && p.out.digest != passes[0].out.digest) {
            failures.push_back("sim_digest of pass " +
                               std::to_string(passes.size()) +
                               (p.traced ? " (traced)" : "") +
                               " differs from pass 0");
        }
        (p.traced ? traced : untraced) += 1;
        passes.push_back(std::move(p));
    }
    ctx.tracer = nullptr;

    // End-to-end figures come from the untraced passes only; op
    // latencies from the first opPasses of them.
    std::vector<double> walls, cpus_s, peaks, rates, ops, tracedWalls;
    uint64_t attempted = 0, failed = 0;
    for (const PassRecord &p : passes) {
        attempted += p.out.attempted;
        failed += p.out.failed;
        if (p.traced) {
            tracedWalls.push_back(p.wall);
            continue;
        }
        walls.push_back(p.wall);
        cpus_s.push_back(p.cpu);
        peaks.push_back(p.peakMib);
        rates.push_back((double)p.out.dispatches / p.wall);
        if (walls.size() <= opPasses)
            ops.insert(ops.end(), p.out.opMs.begin(), p.out.opMs.end());
    }
    Tail tail = tailOf(ops);
    std::vector<Metric> e2e = {
        {"setup_s", median(setups), "s"},
        {"wall_s", median(walls), "s"},
        {"cpu_s", median(cpus_s), "s"},
        {"peak_rss_mib", median(peaks), "MiB"},
        {"op_p50_ms", median(ops), "ms"},
        {"op_tail_ms", tail.value, "ms"},
        {"dispatches_per_s", median(rates), "1/s"},
    };

    const Accuracy &acc = flow->accuracy();
    std::vector<Metric> layer;
    if (args.trace) {
        std::map<std::string, std::vector<double>> series;
        for (const PassRecord &p : passes) {
            for (const auto &[name, v] : p.layer)
                series[name].push_back(v);
        }
        for (const auto &[name, vs] : series)
            layer.push_back({name, median(vs), layerUnit(name)});
        layer.push_back({"trace.overhead",
                         median(tracedWalls) / median(walls), "x"});
    }
    // Simulated accuracy: a function of the seed alone.
    std::vector<Metric> accuracy = {
        {"error_pct_mean", acc.errorPctMean, "%"},
        {"error_pct_max", acc.errorPctMax, "%"},
        {"selection_speedup", acc.selectionSpeedup, "x"},
    };
    if (args.trace)
        layer.insert(layer.end(), accuracy.begin(), accuracy.end());

    const bool correct = failures.empty() && failed == 0;
    const char *wl = workloadName(args.workload);
    const uint64_t digest = passes[0].out.digest;
    const bool full = untraced >= 3 && (!args.trace || traced >= 3);

    std::cout << "perfbench " << wl << " seed " << args.seed << ": "
              << passes.size() << " passes (" << untraced
              << " untraced, " << traced << " traced), pool width "
              << width << ", " << threads << " threads on " << cpus
              << " CPUs\n";
    std::cout << "sim_digest " << hex64(digest) << "\n";
    for (const std::string &f : failures)
        std::cout << "CHECK FAILED: " << f << "\n";
    const std::vector<Metric> &shown = args.trace ? layer : e2e;
    for (const Metric &m : shown)
        std::cout << "  " << m.name << " = " << jsonNumber(m.value) << " "
                  << m.unit << "\n";
    if (!args.trace) {
        for (const Metric &m : accuracy)
            std::cout << "  (" << m.name << " = " << jsonNumber(m.value)
                      << " " << m.unit << ")\n";
        std::cout << "  op tail at p" << tail.percentile << " of "
                  << tail.samples << " ops (" << tail.beyond
                  << " beyond)\n";
    }

    if (!args.outDir.empty()) {
        std::string stem = args.outDir + "/" + wl + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
        std::ofstream res(stem + ".json");
        res << "{\n  \"provenance\": {\"workload\": " << jsonString(wl)
            << ", \"seed\": " << args.seed
            << ", \"seconds\": " << jsonNumber(args.seconds)
            << ", \"host_nproc\": " << cpus
            << ", \"pool_width\": " << width
            << ", \"threads\": " << threads
            << ", \"git_revision\": " << jsonString(args.gitRev)
            << ", \"source_digest\": " << jsonString(args.sourceDigest)
            << ", \"setup_repetitions\": " << setups.size()
            << ", \"untraced_passes\": " << untraced
            << ", \"traced_passes\": " << traced
            << ", \"run\": " << jsonString(full ? "full" : "reduced")
            << ", \"peak_rss_reset\": "
            << (peakResettable ? "true" : "false") << "},\n";
        res << "  \"correct\": " << (correct ? "true" : "false")
            << ",\n  \"attempted\": " << attempted
            << ",\n  \"failed\": " << failed
            << ",\n  \"failed_share\": "
            << jsonNumber(attempted ? (double)failed / attempted : 0.0)
            << ",\n  \"sim_digest\": " << jsonString(hex64(digest))
            << ",\n  \"op_tail\": {\"percentile\": "
            << jsonNumber(tail.percentile)
            << ", \"samples\": " << tail.samples
            << ", \"beyond\": " << tail.beyond << "},\n  \"checks\": [";
        for (size_t i = 0; i < failures.size(); ++i)
            res << (i ? ", " : "") << jsonString(failures[i]);
        res << "],\n  \"end_to_end\": " << metricsJson(e2e)
            << ",\n  \"accuracy\": " << metricsJson(accuracy)
            << ",\n  \"per_layer\": " << metricsJson(layer)
            << ",\n  \"pass_wall_s\": [";
        for (size_t i = 0; i < passes.size(); ++i)
            res << (i ? ", " : "") << "{\"traced\": "
                << (passes[i].traced ? "true" : "false")
                << ", \"wall_s\": " << jsonNumber(passes[i].wall) << "}";
        res << "],\n  \"setup_s\": [";
        for (size_t i = 0; i < setups.size(); ++i)
            res << (i ? ", " : "") << jsonNumber(setups[i]);
        res << "]\n}\n";
        if (args.trace) {
            std::ofstream tf(args.outDir + "/trace-" + wl + "-seed" +
                             std::to_string(args.seed) + ".json");
            writeChromeTrace(tf, traceSpans);
        }
    }

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metricsJson(shown) << "}"
              << std::endl;
    return correct ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    gt::setLogQuiet(true);
    try {
        return runBenchmark(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
