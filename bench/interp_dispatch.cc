/**
 * @file
 * Interpreter-backend dispatch benchmark: the reference opcode-switch
 * interpreter vs. the predecoded micro-op backend (superblock
 * chaining + operand-shape-specialized handlers), across the whole
 * kernel template library in both Full and Fast execution modes.
 *
 * Each case runs the same dispatch through an Executor pinned to one
 * backend; the paired timings yield per-template speedups and a
 * geometric-mean speedup per mode, written to BENCH_interp.json (and
 * summarized on stdout) so the README's perf numbers are
 * reproducible with:
 *
 *     build/bench/interp_dispatch
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "common/logging.hh"
#include "gpu/executor.hh"
#include "workloads/templates.hh"

using namespace gt;

namespace
{

/** Leading template parameter (trip count / size knob) per case. */
constexpr int64_t leadingParam = 8;

/** Work items per dispatch (64 hardware threads at SIMD16). */
constexpr uint64_t benchGlobalSize = 16 * 64;

void
runInterp(benchmark::State &state, const std::string &tmpl,
          gpu::Executor::Backend backend, gpu::Executor::Mode mode)
{
    setLogQuiet(true);
    workloads::TemplateJit jit;
    isa::KernelSource src;
    src.name = "bench_" + tmpl;
    src.templateName = tmpl;
    src.params = {leadingParam};
    isa::KernelBinary bin = jit.compile(src);

    gpu::DeviceMemory mem(32 << 20);
    gpu::Executor exec(gpu::DeviceConfig::hd4000(), mem);
    exec.setBackend(backend);

    gpu::Dispatch d;
    d.binary = &bin;
    d.globalSize = benchGlobalSize;
    d.simdWidth = 16;
    d.args.assign(bin.numArgs, (uint32_t)mem.allocate(4 << 20));

    uint64_t instrs = 0;
    for (auto _ : state) {
        gpu::ExecProfile p = exec.run(d, mode);
        instrs += p.dynInstrs;
        benchmark::DoNotOptimize(p.dynInstrs);
    }
    state.counters["interp_instrs_per_s"] = benchmark::Counter(
        (double)instrs, benchmark::Counter::kIsRate);
}

std::string
caseName(const std::string &tmpl, const char *mode, const char *backend)
{
    return "interp/" + tmpl + "/" + mode + "/" + backend;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    const std::vector<std::string> templates =
        workloads::builtinTemplates().templateNames();

    const std::pair<const char *, gpu::Executor::Mode> modes[] = {
        {"full", gpu::Executor::Mode::Full},
        {"fast", gpu::Executor::Mode::Fast},
    };
    const std::pair<const char *, gpu::Executor::Backend> backends[] = {
        {"switch", gpu::Executor::Backend::Switch},
        {"uops", gpu::Executor::Backend::Uops},
    };

    for (const std::string &tmpl : templates) {
        for (const auto &[mode_name, mode] : modes) {
            for (const auto &[backend_name, backend] : backends) {
                benchmark::RegisterBenchmark(
                    caseName(tmpl, mode_name, backend_name).c_str(),
                    [tmpl, backend, mode](benchmark::State &st) {
                        runInterp(st, tmpl, backend, mode);
                    })
                    ->MinTime(0.1)
                    ->Unit(benchmark::kMicrosecond);
            }
        }
    }

    bench::CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    // Pair up the timings and derive per-template speedups plus the
    // per-mode geometric means the acceptance gate checks.
    bench::BenchReport report("BENCH_interp.json");
    report.repetitions(reporter.minIterations());
    std::map<std::string, bench::GeoMean> geomeans;
    for (const std::string &tmpl : templates) {
        for (const auto &[mode_name, mode] : modes) {
            auto sw = reporter.times.find(
                caseName(tmpl, mode_name, "switch"));
            auto up = reporter.times.find(
                caseName(tmpl, mode_name, "uops"));
            if (sw == reporter.times.end() ||
                up == reporter.times.end()) {
                continue;
            }
            double speedup = sw->second / up->second;
            geomeans[mode_name].add(speedup);
            report.addRow()
                .field("template", tmpl)
                .field("mode", mode_name)
                .field("switch_ns", sw->second)
                .field("uops_ns", up->second)
                .field("speedup", speedup);
        }
    }
    std::cout << "\n";
    for (const auto &[mode_name, geomean] : geomeans) {
        report.scalar("geomean_speedup_" + mode_name,
                      geomean.value());
        std::cout << "geomean speedup (" << mode_name
                  << " mode, uops vs switch): " << geomean.value()
                  << "x\n";
    }
    return report.finish();
}
