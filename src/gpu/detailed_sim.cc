#include "gpu/detailed_sim.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "gpu/eu_pipeline.hh"
#include "sched/thread_pool.hh"

namespace gt::gpu
{

DetailedSimulator::DetailedSimulator(const DeviceConfig &config_,
                                     double freq_mhz)
    : config(config_),
      freq(freq_mhz > 0.0 ? freq_mhz : config_.maxFreqMhz)
{
}

DetailedResult
DetailedSimulator::simulate(Executor &executor,
                            const Dispatch &dispatch)
{
    return simulate(executor.checkpoint(dispatch));
}

DetailedResult
DetailedSimulator::simulate(const DetailedCheckpoint &cp) const
{
    GT_ASSERT(cp.binary, "checkpoint without binary");

    // Simulate one EU with its SMT contexts; every context replays
    // the same homogeneous trace.
    uint32_t num_ctx = (uint32_t)std::min<uint64_t>(
        config.threadsPerEu, cp.numThreads);

    double freq_hz = freq * 1e6;
    EuParams params;
    params.aluLatency = aluLatency;
    params.mathLatency = mathLatency;
    params.fpuLanes = config.fpuLanesPerEu;
    params.bwBytesPerCycle =
        config.memBandwidthGBs * 1e9 / (double)config.numEus / freq_hz;
    params.memLatCycles = config.memLatencyNs * 1e-9 * freq_hz;

    EuResult eu = simulateEu(*cp.binary, cp.trace, num_ctx, params);

    // Scale one EU's cycles to the whole dispatch.
    double threads_per_wave =
        (double)num_ctx * (double)config.numEus;
    double waves = std::ceil((double)cp.numThreads /
                             threads_per_wave);

    DetailedResult result;
    result.simulatedInstrs = eu.issued;
    result.cycles = eu.cycles * waves * cp.truncation;
    result.seconds = result.cycles / freq_hz +
        config.dispatchOverheadUs * 1e-6;
    if (cp.dynInstrs > 0)
        result.spi = result.seconds / (double)cp.dynInstrs;
    return result;
}

std::vector<DetailedResult>
DetailedSimulator::simulateBatch(
    const std::vector<const DetailedCheckpoint *> &cells,
    Backend backend, sched::ThreadPool *pool) const
{
    std::vector<DetailedResult> results(cells.size());
    auto cell = [&](size_t i) {
        if (cells[i])
            results[i] = simulate(*cells[i]);
    };
    if (backend == Backend::Serial) {
        for (size_t i = 0; i < cells.size(); ++i)
            cell(i);
        return results;
    }
    // Each replay cell is an EU-homogeneous wave replay, so cells
    // are the machine's partition grain; per-index slots keep the
    // outcome independent of the worker count.
    sched::ThreadPool &p =
        pool ? *pool : sched::ThreadPool::global();
    p.parallelFor(cells.size(), cell, 1);
    return results;
}

} // namespace gt::gpu
