#include "gpu/detailed_sim.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

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

EuParams
DetailedSimulator::euParams() const
{
    double freq_hz = freq * 1e6;
    EuParams params;
    params.aluLatency = aluLatency;
    params.mathLatency = mathLatency;
    params.fpuLanes = config.fpuLanesPerEu;
    params.bwBytesPerCycle =
        config.memBandwidthGBs * 1e9 / (double)config.numEus / freq_hz;
    params.memLatCycles = config.memLatencyNs * 1e-9 * freq_hz;
    return params;
}

uint32_t
DetailedSimulator::contexts(const DetailedCheckpoint &cp) const
{
    GT_ASSERT(cp.binary, "checkpoint without binary");
    // Simulate one EU with its SMT contexts; every context replays
    // the same homogeneous trace.
    return (uint32_t)std::min<uint64_t>(config.threadsPerEu,
                                        cp.numThreads);
}

DetailedResult
DetailedSimulator::scale(const DetailedCheckpoint &cp,
                         const EuResult &eu) const
{
    // Scale one EU's cycles to the whole dispatch.
    double threads_per_wave =
        (double)contexts(cp) * (double)config.numEus;
    double waves = std::ceil((double)cp.numThreads /
                             threads_per_wave);

    double freq_hz = freq * 1e6;
    DetailedResult result;
    result.simulatedInstrs = eu.issued;
    result.cycles = eu.cycles * waves * cp.truncation;
    result.seconds = result.cycles / freq_hz +
        config.dispatchOverheadUs * 1e-6;
    if (cp.dynInstrs > 0)
        result.spi = result.seconds / (double)cp.dynInstrs;
    return result;
}

DetailedResult
DetailedSimulator::simulate(const DetailedCheckpoint &cp) const
{
    return scale(cp, simulateEu(*cp.binary, cp.trace, contexts(cp),
                                euParams()));
}

std::vector<DetailedResult>
DetailedSimulator::simulateBatch(
    const std::vector<const DetailedCheckpoint *> &cells,
    Backend backend, sched::ThreadPool *pool,
    uint64_t *eu_walks) const
{
    // Group the cells by EU input. simulateEu() is a pure function of
    // (binary, trace, contexts) at this design point, so cells whose
    // inputs match share one walk; each cell then applies its own
    // waves, truncation, overhead and instruction count.
    struct WalkKey
    {
        uint32_t contexts;
        const DetailedCheckpoint *cp;

        bool
        operator<(const WalkKey &o) const
        {
            if (contexts != o.contexts)
                return contexts < o.contexts;
            if (cp->binary != o.cp->binary)
                return std::less<>()(cp->binary, o.cp->binary);
            return cp->trace < o.cp->trace;
        }
    };
    std::map<WalkKey, size_t> walkIds;
    std::vector<const DetailedCheckpoint *> firstCell;
    std::vector<size_t> walkOf(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!cells[i])
            continue;
        WalkKey key{contexts(*cells[i]), cells[i]};
        auto [it, fresh] = walkIds.emplace(key, firstCell.size());
        if (fresh)
            firstCell.push_back(cells[i]);
        walkOf[i] = it->second;
    }

    const EuParams params = euParams();
    std::vector<EuResult> walks(firstCell.size());
    auto walk = [&](size_t w) {
        const DetailedCheckpoint &cp = *firstCell[w];
        walks[w] = simulateEu(*cp.binary, cp.trace, contexts(cp), params);
    };
    // A walk is the unit of fan-out and costs about 0.15 ms, about
    // what handing a batch to the pool costs. On a 4-CPU host,
    // batches of two walks ran faster inline in 13 of 18 cases (Fig.
    // 8's cycle-level panel), and batches of six or more ran 2-3x
    // faster on the pool in every case, so fewer than three walks
    // run inline. The result is the same either way.
    constexpr size_t minPoolWalks = 3;
    if (backend == Backend::Serial || walks.size() < minPoolWalks) {
        for (size_t w = 0; w < walks.size(); ++w)
            walk(w);
    } else {
        // Distinct walks are the machine's partition grain; per-index
        // slots keep the outcome independent of the worker count.
        sched::ThreadPool &p =
            pool ? *pool : sched::ThreadPool::global();
        p.parallelFor(walks.size(), walk, 1);
    }

    std::vector<DetailedResult> results(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i])
            results[i] = scale(*cells[i], walks[walkOf[i]]);
    }
    if (eu_walks)
        *eu_walks = walks.size();
    return results;
}

} // namespace gt::gpu
