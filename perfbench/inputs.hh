/**
 * @file
 * Seed -> inputs for the three benchmark workloads.
 *
 * Every input the library receives is drawn here from the --seed
 * argument, with the library's deterministic gt::Rng split into one
 * substream per workload (no std::*_distribution, whose output
 * differs between standard libraries), so one seed gives the same
 * inputs on every host.
 *
 * The seed draws only what leaves the host work of a pass unchanged:
 * orders, noise seeds, replay conditions and service batches; which
 * apps a workload runs is fixed (see inputs.cc). That keeps the
 * end-to-end host-time metrics comparable across seeds. The simulated
 * accuracy figures still depend on the seed's noise draws.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gpu/device_config.hh"
#include "gpu/timing.hh"

namespace perfbench
{

enum class WorkloadKind
{
    Explore,
    Validate,
    Serve,
};

/** @return false for an unknown name. */
bool parseWorkload(const std::string &name, WorkloadKind &kind);

const char *workloadName(WorkloadKind kind);

/** explore: profile every app once, then explore all 30
 * configurations of each and apply both selection policies. */
struct ExploreInputs
{
    /** All 25: costliest classes first, seed order within each. */
    std::vector<std::string> apps;
    uint64_t noiseSeed = 1;        //!< the profiling trial's noise
    std::string warmupApp;         //!< profiled during set-up
    std::string checkApp;          //!< re-run on a 1-thread pool
};

/** One Fig. 8 replay condition applied to one app. */
struct ReplayCondition
{
    size_t app = 0;           //!< index into ValidateInputs::apps
    std::string kind;         //!< "trial", "freq" or "arch"
    bool hd4600 = false;      //!< next generation instead of HD4000
    double freqMhz = 0.0;     //!< 0 = the device maximum
    uint64_t noiseSeed = 1;

    gt::gpu::DeviceConfig device() const;
    gt::gpu::TrialConfig trial() const;
};

/** One detailed-simulation design point. */
struct DesignSpec
{
    bool hd4600 = false;
    double freqMhz = 0.0;
};

/** validate: replay a slice of the Fig. 8 condition space against
 * each app's trial-1 minimum-error selection. */
struct ValidateInputs
{
    std::vector<std::string> apps; //!< largest-cost stratum first
    uint64_t profileNoiseSeed = 1;
    /** Ordered largest-cost app first, so the pool's index-order
     * claiming schedules long replays early. */
    std::vector<ReplayCondition> conditions;
    size_t detailedApp = 0;                //!< index into apps
    std::vector<DesignSpec> designPoints;  //!< the spot check's 3
    std::vector<size_t> serialCheck;       //!< conditions re-run serially
};

/** One service round: recordings (indices into
 * ServeInputs::recordings) one new tenant submits before drain(). */
struct ServeRound
{
    std::vector<size_t> batch;
};

/** serve: closed-loop rounds against one ProfilingService. */
struct ServeInputs
{
    std::vector<std::string> recordings; //!< small apps
    uint64_t noiseSeed = 1;
    std::vector<ServeRound> rounds;
    /** Small enough that drained sessions are evicted every round. */
    uint64_t residentBudgetBytes = 0;
};

ExploreInputs makeExploreInputs(uint64_t seed);
ValidateInputs makeValidateInputs(uint64_t seed);
ServeInputs makeServeInputs(uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
