/**
 * @file
 * The three benchmark workloads as set-up / timed-pass / check steps.
 *
 * A pass is one fixed batch of operations drawn from the seed; the
 * driver (main.cc) repeats passes until the run's time is spent and
 * reports medians over them. An untraced pass calls the library's
 * bundled entry points (profileSuite, exploreConfigs, replayTrial,
 * ProfilingService). A traced pass calls the public functions those
 * bundles are made of, in the same order, with a span around each, and
 * must produce the same sim_digest as the untraced pass.
 */

#ifndef PERFBENCH_FLOWS_HH
#define PERFBENCH_FLOWS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "inputs.hh"
#include "sched/thread_pool.hh"
#include "spans.hh"

namespace perfbench
{

/** What every step of a workload runs with. */
struct RunContext
{
    /** The one pool all library calls get explicitly. */
    gt::sched::ThreadPool *pool = nullptr;
    /** Non-null during traced passes. */
    Tracer *tracer = nullptr;
    /** Directory (inside the checkout) for service archives. */
    std::string scratchDir;
};

/** Simulated accuracy of the selections a pass produced. */
struct Accuracy
{
    double errorPctMean = 0.0;
    double errorPctMax = 0.0;
    double selectionSpeedup = 0.0; //!< geomean of 1/selectionFraction
};

/** Everything one timed pass reports besides its host time. */
struct PassOutput
{
    /** Per-op latency; failed ops are +infinity. */
    std::vector<double> opMs;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Dispatches profiled, replayed or fed into sessions. */
    uint64_t dispatches = 0;
    uint64_t digest = 0;
    /** Per-layer counters (names as in BENCHMARK.json). */
    std::map<std::string, double> counters;
};

class Flow
{
  public:
    virtual ~Flow() = default;

    /** Build everything the timed passes need (replacing any earlier
     * set-up). Timed as setup_s. */
    virtual void setup(RunContext &ctx) = 0;

    /** One timed pass. Keeps what check() needs until release(). */
    virtual PassOutput pass(RunContext &ctx) = 0;

    /** Check the retained pass's outputs against serial or one-shot
     * oracles; append a line per mismatch to @p failures. */
    virtual void check(RunContext &ctx,
                       std::vector<std::string> &failures) = 0;

    /** Drop what the last pass retained. */
    virtual void release() = 0;

    /** Accuracy of the selections (valid after pass() and check()). */
    const Accuracy &accuracy() const { return acc; }

  protected:
    Accuracy acc;
};

std::unique_ptr<Flow> makeExploreFlow(ExploreInputs in);
std::unique_ptr<Flow> makeValidateFlow(ValidateInputs in);
std::unique_ptr<Flow> makeServeFlow(ServeInputs in);

/** The flow of @p kind on the inputs drawn from @p seed. */
std::unique_ptr<Flow> makeFlow(WorkloadKind kind, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_FLOWS_HH
