/**
 * @file
 * CoFluent-style host API tracer.
 *
 * The paper uses the Intel CoFluent CPR tool for everything GT-Pin
 * (a device-side profiler) cannot see: counting and categorizing the
 * OpenCL API calls the CPU makes (Fig. 3a), and timing each kernel
 * invocation, which supplies the "measured SPI" side of the
 * validation heuristic (Eq. 1). ApiTracer is that tool: it observes
 * every call at the application/runtime boundary without perturbing
 * execution.
 */

#ifndef GT_CFL_TRACER_HH
#define GT_CFL_TRACER_HH

#include <array>
#include <string>
#include <vector>

#include "ocl/runtime.hh"

namespace gt::cfl
{

/** Host-visible timing of one kernel invocation. */
struct KernelTiming
{
    uint64_t seq = 0;            //!< dispatch sequence number
    uint32_t kernelId = 0;
    std::string kernelName;
    uint64_t globalWorkSize = 0;
    uint64_t argsHash = 0;
    double seconds = 0.0;        //!< measured invocation wall time
};

/** Counts/categorizes API calls and records per-kernel timings. */
class ApiTracer : public ocl::ApiObserver
{
  public:
    void onApiCall(const ocl::ApiCallRecord &record) override;
    void onDispatchExecuted(const ocl::DispatchResult &result)
        override;

    /** Total API calls observed (survives takeCallStream()). */
    uint64_t
    totalCalls() const
    {
        return categoryCounts[0] + categoryCounts[1] + categoryCounts[2];
    }

    /** Calls observed in @p category (Fig. 3a's three types). */
    uint64_t categoryCalls(ocl::ApiCategory category) const;

    /** Fraction of calls in @p category (0 if no calls yet). */
    double categoryFraction(ocl::ApiCategory category) const;

    /** Per-entry-point call counts. */
    const std::array<uint64_t, ocl::numApiCalls> &perCall() const
    {
        return perCallCounts;
    }

    /** The recorded call stream (ids and light metadata only). */
    const std::vector<ocl::ApiCallRecord> &callStream() const
    {
        return calls;
    }

    /** Per-invocation kernel timings in dispatch order. */
    const std::vector<KernelTiming> &kernelTimings() const
    {
        return timings;
    }

    /** Move the call stream out (the counts stay). */
    std::vector<ocl::ApiCallRecord> takeCallStream()
    {
        return std::move(calls);
    }

    /** Move the kernel timings out. */
    std::vector<KernelTiming> takeKernelTimings()
    {
        return std::move(timings);
    }

    /** Sum of all kernel invocation times, in seconds. */
    double totalKernelSeconds() const { return kernelSeconds; }

    void reset();

  private:
    std::vector<ocl::ApiCallRecord> calls;
    std::array<uint64_t, ocl::numApiCalls> perCallCounts{};
    std::array<uint64_t, 3> categoryCounts{};
    std::vector<KernelTiming> timings;
    double kernelSeconds = 0.0;
};

} // namespace gt::cfl

#endif // GT_CFL_TRACER_HH
