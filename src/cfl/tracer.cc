#include "cfl/tracer.hh"

namespace gt::cfl
{

void
ApiTracer::onApiCall(const ocl::ApiCallRecord &record)
{
    // Store a light copy: payloads can be large and the tracer only
    // needs identity and metadata (the recorder keeps full copies).
    ocl::ApiCallRecord light = record;
    light.payload.clear();
    light.sources.clear();
    calls.push_back(std::move(light));
    ++perCallCounts[(int)record.id];
    ++categoryCounts[(int)ocl::apiCategory(record.id)];
}

void
ApiTracer::onDispatchExecuted(const ocl::DispatchResult &result)
{
    KernelTiming t;
    t.seq = result.seq;
    t.kernelId = result.kernelId;
    t.kernelName = result.kernelName;
    t.globalWorkSize = result.globalSize;
    t.argsHash = result.argsHash;
    t.seconds = result.time.seconds;
    kernelSeconds += t.seconds;
    timings.push_back(std::move(t));
}

uint64_t
ApiTracer::categoryCalls(ocl::ApiCategory category) const
{
    return categoryCounts[(int)category];
}

double
ApiTracer::categoryFraction(ocl::ApiCategory category) const
{
    uint64_t total = totalCalls();
    if (total == 0)
        return 0.0;
    return (double)categoryCalls(category) / (double)total;
}

void
ApiTracer::reset()
{
    calls.clear();
    perCallCounts.fill(0);
    categoryCounts.fill(0);
    timings.clear();
    kernelSeconds = 0.0;
}

} // namespace gt::cfl
