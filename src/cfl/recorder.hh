/**
 * @file
 * CoFluent-style record and replay.
 *
 * Section V-E: selections must stay findable across trials despite
 * non-determinism, so the paper records one execution's API stream
 * (call names, configuration parameters, memory buffers and images,
 * kernel code) and replays it natively with "a consistent and
 * repeatable ordering of API calls". Recorder captures the complete
 * argumented call stream; replay() re-issues it against a fresh
 * runtime — typically one whose driver models a different trial,
 * frequency, or architecture generation, which is exactly how the
 * Fig. 8 validations are produced.
 */

#ifndef GT_CFL_RECORDER_HH
#define GT_CFL_RECORDER_HH

#include <vector>

#include "ocl/runtime.hh"

namespace gt::cfl
{

/** A recorded execution: the complete, replayable API call stream. */
struct Recording
{
    std::vector<ocl::ApiCallRecord> calls;

    bool empty() const { return calls.empty(); }
    size_t size() const { return calls.size(); }

    /** Number of kernel dispatches in the recording. */
    uint64_t dispatchCount() const;
};

/** Captures the full call stream as an API observer. */
class Recorder : public ocl::ApiObserver
{
  public:
    void
    onApiCall(const ocl::ApiCallRecord &record) override
    {
        recording.calls.push_back(record);
    }

    const Recording &result() const { return recording; }
    Recording take() { return std::move(recording); }

  private:
    Recording recording;
};

/**
 * Content identity of a recording: a fold over every field of every
 * call — ids, indices, kernel names, argument vectors, buffer
 * payloads, and kernel sources. Two recordings hash equal exactly
 * when a replay of either issues the identical call stream, which is
 * what lets the profiling service share replay artifacts (profiles,
 * timings, sync epochs) across tenants that submit the same
 * workload.
 *
 * Each 64-bit field is one xxHash64-style multiply-rotate-multiply
 * round; names and payloads are folded 8 bytes per round behind
 * their length, and the result is avalanched. The value is an
 * in-process key only (the service's artifact cache, perfbench's
 * explore digest): nothing persists it, so the mix may change
 * between versions.
 */
uint64_t recordingContentHash(const Recording &recording);

/**
 * Replay @p recording against @p runtime, re-issuing every call in
 * order. The runtime must be fresh (no prior handles created);
 * handle values are deterministic so the recorded ids resolve
 * identically. Throws FatalError on a malformed recording.
 */
void replay(const Recording &recording, ocl::ClRuntime &runtime);

} // namespace gt::cfl

#endif // GT_CFL_RECORDER_HH
