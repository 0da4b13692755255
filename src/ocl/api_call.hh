/**
 * @file
 * OpenCL-style API call identifiers and their paper classification.
 *
 * Figure 3a of the paper divides host API calls into three types:
 * kernel invocations (clEnqueueNDRangeKernel), the seven
 * synchronization calls enumerated in Section II (the only points
 * where host and device are guaranteed to align), and everything
 * else (setup, argument supply, post-processing, cleanup). That
 * classification drives both the characterization and the
 * synchronization-bounded interval scheme of Section V.
 */

#ifndef GT_OCL_API_CALL_HH
#define GT_OCL_API_CALL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/kernel.hh"

namespace gt::ocl
{

/** Host API entry points modeled by the runtime. */
enum class ApiCallId : uint8_t
{
    GetPlatformIds,
    GetDeviceIds,
    CreateContext,
    CreateCommandQueue,
    CreateProgramWithSource,
    BuildProgram,
    CreateKernel,
    CreateBuffer,
    CreateImage2D,
    SetKernelArg,
    EnqueueWriteBuffer,
    EnqueueFillBuffer,
    EnqueueNDRangeKernel,
    Finish,
    Flush,
    WaitForEvents,
    EnqueueReadBuffer,
    EnqueueReadImage,
    EnqueueCopyBuffer,
    EnqueueCopyImageToBuffer,
    ReleaseMemObject,
    ReleaseKernel,
    ReleaseProgram,
    ReleaseCommandQueue,
    ReleaseContext,
    GetKernelWorkGroupInfo,
    GetEventProfilingInfo,

    NumApiCalls,
};

constexpr int numApiCalls = static_cast<int>(ApiCallId::NumApiCalls);

/** Figure 3a's three call types. */
enum class ApiCategory : uint8_t
{
    Kernel,          //!< clEnqueueNDRangeKernel
    Synchronization, //!< the seven host/device alignment calls
    Other,           //!< setup, arguments, post-processing, cleanup
};

/** @return the paper category of @p id. */
ApiCategory apiCategory(ApiCallId id);

/** @return the OpenCL-style name, e.g. "clEnqueueNDRangeKernel". */
const char *apiCallName(ApiCallId id);

/** @return display name of a category. */
const char *apiCategoryName(ApiCategory category);

/**
 * One captured API call, as the CoFluent-style tracer sees it when it
 * intercepts the call between the application and the runtime.
 */
struct ApiCallRecord
{
    ApiCallId id = ApiCallId::GetPlatformIds;

    /** Position in the host program's API-call stream. */
    uint64_t callIndex = 0;

    /** For EnqueueNDRangeKernel: the dispatch sequence number. */
    uint64_t dispatchSeq = 0;

    /** For kernel-related calls: the kernel's name. */
    std::string kernelName;

    /** For EnqueueNDRangeKernel: the global work size argument. */
    uint64_t globalWorkSize = 0;

    /** For EnqueueNDRangeKernel: hash of the kernel's current args. */
    uint64_t argsHash = 0;

    /**
     * Full call arguments (handles, sizes, offsets, values) in the
     * entry point's parameter order. Together with payload and
     * sources this is sufficient to replay the call, which is what
     * the CoFluent-style record/replay facility relies on.
     */
    std::vector<uint64_t> uargs;

    /** Raw data for EnqueueWriteBuffer. */
    std::vector<uint8_t> payload;

    /** Kernel sources for CreateProgramWithSource. */
    std::vector<isa::KernelSource> sources;

    /** Approximate resident bytes: the struct plus its heap. */
    uint64_t footprintBytes() const;
};

} // namespace gt::ocl

#endif // GT_OCL_API_CALL_HH
