#include "ocl/api_call.hh"

#include "common/logging.hh"

namespace gt::ocl
{

ApiCategory
apiCategory(ApiCallId id)
{
    switch (id) {
      case ApiCallId::EnqueueNDRangeKernel:
        return ApiCategory::Kernel;
      // The seven synchronization calls of Section II.
      case ApiCallId::Finish:
      case ApiCallId::Flush:
      case ApiCallId::WaitForEvents:
      case ApiCallId::EnqueueReadBuffer:
      case ApiCallId::EnqueueReadImage:
      case ApiCallId::EnqueueCopyBuffer:
      case ApiCallId::EnqueueCopyImageToBuffer:
        return ApiCategory::Synchronization;
      default:
        return ApiCategory::Other;
    }
}

const char *
apiCallName(ApiCallId id)
{
    switch (id) {
      case ApiCallId::GetPlatformIds: return "clGetPlatformIDs";
      case ApiCallId::GetDeviceIds: return "clGetDeviceIDs";
      case ApiCallId::CreateContext: return "clCreateContext";
      case ApiCallId::CreateCommandQueue:
        return "clCreateCommandQueue";
      case ApiCallId::CreateProgramWithSource:
        return "clCreateProgramWithSource";
      case ApiCallId::BuildProgram: return "clBuildProgram";
      case ApiCallId::CreateKernel: return "clCreateKernel";
      case ApiCallId::CreateBuffer: return "clCreateBuffer";
      case ApiCallId::CreateImage2D: return "clCreateImage2D";
      case ApiCallId::SetKernelArg: return "clSetKernelArg";
      case ApiCallId::EnqueueWriteBuffer:
        return "clEnqueueWriteBuffer";
      case ApiCallId::EnqueueFillBuffer:
        return "clEnqueueFillBuffer";
      case ApiCallId::EnqueueNDRangeKernel:
        return "clEnqueueNDRangeKernel";
      case ApiCallId::Finish: return "clFinish";
      case ApiCallId::Flush: return "clFlush";
      case ApiCallId::WaitForEvents: return "clWaitForEvents";
      case ApiCallId::EnqueueReadBuffer:
        return "clEnqueueReadBuffer";
      case ApiCallId::EnqueueReadImage: return "clEnqueueReadImage";
      case ApiCallId::EnqueueCopyBuffer:
        return "clEnqueueCopyBuffer";
      case ApiCallId::EnqueueCopyImageToBuffer:
        return "clEnqueueCopyImageToBuffer";
      case ApiCallId::ReleaseMemObject: return "clReleaseMemObject";
      case ApiCallId::ReleaseKernel: return "clReleaseKernel";
      case ApiCallId::ReleaseProgram: return "clReleaseProgram";
      case ApiCallId::ReleaseCommandQueue:
        return "clReleaseCommandQueue";
      case ApiCallId::ReleaseContext: return "clReleaseContext";
      case ApiCallId::GetKernelWorkGroupInfo:
        return "clGetKernelWorkGroupInfo";
      case ApiCallId::GetEventProfilingInfo:
        return "clGetEventProfilingInfo";
      default:
        panic("apiCallName: invalid id ", (int)id);
    }
}

uint64_t
ApiCallRecord::footprintBytes() const
{
    uint64_t bytes = sizeof(ApiCallRecord) + kernelName.size() +
                     uargs.size() * sizeof(uint64_t) + payload.size();
    for (const isa::KernelSource &src : sources) {
        bytes += sizeof(isa::KernelSource) + src.name.size() +
                 src.templateName.size() +
                 src.params.size() * sizeof(int64_t);
    }
    return bytes;
}

const char *
apiCategoryName(ApiCategory category)
{
    switch (category) {
      case ApiCategory::Kernel: return "kernel";
      case ApiCategory::Synchronization: return "synchronization";
      case ApiCategory::Other: return "other";
      default:
        panic("apiCategoryName: invalid category ", (int)category);
    }
}

} // namespace gt::ocl
