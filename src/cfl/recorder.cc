#include "cfl/recorder.hh"

#include "common/logging.hh"

namespace gt::cfl
{

using ocl::ApiCallId;
using ocl::ApiCallRecord;

uint64_t
Recording::dispatchCount() const
{
    uint64_t n = 0;
    for (const auto &rec : calls) {
        if (rec.id == ApiCallId::EnqueueNDRangeKernel)
            ++n;
    }
    return n;
}

namespace
{

void
needArgs(const ApiCallRecord &rec, size_t n)
{
    if (rec.uargs.size() < n) {
        fatal("recording: call ", ocl::apiCallName(rec.id),
              " at index ", rec.callIndex, " has ", rec.uargs.size(),
              " arguments, needs ", n);
    }
}

/** Re-issue one recorded call against @p runtime. */
void
issueCall(const ApiCallRecord &rec, ocl::ClRuntime &runtime)
{
    switch (rec.id) {
      case ApiCallId::GetPlatformIds:
        runtime.getPlatformIds();
        break;
      case ApiCallId::GetDeviceIds:
        runtime.getDeviceIds();
        break;
      case ApiCallId::CreateContext:
        runtime.createContext();
        break;
      case ApiCallId::CreateCommandQueue:
        needArgs(rec, 1);
        runtime.createCommandQueue(
            ocl::Context{(uint32_t)rec.uargs[0]});
        break;
      case ApiCallId::CreateProgramWithSource:
        needArgs(rec, 1);
        runtime.createProgramWithSource(
            ocl::Context{(uint32_t)rec.uargs[0]}, rec.sources);
        break;
      case ApiCallId::BuildProgram:
        needArgs(rec, 1);
        runtime.buildProgram(
            ocl::Program{(uint32_t)rec.uargs[0]});
        break;
      case ApiCallId::CreateKernel:
        needArgs(rec, 1);
        runtime.createKernel(
            ocl::Program{(uint32_t)rec.uargs[0]},
            rec.kernelName);
        break;
      case ApiCallId::CreateBuffer:
        needArgs(rec, 2);
        runtime.createBuffer(
            ocl::Context{(uint32_t)rec.uargs[0]}, rec.uargs[1]);
        break;
      case ApiCallId::CreateImage2D:
        needArgs(rec, 4);
        runtime.createImage2D(
            ocl::Context{(uint32_t)rec.uargs[0]},
            (uint32_t)rec.uargs[1], (uint32_t)rec.uargs[2],
            (uint32_t)rec.uargs[3]);
        break;
      case ApiCallId::SetKernelArg:
        needArgs(rec, 4);
        if (rec.uargs[3]) {
            runtime.setKernelArg(
                ocl::Kernel{(uint32_t)rec.uargs[0]},
                (uint32_t)rec.uargs[1],
                ocl::Mem{(uint32_t)rec.uargs[2]});
        } else {
            runtime.setKernelArg(
                ocl::Kernel{(uint32_t)rec.uargs[0]},
                (uint32_t)rec.uargs[1],
                (uint32_t)rec.uargs[2]);
        }
        break;
      case ApiCallId::EnqueueWriteBuffer:
        needArgs(rec, 3);
        runtime.enqueueWriteBuffer(
            ocl::CommandQueue{(uint32_t)rec.uargs[0]},
            ocl::Mem{(uint32_t)rec.uargs[1]}, rec.uargs[2],
            rec.payload);
        break;
      case ApiCallId::EnqueueFillBuffer:
        needArgs(rec, 5);
        runtime.enqueueFillBuffer(
            ocl::CommandQueue{(uint32_t)rec.uargs[0]},
            ocl::Mem{(uint32_t)rec.uargs[1]},
            (uint32_t)rec.uargs[2], rec.uargs[3], rec.uargs[4]);
        break;
      case ApiCallId::EnqueueNDRangeKernel:
        needArgs(rec, 4);
        runtime.enqueueNDRangeKernel(
            ocl::CommandQueue{(uint32_t)rec.uargs[0]},
            ocl::Kernel{(uint32_t)rec.uargs[1]}, rec.uargs[2],
            (uint8_t)rec.uargs[3]);
        break;
      case ApiCallId::Finish:
        needArgs(rec, 1);
        runtime.finish(
            ocl::CommandQueue{(uint32_t)rec.uargs[0]});
        break;
      case ApiCallId::Flush:
        needArgs(rec, 1);
        runtime.flush(
            ocl::CommandQueue{(uint32_t)rec.uargs[0]});
        break;
      case ApiCallId::WaitForEvents:
        runtime.waitForEvents({});
        break;
      case ApiCallId::EnqueueReadBuffer:
        needArgs(rec, 4);
        runtime.enqueueReadBuffer(
            ocl::CommandQueue{(uint32_t)rec.uargs[0]},
            ocl::Mem{(uint32_t)rec.uargs[1]}, rec.uargs[2],
            rec.uargs[3]);
        break;
      case ApiCallId::EnqueueReadImage:
        needArgs(rec, 2);
        runtime.enqueueReadImage(
            ocl::CommandQueue{(uint32_t)rec.uargs[0]},
            ocl::Mem{(uint32_t)rec.uargs[1]});
        break;
      case ApiCallId::EnqueueCopyBuffer:
        needArgs(rec, 4);
        runtime.enqueueCopyBuffer(
            ocl::CommandQueue{(uint32_t)rec.uargs[0]},
            ocl::Mem{(uint32_t)rec.uargs[1]},
            ocl::Mem{(uint32_t)rec.uargs[2]}, rec.uargs[3]);
        break;
      case ApiCallId::EnqueueCopyImageToBuffer:
        needArgs(rec, 3);
        runtime.enqueueCopyImageToBuffer(
            ocl::CommandQueue{(uint32_t)rec.uargs[0]},
            ocl::Mem{(uint32_t)rec.uargs[1]},
            ocl::Mem{(uint32_t)rec.uargs[2]});
        break;
      case ApiCallId::GetKernelWorkGroupInfo:
        needArgs(rec, 1);
        runtime.getKernelWorkGroupInfo(
            ocl::Kernel{(uint32_t)rec.uargs[0]});
        break;
      case ApiCallId::GetEventProfilingInfo:
        needArgs(rec, 1);
        runtime.getEventProfilingInfo(
            ocl::Event{rec.uargs[0]});
        break;
      case ApiCallId::ReleaseMemObject:
        needArgs(rec, 1);
        runtime.releaseMemObject(
            ocl::Mem{(uint32_t)rec.uargs[0]});
        break;
      case ApiCallId::ReleaseKernel:
        needArgs(rec, 1);
        runtime.releaseKernel(
            ocl::Kernel{(uint32_t)rec.uargs[0]});
        break;
      case ApiCallId::ReleaseProgram:
        needArgs(rec, 1);
        runtime.releaseProgram(
            ocl::Program{(uint32_t)rec.uargs[0]});
        break;
      case ApiCallId::ReleaseCommandQueue:
        needArgs(rec, 1);
        runtime.releaseCommandQueue(
            ocl::CommandQueue{(uint32_t)rec.uargs[0]});
        break;
      case ApiCallId::ReleaseContext:
        needArgs(rec, 1);
        runtime.releaseContext(
            ocl::Context{(uint32_t)rec.uargs[0]});
        break;
      default:
        fatal("recording contains unknown call id ",
              (int)rec.id);
    }
}

/** Field-wise FNV-1a, matching the isa::contentHash idiom. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    mix(uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (b * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void
    mix(const std::string &s)
    {
        mix((uint64_t)s.size());
        for (char c : s) {
            h ^= (uint8_t)c;
            h *= 0x100000001b3ULL;
        }
    }
};

} // anonymous namespace

uint64_t
recordingContentHash(const Recording &recording)
{
    Fnv f;
    f.mix((uint64_t)recording.calls.size());
    for (const ApiCallRecord &rec : recording.calls) {
        f.mix((uint64_t)rec.id);
        f.mix(rec.callIndex);
        f.mix(rec.dispatchSeq);
        f.mix(rec.kernelName);
        f.mix(rec.globalWorkSize);
        f.mix(rec.argsHash);
        f.mix((uint64_t)rec.uargs.size());
        for (uint64_t u : rec.uargs)
            f.mix(u);
        f.mix((uint64_t)rec.payload.size());
        for (uint8_t b : rec.payload) {
            f.h ^= b;
            f.h *= 0x100000001b3ULL;
        }
        f.mix((uint64_t)rec.sources.size());
        for (const isa::KernelSource &src : rec.sources) {
            f.mix(src.name);
            f.mix(src.templateName);
            f.mix((uint64_t)src.params.size());
            for (int64_t p : src.params)
                f.mix((uint64_t)p);
        }
    }
    return f.h;
}

void
replay(const Recording &recording, ocl::ClRuntime &runtime)
{
    GT_ASSERT(runtime.apiCallCount() == 0,
              "replay requires a fresh runtime");
    for (const ApiCallRecord &call : recording.calls)
        issueCall(call, runtime);
}

} // namespace gt::cfl
