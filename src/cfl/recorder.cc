#include "cfl/recorder.hh"

#include <bit>
#include <cstring>

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

/**
 * Word-at-a-time field hash: every 64-bit field is one xxHash64-style
 * round (multiply, rotate, multiply) folded into the running state,
 * byte runs go 8 bytes per round behind their length, and value()
 * ends with xxHash64's avalanche.
 */
struct WordHash
{
    static constexpr uint64_t P1 = 0x9e3779b185ebca87ULL;
    static constexpr uint64_t P2 = 0xc2b2ae3d27d4eb4fULL;
    static constexpr uint64_t P3 = 0x165667b19e3779f9ULL;
    static constexpr uint64_t P4 = 0x85ebca77c2b2ae63ULL;

    uint64_t h = 0x27d4eb2f165667c5ULL;

    void
    mix(uint64_t v)
    {
        h ^= std::rotl(v * P2, 31) * P1;
        h = std::rotl(h, 27) * P1 + P4;
    }

    /** The length, then the bytes in little-endian words; the last
     * partial word is zero-padded (the length disambiguates it). */
    void
    mix(const void *data, size_t n)
    {
        mix((uint64_t)n);
        const auto *p = static_cast<const unsigned char *>(data);
        for (; n >= 8; p += 8, n -= 8) {
            uint64_t w;
            std::memcpy(&w, p, 8);
            mix(w);
        }
        if (n > 0) {
            uint64_t w = 0;
            for (size_t i = 0; i < n; ++i)
                w |= (uint64_t)p[i] << (8 * i);
            mix(w);
        }
    }

    void mix(const std::string &s) { mix(s.data(), s.size()); }

    uint64_t
    value() const
    {
        uint64_t v = h;
        v ^= v >> 33;
        v *= P2;
        v ^= v >> 29;
        v *= P3;
        v ^= v >> 32;
        return v;
    }
};

} // anonymous namespace

uint64_t
recordingContentHash(const Recording &recording)
{
    WordHash f;
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
        f.mix(rec.payload.data(), rec.payload.size());
        f.mix((uint64_t)rec.sources.size());
        for (const isa::KernelSource &src : rec.sources) {
            f.mix(src.name);
            f.mix(src.templateName);
            f.mix((uint64_t)src.params.size());
            for (int64_t p : src.params)
                f.mix((uint64_t)p);
        }
    }
    return f.value();
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
