/**
 * @file
 * Recording serialization tests: round-trip fidelity (the replayed
 * stream from a loaded recording must be call-for-call identical),
 * and rejection of malformed inputs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "cfl/serialize.hh"
#include "cfl/tracer.hh"
#include "common/logging.hh"
#include "temp_path.hh"
#include "workloads/workload.hh"

namespace gt::cfl
{
namespace
{

Recording
recordApp(const std::string &name)
{
    const workloads::Workload *w = workloads::findWorkload(name);
    GT_ASSERT(w, "unknown workload");
    workloads::TemplateJit jit;
    ocl::GpuDriver driver(gpu::DeviceConfig::hd4000(), jit);
    ocl::ClRuntime rt(driver);
    Recorder recorder;
    rt.addObserver(&recorder);
    w->run(rt);
    return recorder.take();
}

TEST(Serialize, RoundTripPreservesEveryCall)
{
    Recording original = recordApp("cb-gaussian-image");
    std::stringstream buffer;
    saveRecording(original, buffer);
    Recording loaded = loadRecording(buffer);

    ASSERT_EQ(loaded.size(), original.size());
    for (size_t i = 0; i < original.calls.size(); ++i) {
        const auto &a = original.calls[i];
        const auto &b = loaded.calls[i];
        EXPECT_EQ(a.id, b.id) << "call " << i;
        EXPECT_EQ(a.callIndex, b.callIndex);
        EXPECT_EQ(a.dispatchSeq, b.dispatchSeq);
        EXPECT_EQ(a.kernelName, b.kernelName);
        EXPECT_EQ(a.globalWorkSize, b.globalWorkSize);
        EXPECT_EQ(a.argsHash, b.argsHash);
        EXPECT_EQ(a.uargs, b.uargs);
        EXPECT_EQ(a.payload, b.payload);
        ASSERT_EQ(a.sources.size(), b.sources.size());
        for (size_t k = 0; k < a.sources.size(); ++k)
            EXPECT_TRUE(a.sources[k] == b.sources[k]);
    }
}

TEST(Serialize, LoadedRecordingReplaysIdentically)
{
    Recording original = recordApp("cb-gaussian-image");
    std::stringstream buffer;
    saveRecording(original, buffer);
    Recording loaded = loadRecording(buffer);

    auto run_replay = [](const Recording &rec) {
        workloads::TemplateJit jit;
        gpu::TrialConfig trial;
        trial.noiseSigma = 0.0;
        ocl::GpuDriver driver(gpu::DeviceConfig::hd4000(), jit,
                              trial);
        ocl::ClRuntime rt(driver);
        ApiTracer tracer;
        rt.addObserver(&tracer);
        replay(rec, rt);
        return tracer.totalKernelSeconds();
    };

    EXPECT_DOUBLE_EQ(run_replay(original), run_replay(loaded));
}

TEST(Serialize, PayloadBytesSurvive)
{
    Recording rec;
    ocl::ApiCallRecord call;
    call.id = ocl::ApiCallId::EnqueueWriteBuffer;
    call.uargs = {0, 0, 0};
    call.payload = {0x00, 0xff, 0x7f, 0x80, 0x0a, 0x20};
    rec.calls.push_back(call);

    std::stringstream buffer;
    saveRecording(rec, buffer);
    Recording loaded = loadRecording(buffer);
    ASSERT_EQ(loaded.calls.size(), 1u);
    EXPECT_EQ(loaded.calls[0].payload, call.payload);
}

TEST(Serialize, KernelNamesWithSpacesSurvive)
{
    Recording rec;
    ocl::ApiCallRecord call;
    call.id = ocl::ApiCallId::CreateKernel;
    call.kernelName = "a name with  spaces";
    call.uargs = {0};
    rec.calls.push_back(call);

    std::stringstream buffer;
    saveRecording(rec, buffer);
    Recording loaded = loadRecording(buffer);
    EXPECT_EQ(loaded.calls[0].kernelName, call.kernelName);
}

TEST(Serialize, FileRoundTrip)
{
    Recording original = recordApp("cb-gaussian-image");
    std::string path = test::uniqueTempPath(".rec");
    saveRecordingFile(original, path);
    Recording loaded = loadRecordingFile(path);
    EXPECT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.dispatchCount(), original.dispatchCount());
    std::remove(path.c_str());
}

TEST(Serialize, RejectsBadMagic)
{
    setLogQuiet(true);
    std::stringstream buffer("not a recording\n");
    EXPECT_THROW(loadRecording(buffer), FatalError);
    setLogQuiet(false);
}

TEST(Serialize, RejectsTruncation)
{
    setLogQuiet(true);
    Recording original = recordApp("cb-gaussian-image");
    std::stringstream buffer;
    saveRecording(original, buffer);
    std::string text = buffer.str();
    // Drop the trailing "end\n" and some bytes.
    std::stringstream cut(text.substr(0, text.size() - 20));
    EXPECT_THROW(loadRecording(cut), FatalError);
    setLogQuiet(false);
}

TEST(Serialize, RejectsBadCallId)
{
    setLogQuiet(true);
    std::stringstream buffer(
        "gtpin-recording v1\ncall 999 0 0 0 0 0  u 0 p 0  s 0\n"
        "end\n");
    EXPECT_THROW(loadRecording(buffer), FatalError);
    setLogQuiet(false);
}

TEST(Serialize, RejectsUnsupportedVersion)
{
    setLogQuiet(true);
    std::stringstream buffer("gtpin-recording v99\nend\n");
    // A versioned header that is not ours must name the version
    // problem, not just "bad magic".
    try {
        loadRecording(buffer);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("version"),
                  std::string::npos);
    }
    setLogQuiet(false);
}

TEST(Serialize, RejectsNegativeAndHugeCounts)
{
    setLogQuiet(true);
    // A negative count would wrap through the unsigned extraction
    // into a ~2^64 resize; it must die in validation instead.
    const char *negative_uargs =
        "gtpin-recording v1\ncall 0 0 0 0 0 0  u -1 p 0  s 0\n"
        "end\n";
    std::stringstream a(negative_uargs);
    EXPECT_THROW(loadRecording(a), FatalError);

    const char *huge_payload =
        "gtpin-recording v1\n"
        "call 0 0 0 0 0 0  u 0 p 99999999999 s 0\nend\n";
    std::stringstream b(huge_payload);
    EXPECT_THROW(loadRecording(b), FatalError);

    const char *negative_string =
        "gtpin-recording v1\ncall 0 0 0 0 0 -7 x u 0 p 0  s 0\n"
        "end\n";
    std::stringstream c(negative_string);
    EXPECT_THROW(loadRecording(c), FatalError);
    setLogQuiet(false);
}

TEST(Serialize, MissingFileFatal)
{
    setLogQuiet(true);
    EXPECT_THROW(loadRecordingFile("/nonexistent/path.rec"),
                 FatalError);
    setLogQuiet(false);
}

TEST(Serialize, EmptyRecordingRoundTrips)
{
    Recording empty;
    std::stringstream buffer;
    saveRecording(empty, buffer);
    Recording loaded = loadRecording(buffer);
    EXPECT_TRUE(loaded.empty());
}

} // anonymous namespace
} // namespace gt::cfl
