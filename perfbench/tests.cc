/**
 * @file
 * The benchmark's own tests: the tail rule, span self time, seed ->
 * inputs determinism, and sim_digest repeating across pool widths and
 * between traced and untraced passes (on reduced inputs).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <thread>

#include "common/logging.hh"
#include "flows.hh"
#include "stats.hh"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i)
        v.push_back((double)i);
    return v;
}

} // anonymous namespace

TEST(TailRule, TenSamplesBeyondTheReportedPercentile)
{
    Tail t = tailOf(oneTo(100));
    EXPECT_EQ(t.value, 90.0);
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.samples, 100u);
    EXPECT_FALSE(t.reducedToMax);

    t = tailOf(oneTo(25));
    EXPECT_EQ(t.value, 15.0);
    EXPECT_DOUBLE_EQ(t.percentile, 60.0);
    EXPECT_EQ(t.beyond, 10u);

    t = tailOf(oneTo(1000));
    EXPECT_EQ(t.value, 990.0);
    EXPECT_DOUBLE_EQ(t.percentile, 99.0);
}

TEST(TailRule, SmallSamplesReportTheMaximum)
{
    Tail t = tailOf(oneTo(19));
    EXPECT_TRUE(t.reducedToMax);
    EXPECT_EQ(t.value, 19.0);
    EXPECT_EQ(t.beyond, 0u);
    EXPECT_EQ(tailOf({}).samples, 0u);
}

TEST(TailRule, FailedOpsMissEveryLimit)
{
    std::vector<double> v = oneTo(30);
    for (size_t i = 0; i < 12; ++i)
        v[i] = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(std::isinf(tailOf(v).value));
    v = oneTo(30);
    for (size_t i = 0; i < 5; ++i)
        v[i] = std::numeric_limits<double>::infinity();
    EXPECT_EQ(tailOf(v).value, 20.0);
}

TEST(TailRule, MedianOfEvenAndOddSamples)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(SpanSelfTime, NestedAndOverlappingChildrenOnSeveralThreads)
{
    // P on thread 0; A and B overlap on threads 1 and 2; C starts
    // inside P and runs past its end; G nests inside A.
    std::vector<SpanRecord> spans = {
        {"P", 1, 0, 7, 0, 0, 100},   {"A", 2, 1, 7, 1, 10, 40},
        {"B", 3, 1, 7, 2, 30, 60},   {"C", 4, 1, 7, 0, 90, 120},
        {"G", 5, 2, 7, 1, 15, 20},
    };
    std::map<std::string, double> self = selfSecondsByName(spans);
    EXPECT_NEAR(self["P"], 40e-9, 1e-15); // 100 - |[10,60] u [90,100]|
    EXPECT_NEAR(self["A"], 25e-9, 1e-15);
    EXPECT_NEAR(self["B"], 30e-9, 1e-15);
    EXPECT_NEAR(self["C"], 30e-9, 1e-15);
    EXPECT_NEAR(self["G"], 5e-9, 1e-15);
}

TEST(SpanSelfTime, SameNameSpansSumAndCoverageSkipsOpSpans)
{
    std::vector<SpanRecord> spans = {
        {"op.round", 1, 0, 1, 0, 0, 100},
        {"layer", 2, 1, 1, 0, 0, 50},
        {"layer", 3, 1, 1, 1, 40, 80},
    };
    std::map<std::string, double> self = selfSecondsByName(spans);
    EXPECT_NEAR(self["layer"], 90e-9, 1e-15);
    EXPECT_NEAR(self["op.round"], 20e-9, 1e-15);
    EXPECT_DOUBLE_EQ(layerCoverage(spans, 0, 100), 0.8);
    EXPECT_DOUBLE_EQ(layerCoverage(spans, 0, 200), 0.4);
}

TEST(SpanSelfTime, TracerLinksParentsAcrossThreads)
{
    Tracer tracer;
    uint64_t root;
    {
        Span op(&tracer, "op.root", 42);
        root = op.id();
        std::vector<std::thread> workers;
        for (int t = 0; t < 3; ++t) {
            workers.emplace_back([&] {
                Span child(&tracer, "child", 42, root);
                Span leaf(&tracer, "leaf");
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            });
        }
        for (std::thread &w : workers)
            w.join();
        Span own(&tracer, "own");
    }
    std::vector<SpanRecord> spans = tracer.collect();
    ASSERT_EQ(spans.size(), 8u);
    std::map<uint64_t, SpanRecord> byId;
    for (const SpanRecord &s : spans)
        byId[s.id] = s;
    for (const SpanRecord &s : spans) {
        EXPECT_EQ(s.op, 42u) << s.name;
        EXPECT_LE(s.startNs, s.endNs);
        std::string name = s.name;
        if (name == "child" || name == "own") {
            EXPECT_EQ(s.parent, root);
        } else if (name == "leaf") {
            EXPECT_EQ(std::string(byId[s.parent].name), "child");
            EXPECT_EQ(byId[s.parent].thread, s.thread);
        }
    }
    std::map<std::string, double> self = selfSecondsByName(spans);
    EXPECT_GE(self["leaf"], 3 * 2e-3 * 0.9);
    EXPECT_LT(self["child"], self["leaf"]);
    tracer.clear();
    EXPECT_TRUE(tracer.collect().empty());
}

TEST(SeedInputs, SameSeedSameInputsOtherSeedOtherConditions)
{
    auto conditions = [](const ValidateInputs &in) {
        std::vector<std::string> v;
        for (const ReplayCondition &c : in.conditions) {
            v.push_back(in.apps[c.app] + "/" + c.kind + "/" +
                        std::to_string(c.freqMhz) + "/" +
                        std::to_string(c.noiseSeed));
        }
        return v;
    };
    ValidateInputs a = makeValidateInputs(7), b = makeValidateInputs(7),
                   c = makeValidateInputs(8);
    EXPECT_EQ(conditions(a), conditions(b));
    EXPECT_EQ(a.profileNoiseSeed, b.profileNoiseSeed);
    EXPECT_EQ(a.serialCheck, b.serialCheck);
    EXPECT_NE(conditions(a), conditions(c));
    EXPECT_EQ(a.conditions.size(), c.conditions.size());

    ExploreInputs e1 = makeExploreInputs(7), e2 = makeExploreInputs(8);
    EXPECT_EQ(e1.apps, makeExploreInputs(7).apps);
    EXPECT_EQ(e1.apps.size(), 25u);
    EXPECT_NE(e1.apps, e2.apps);

    auto rounds = [](const ServeInputs &in) {
        std::vector<std::vector<size_t>> v;
        for (const ServeRound &r : in.rounds)
            v.push_back(r.batch);
        return v;
    };
    ServeInputs s1 = makeServeInputs(7), s2 = makeServeInputs(8);
    EXPECT_EQ(rounds(s1), rounds(makeServeInputs(7)));
    EXPECT_EQ(s1.recordings, makeServeInputs(7).recordings);
    EXPECT_TRUE(rounds(s1) != rounds(s2) ||
                s1.recordings != s2.recordings);
}

namespace
{

struct FlowRun
{
    uint64_t untracedDigest = 0;
    uint64_t tracedDigest = 0;
    Accuracy accuracy;
    std::vector<std::string> failures;
};

FlowRun
runReduced(Flow &flow, unsigned width)
{
    gt::setLogQuiet(true);
    FlowRun r;
    gt::sched::ThreadPool pool(width);
    RunContext ctx;
    ctx.pool = &pool;
    // run.py points TMPDIR into the checkout.
    const char *tmp = std::getenv("TMPDIR");
    ctx.scratchDir = tmp && *tmp ? tmp : ".";
    flow.setup(ctx);
    PassOutput plain = flow.pass(ctx);
    flow.check(ctx, r.failures);
    flow.release();
    r.accuracy = flow.accuracy();
    Tracer tracer;
    ctx.tracer = &tracer;
    PassOutput traced = flow.pass(ctx);
    flow.release();
    EXPECT_EQ(plain.failed, 0u);
    EXPECT_EQ(traced.failed, 0u);
    EXPECT_FALSE(tracer.collect().empty());
    r.untracedDigest = plain.digest;
    r.tracedDigest = traced.digest;
    return r;
}

void
expectSameAcrossWidths(const std::function<std::unique_ptr<Flow>()> &make)
{
    const unsigned wide =
        std::max(4u, std::thread::hardware_concurrency()) - 1;
    std::unique_ptr<Flow> one = make(), many = make();
    FlowRun a = runReduced(*one, 1);
    FlowRun b = runReduced(*many, wide);
    EXPECT_TRUE(a.failures.empty()) << a.failures.front();
    EXPECT_TRUE(b.failures.empty()) << b.failures.front();
    EXPECT_NE(a.untracedDigest, 0u);
    EXPECT_EQ(a.untracedDigest, a.tracedDigest);
    EXPECT_EQ(a.untracedDigest, b.untracedDigest);
    EXPECT_EQ(b.untracedDigest, b.tracedDigest);
    EXPECT_EQ(a.accuracy.errorPctMean, b.accuracy.errorPctMean);
    EXPECT_EQ(a.accuracy.errorPctMax, b.accuracy.errorPctMax);
    EXPECT_EQ(a.accuracy.selectionSpeedup, b.accuracy.selectionSpeedup);
    EXPECT_GT(a.accuracy.selectionSpeedup, 0.0);
}

} // anonymous namespace

TEST(SimDigest, ExploreRepeatsAtWidthOneAndW)
{
    expectSameAcrossWidths([] {
        ExploreInputs in;
        in.apps = {"cb-histogram-buffer", "cb-gaussian-image",
                   "cb-throughput-juliaset"};
        in.noiseSeed = 3;
        in.warmupApp = "cb-gaussian-image";
        in.checkApp = "cb-gaussian-image";
        return makeExploreFlow(in);
    });
}

TEST(SimDigest, ValidateRepeatsAtWidthOneAndW)
{
    expectSameAcrossWidths([] {
        ValidateInputs in;
        in.apps = {"cb-histogram-image", "cb-gaussian-image"};
        in.profileNoiseSeed = 5;
        ReplayCondition trial{0, "trial", false, 0.0, 1004};
        ReplayCondition freq{1, "freq", false, 350.0, 77};
        ReplayCondition arch{1, "arch", true, 0.0, 99};
        in.conditions = {trial, freq, arch};
        in.detailedApp = 1;
        in.designPoints = {{false, 0.0}, {false, 550.0}, {true, 0.0}};
        in.serialCheck = {0, 2};
        return makeValidateFlow(in);
    });
}

TEST(SimDigest, ServeRepeatsAtWidthOneAndW)
{
    expectSameAcrossWidths([] {
        ServeInputs in;
        in.recordings = {"cb-gaussian-image", "cb-throughput-juliaset"};
        in.noiseSeed = 9;
        in.rounds = {{{0, 1}}, {{1, 0, 1}}, {{0}}, {{1, 1}}};
        in.residentBudgetBytes = 1; // evict every drained session
        return makeServeFlow(in);
    });
}
