/**
 * @file
 * Scheduler tests: pool lifecycle, exception propagation,
 * work-stealing under oversubscription, TaskGraph dependency /
 * cancellation semantics — and the library-level determinism
 * guarantee: profileSuite() and exploreConfigs() are bit-identical
 * at every thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <thread>

#include "common/logging.hh"
#include "core/pipeline.hh"
#include "sched/task_graph.hh"
#include "sched/thread_pool.hh"

namespace gt::sched
{
namespace
{

TEST(ThreadPool, DefaultThreadCountHonorsEnv)
{
    ::setenv("GT_THREADS", "3", 1);
    EXPECT_EQ(defaultThreadCount(), 3u);
    setLogQuiet(true);
    ::setenv("GT_THREADS", "zero", 1);
    EXPECT_GE(defaultThreadCount(), 1u); // falls back, never 0
    ::setenv("GT_THREADS", "-2", 1);
    EXPECT_GE(defaultThreadCount(), 1u);
    setLogQuiet(false);
    ::unsetenv("GT_THREADS");
    EXPECT_GE(defaultThreadCount(), 1u);
}

TEST(ThreadPool, IdleConstructDestruct)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
    }
}

TEST(ThreadPool, SubmitReturnsValues)
{
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        std::vector<std::future<int>> futures;
        for (int i = 0; i < 32; ++i)
            futures.push_back(pool.submit([i] { return i * i; }));
        for (int i = 0; i < 32; ++i)
            EXPECT_EQ(futures[(size_t)i].get(), i * i);
    }
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i) {
            pool.submit([&ran] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
                ran.fetch_add(1);
            });
        }
    } // ~ThreadPool joins only after every task ran
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        std::future<void> f =
            pool.submit([] { throw std::runtime_error("boom"); });
        EXPECT_THROW(f.get(), std::runtime_error);
    }
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    for (unsigned threads : {1u, 3u, 8u}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(10'000);
        for (auto &h : hits)
            h.store(0);
        pool.parallelFor(hits.size(),
                         [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForPropagatesLowestChunkException)
{
    ThreadPool pool(4);
    // Chunks of one index; indices 300 and 700 both throw. The
    // lowest-indexed chunk's exception must win deterministically.
    try {
        pool.parallelFor(
            1000,
            [](size_t i) {
                if (i == 300 || i == 700)
                    throw std::runtime_error(std::to_string(i));
            },
            1);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "300");
    }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    ThreadPool pool(2); // fewer workers than nested loops in flight
    std::atomic<int> total{0};
    pool.parallelFor(
        8,
        [&](size_t) {
            pool.parallelFor(
                64, [&](size_t) { total.fetch_add(1); }, 4);
        },
        1);
    EXPECT_EQ(total.load(), 8 * 64);
}

TEST(ThreadPool, ParallelReduceIsThreadCountInvariant)
{
    // A sum whose FP result depends on the combination tree: the
    // fixed grain must make it identical for every pool size.
    std::vector<double> values(5000);
    for (size_t i = 0; i < values.size(); ++i)
        values[i] = 1.0 / (double)(i + 1);

    auto sum_with = [&](unsigned threads) {
        ThreadPool pool(threads);
        return pool.parallelReduce<double>(
            values.size(), 256, 0.0,
            [&](size_t begin, size_t end) {
                double part = 0.0;
                for (size_t i = begin; i < end; ++i)
                    part += values[i];
                return part;
            },
            [](double &&a, double &&b) { return a + b; });
    };

    double serial = sum_with(1);
    EXPECT_EQ(serial, sum_with(2));
    EXPECT_EQ(serial, sum_with(5));
    EXPECT_EQ(serial, sum_with(16));
}

TEST(ThreadPool, StealsFromABusyWorker)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    // The spawner enqueues its children onto its own worker deque;
    // the only way the other three workers can participate is by
    // stealing.
    pool.submit([&] {
          for (int i = 0; i < 128; ++i) {
              pool.submit([&ran] {
                  std::this_thread::sleep_for(
                      std::chrono::microseconds(200));
                  ran.fetch_add(1);
              });
          }
      }).get();
    // Wait for the children (submit futures were discarded on
    // purpose: the spawner must not block on them).
    for (int spins = 0; ran.load() < 128 && spins < 10'000; ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(ran.load(), 128);
    EXPECT_GT(pool.stealCount(), 0u);
}

TEST(ThreadPool, SurvivesOversubscription)
{
    unsigned hw = std::thread::hardware_concurrency();
    ThreadPool pool(2 * std::max(1u, hw) + 4);
    std::atomic<int> ran{0};
    pool.parallelFor(
        2000,
        [&](size_t) {
            std::this_thread::yield();
            ran.fetch_add(1);
        },
        1);
    EXPECT_EQ(ran.load(), 2000);
}

TEST(TaskGraph, RespectsDependencyEdges)
{
    ThreadPool pool(4);
    std::mutex mutex;
    std::vector<int> order;
    auto record = [&](int id) {
        std::lock_guard<std::mutex> lock(mutex);
        order.push_back(id);
    };

    TaskGraph graph;
    auto a = graph.add([&] { record(0); });
    auto b = graph.add([&] { record(1); }, {a});
    auto c = graph.add([&] { record(2); }, {a, b});
    graph.add([&] { record(3); }, {c});
    graph.run(pool);

    ASSERT_EQ(order.size(), 4u);
    auto pos = [&](int id) {
        return std::find(order.begin(), order.end(), id) -
            order.begin();
    };
    EXPECT_LT(pos(0), pos(1));
    EXPECT_LT(pos(1), pos(2));
    EXPECT_LT(pos(2), pos(3));
}

TEST(TaskGraph, DiamondRunsEveryTaskOnce)
{
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        std::atomic<int> runs{0};
        TaskGraph graph;
        auto root = graph.add([&] { runs.fetch_add(1); });
        auto left = graph.add([&] { runs.fetch_add(1); }, {root});
        auto right = graph.add([&] { runs.fetch_add(1); }, {root});
        graph.add([&] { runs.fetch_add(1); }, {left, right});
        graph.run(pool);
        EXPECT_EQ(runs.load(), 4);
    }
}

TEST(TaskGraph, FailureCancelsSuccessorsAndRethrows)
{
    setLogQuiet(true);
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        std::atomic<bool> successor_ran{false};
        std::atomic<bool> independent_ran{false};
        TaskGraph graph;
        auto a = graph.add(
            [] { throw std::runtime_error("task a failed"); });
        graph.add([&] { successor_ran.store(true); }, {a});
        graph.add([&] { independent_ran.store(true); });
        EXPECT_THROW(graph.run(pool), std::runtime_error);
        EXPECT_FALSE(successor_ran.load());
        EXPECT_TRUE(independent_ran.load());
    }
    setLogQuiet(false);
}

// --- Library-level determinism across thread counts ---------------

void
expectIdenticalExplorations(const core::Exploration &a,
                            const core::Exploration &b)
{
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t i = 0; i < a.results.size(); ++i) {
        const core::ConfigResult &ra = a.results[i];
        const core::ConfigResult &rb = b.results[i];
        EXPECT_EQ(ra.selection.scheme, rb.selection.scheme);
        EXPECT_EQ(ra.selection.feature, rb.selection.feature);
        EXPECT_EQ(ra.selection.selected, rb.selection.selected);
        EXPECT_EQ(ra.selection.ratios, rb.selection.ratios); // bitwise
        EXPECT_EQ(ra.selection.selectedInstrs,
                  rb.selection.selectedInstrs);
        EXPECT_EQ(ra.selection.totalInstrs, rb.selection.totalInstrs);
        EXPECT_EQ(ra.errorPct, rb.errorPct); // bitwise
    }
}

TEST(Determinism, ExploreConfigsIsThreadCountInvariant)
{
    setLogQuiet(true);
    core::ProfiledApp app = core::profileApp(
        *workloads::findWorkload("cb-gaussian-image"));

    auto explore_with = [&](unsigned threads) {
        ThreadPool pool(threads);
        core::simpoint::ClusterOptions options;
        options.pool = &pool;
        return core::exploreConfigs(app.db, options);
    };

    core::Exploration serial = explore_with(1);
    core::Exploration four = explore_with(4);
    core::Exploration hw = explore_with(
        std::max(1u, std::thread::hardware_concurrency()));
    expectIdenticalExplorations(serial, four);
    expectIdenticalExplorations(serial, hw);
    setLogQuiet(false);
}

TEST(Determinism, ProfileSuiteMatchesSerialProfileApp)
{
    setLogQuiet(true);
    std::vector<const workloads::Workload *> apps{
        workloads::findWorkload("cb-gaussian-image"),
        workloads::findWorkload("cb-histogram-image"),
        workloads::findWorkload("sandra-crypt-aes128"),
    };
    for (const auto *w : apps)
        ASSERT_NE(w, nullptr);

    // Reference: the plain serial loop everyone used before.
    std::vector<core::ProfiledApp> reference;
    for (const auto *w : apps)
        reference.push_back(core::profileApp(*w));

    for (unsigned threads :
         {1u, 4u, std::max(1u, std::thread::hardware_concurrency())}) {
        ThreadPool pool(threads);
        std::vector<core::ProfiledApp> suite = core::profileSuite(
            apps, gpu::DeviceConfig::hd4000(), {}, &pool);
        ASSERT_EQ(suite.size(), reference.size());
        for (size_t i = 0; i < suite.size(); ++i) {
            EXPECT_EQ(suite[i].name, reference[i].name);
            EXPECT_EQ(suite[i].db.numDispatches(),
                      reference[i].db.numDispatches());
            EXPECT_EQ(suite[i].db.totalInstrs(),
                      reference[i].db.totalInstrs());
            // Modeled times are doubles: bitwise equality required.
            EXPECT_EQ(suite[i].db.totalSeconds(),
                      reference[i].db.totalSeconds());
            for (uint64_t d = 0; d < suite[i].db.numDispatches();
                 ++d) {
                ASSERT_EQ(suite[i].db.seconds(d),
                          reference[i].db.seconds(d));
                ASSERT_EQ(suite[i].db.profileAt(d).instrs,
                          reference[i].db.profileAt(d).instrs);
            }
            EXPECT_EQ(suite[i].recording.size(),
                      reference[i].recording.size());
        }
    }
    setLogQuiet(false);
}

TEST(Determinism, RngSplitIsOrderIndependent)
{
    Rng base(12345);
    Rng a_first = base.split(0);
    Rng b_first = base.split(7);
    // Splitting in the opposite order (or from a copy) must produce
    // the same streams — split() never advances the parent.
    Rng b_again = base.split(7);
    Rng a_again = base.split(0);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a_first.next(), a_again.next());
        EXPECT_EQ(b_first.next(), b_again.next());
    }
    // And distinct streams differ.
    Rng x = base.split(1), y = base.split(2);
    bool all_equal = true;
    for (int i = 0; i < 16; ++i)
        all_equal = all_equal && (x.next() == y.next());
    EXPECT_FALSE(all_equal);
}

} // anonymous namespace
} // namespace gt::sched
