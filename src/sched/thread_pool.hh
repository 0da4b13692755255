/**
 * @file
 * Work-stealing thread pool and deterministic data-parallel loops.
 *
 * Every compute layer of the library (suite profiling, the 30-config
 * explorer, SimPoint k-means, cross-trial validation) fans its work
 * out through one of these pools. The design goals, in order:
 *
 *  1. **Determinism.** Results must be bit-identical to the serial
 *     path regardless of thread count. The pool itself never makes a
 *     value-affecting decision: parallelFor() assigns loop chunks by
 *     index, parallelReduce() combines per-chunk partials in chunk
 *     order with a caller-fixed grain (so the floating-point
 *     reduction tree is a function of the problem size only, never
 *     of the thread count or of scheduling luck), and exceptions
 *     propagate lowest-index-first.
 *  2. **No deadlock under nesting.** Layers nest (exploreConfigs
 *     tasks call cluster(), which runs parallelFor internally), so
 *     blocking loops are executed cooperatively: the calling thread
 *     claims chunks itself while pool workers help, which guarantees
 *     forward progress even when every worker is busy.
 *  3. **Serial fallback.** A pool constructed with one thread spawns
 *     no workers at all; submit() and the loops execute inline on
 *     the caller, reproducing the pre-scheduler behavior exactly.
 *
 * Thread count resolution: explicit constructor argument, else the
 * GT_THREADS environment variable (a positive integer), else
 * std::thread::hardware_concurrency().
 *
 * Work stealing: each worker owns a deque; tasks submitted from a
 * worker push to its own deque (popped LIFO for locality), external
 * submissions land in a shared injector queue, and an idle worker
 * that finds both empty steals FIFO from a sibling. stealCount()
 * exposes the steal counter for tests.
 *
 * Layers that run many independent jobs (the profiling service's
 * replays) thread one shared pool through their options instead of
 * sizing pools of their own. That alone bounds oversubscription:
 * pool tasks run only on the pool's workers, and a blocking loop's
 * caller claims chunks of its own loop only, so no admission cap is
 * layered on top.
 */

#ifndef GT_SCHED_THREAD_POOL_HH
#define GT_SCHED_THREAD_POOL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gt::sched
{

/**
 * Threads a default-constructed pool uses: GT_THREADS if set to a
 * positive integer, otherwise hardware_concurrency(), never 0.
 */
unsigned defaultThreadCount();

/** Work-stealing thread pool. */
class ThreadPool
{
  public:
    /**
     * @param threads total concurrency. 1 means fully inline
     *        (serial) execution with no worker threads; N > 1 spawns
     *        N workers.
     */
    explicit ThreadPool(unsigned threads = defaultThreadCount());

    /** Drains queued tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Concurrency this pool was built with (>= 1). */
    unsigned threadCount() const { return numThreads; }

    /** Total successful steals since construction (for tests). */
    uint64_t stealCount() const { return steals.load(); }

    /**
     * Schedule @p fn and return a future for its result. On a
     * 1-thread pool the task runs inline before submit() returns.
     * Exceptions thrown by @p fn surface from future::get().
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        enqueue([task] { (*task)(); });
        return future;
    }

    /**
     * Run @p body(i) for every i in [0, n), cooperatively: the
     * caller claims chunks alongside the workers, so the call is
     * safe from within pool tasks (no deadlock under nesting).
     * Iteration-to-chunk assignment depends only on @p n and
     * @p grain (0 = a size-derived default), never on the thread
     * count, and each index is executed exactly once, so any
     * per-index output is deterministic. Blocks until every
     * iteration has finished. If bodies throw, the exception of the
     * lowest-numbered throwing chunk is rethrown.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &body,
                     size_t grain = 0);

    /**
     * Deterministic reduction: partials are computed per chunk of
     * exactly @p grain indices ([begin, end) passed to @p chunk_fn)
     * and combined **in ascending chunk order** with @p combine.
     * Because the chunk layout is fixed by @p n and @p grain alone,
     * the floating-point combination tree — and therefore the result,
     * bit for bit — is independent of the thread count.
     */
    template <typename T>
    T
    parallelReduce(size_t n, size_t grain, T identity,
                   const std::function<T(size_t, size_t)> &chunk_fn,
                   const std::function<T(T &&, T &&)> &combine)
    {
        if (n == 0)
            return identity;
        if (grain == 0)
            grain = defaultGrain(n);
        size_t num_chunks = (n + grain - 1) / grain;
        std::vector<T> partials(num_chunks, identity);
        parallelFor(
            num_chunks,
            [&](size_t c) {
                size_t begin = c * grain;
                size_t end = std::min(n, begin + grain);
                partials[c] = chunk_fn(begin, end);
            },
            1);
        T acc = std::move(partials[0]);
        for (size_t c = 1; c < num_chunks; ++c)
            acc = combine(std::move(acc), std::move(partials[c]));
        return acc;
    }

    /** The process-wide pool, sized by defaultThreadCount(). */
    static ThreadPool &global();

  private:
    friend class TaskGraph;

    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<std::function<void()>> deque;
    };

    /** Chunk size heuristic when the caller does not care: enough
     * chunks for balance, few enough to keep dispatch cheap. */
    size_t
    defaultGrain(size_t n) const
    {
        size_t pieces = (size_t)numThreads * 8;
        return std::max<size_t>(1, (n + pieces - 1) / pieces);
    }

    void enqueue(std::function<void()> fn);
    void workerLoop(unsigned index);
    bool tryRunOne(unsigned self);

    unsigned numThreads;
    std::vector<std::unique_ptr<WorkerQueue>> queues;
    std::vector<std::thread> workers;

    std::mutex injectorMutex;
    std::deque<std::function<void()>> injector;
    std::condition_variable wakeup;
    std::atomic<bool> stopping{false};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> pendingTasks{0};
};

} // namespace gt::sched

#endif // GT_SCHED_THREAD_POOL_HH
