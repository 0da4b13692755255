#include "sched/task_graph.hh"

#include <chrono>

#include "common/logging.hh"

namespace gt::sched
{

TaskGraph::TaskId
TaskGraph::add(std::function<void()> fn,
               const std::vector<TaskId> &deps)
{
    GT_ASSERT(!ran, "TaskGraph::add after run()");
    TaskId id = (TaskId)nodes.size();
    nodes.push_back(Node{std::move(fn), {}, 0});
    for (TaskId d : deps)
        addEdge(d, id);
    return id;
}

void
TaskGraph::addEdge(TaskId before, TaskId after)
{
    GT_ASSERT(!ran, "TaskGraph::addEdge after run()");
    GT_ASSERT(before < nodes.size() && after < nodes.size(),
              "TaskGraph edge references unknown task");
    GT_ASSERT(before < after,
              "TaskGraph edges must point forward (", before, " -> ",
              after, "); add() tasks in dependency order");
    nodes[before].successors.push_back(after);
    nodes[after].numDeps++;
}

void
TaskGraph::run(ThreadPool &pool)
{
    GT_ASSERT(!ran, "TaskGraph::run called twice");
    ran = true;
    size_t n = nodes.size();
    if (n == 0)
        return;

    struct ExecState
    {
        std::vector<std::atomic<uint32_t>> remaining;
        std::vector<std::exception_ptr> errors;
        /** Atomic: multiple failed predecessors may set a successor's
         * flag concurrently. */
        std::vector<std::atomic<char>> cancelled;
        std::atomic<size_t> settled{0};
        /** Tasks enqueued whose body, settle() included, is still
         * running; run() returns only once this is 0, so no worker
         * touches its frame or the graph after it returns. */
        std::atomic<size_t> running{0};
        std::mutex mutex;
        std::condition_variable cv;

        explicit ExecState(size_t n)
            : remaining(n), errors(n), cancelled(n)
        {}
    };
    auto state = std::make_shared<ExecState>(n);
    for (size_t i = 0; i < n; ++i) {
        state->remaining[i].store(nodes[i].numDeps);
        state->cancelled[i].store(0);
    }

    // settle() marks a node finished (run, failed, or cancelled) and
    // releases or cancels its successors. Cancellation cascades
    // iteratively; release order follows the successor lists, which
    // are in edge-creation order, keeping scheduling deterministic.
    std::function<void(TaskId)> execute; // forward declaration
    auto settle = [this, state, &execute](TaskId id, bool failed) {
        std::vector<TaskId> work{id};
        std::vector<char> parent_failed{(char)failed};
        while (!work.empty()) {
            TaskId cur = work.back();
            bool cur_failed = parent_failed.back();
            work.pop_back();
            parent_failed.pop_back();
            state->settled.fetch_add(1);
            for (TaskId s : nodes[cur].successors) {
                if (cur_failed)
                    state->cancelled[s].store(1);
                if (state->remaining[s].fetch_sub(1) == 1) {
                    if (state->cancelled[s].load()) {
                        work.push_back(s);
                        parent_failed.push_back(1);
                    } else {
                        execute(s);
                    }
                }
            }
        }
    };

    execute = [this, state, &pool, &settle](TaskId id) {
        state->running.fetch_add(1);
        pool.enqueue([this, state, &settle, id] {
            bool failed = false;
            try {
                nodes[id].fn();
            } catch (...) {
                state->errors[id] = std::current_exception();
                failed = true;
            }
            settle(id, failed);
            std::lock_guard<std::mutex> lock(state->mutex);
            if (state->running.fetch_sub(1) == 1)
                state->cv.notify_all();
        });
    };

    // Release the roots in id order.
    for (TaskId id = 0; id < n; ++id) {
        if (nodes[id].numDeps == 0)
            execute(id);
    }

    // Wait for the graph to drain; on a multi-thread pool the caller
    // helps execute tasks so run() is safe from inside a pool task.
    if (pool.threadCount() > 1) {
        while (state->running.load() > 0) {
            if (!pool.tryRunOne(0)) {
                std::unique_lock<std::mutex> lock(state->mutex);
                state->cv.wait_for(
                    lock, std::chrono::milliseconds(1), [&] {
                        return state->running.load() == 0;
                    });
            }
        }
    }
    GT_ASSERT(state->settled.load() == n,
              "task graph stalled: cycle or unreachable task");

    for (TaskId id = 0; id < n; ++id) {
        if (state->errors[id])
            std::rethrow_exception(state->errors[id]);
    }
}

} // namespace gt::sched
