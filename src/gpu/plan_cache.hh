/**
 * @file
 * Content-addressed cross-driver cache for execution plans.
 *
 * Every GpuDriver owns an Executor, and every Executor derives the
 * same per-binary artifacts before it can run a kernel: the
 * relevance slice, the predecoded uop program, per-block issue cycles
 * and per-block static summaries — collectively an ExecPlan.
 * Within one driver those are memoized per binary address; across
 * drivers (the profiling service runs one driver per tenant) the
 * memoization restarts from zero even though tenants overwhelmingly
 * submit the same kernels.
 *
 * SharedPlanCache closes that gap. It keys on isa::contentHash — the
 * semantic identity of a binary, independent of which driver JIT-
 * compiled it — and stores immutable plans behind shared_ptr, so
 * a plan built by one tenant's executor is adopted by every other.
 * The sharing contract is the repo-wide "fully built ⇒ const,
 * shareable" rule:
 *
 *  - a plan is inserted only after it is completely built;
 *  - once inserted it is never mutated (first insert wins; later
 *    duplicate builds are discarded and the winner is adopted);
 *  - lookups hand out shared_ptr<const ExecPlan>, so readers never
 *    write and lifetime is safe even if the cache is cleared.
 *
 * Lookup and insert take one mutex and are safe from any thread; the
 * build/hit/miss counters are updated under it, so the stats are
 * exact under concurrency (the TSan-covered service tests hammer
 * exactly this path). One lock is enough: the service's traffic is
 * one submitting thread plus the pool's workers. Plans depend on the
 * device's FPU width (issue cycles), so a SharedPlanCache is bound to
 * one DeviceConfig and executors assert compatibility when attaching.
 */

#ifndef GT_GPU_PLAN_CACHE_HH
#define GT_GPU_PLAN_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "gpu/device_config.hh"
#include "gpu/exec_profile.hh"
#include "isa/slice.hh"
#include "isa/uop.hh"

namespace gt::gpu
{

/**
 * Everything an executor derives from one kernel binary before
 * running it: the uop lowering, the relevance slice, issue-cycle
 * tables, and the per-block summaries profiles are derived from.
 * Immutable once built (the executor builds it fully, then
 * publishes). Shape fields double as a belt-and-braces check against
 * content-hash collisions.
 */
struct ExecPlan
{
    size_t numBlocks = 0;
    uint64_t numInstrs = 0;

    isa::Relevance rel;
    /** Predecoded micro-op program (uop backend). */
    isa::UopProgram prog;
    /** Issue cycles per block (application + instrumentation). */
    std::vector<double> blockCycles;
    /** blockCycles flattened parallel to prog.members, so the uop
     * backend's per-superblock accrual reads sequentially instead
     * of chasing member -> block indirections. */
    std::vector<double> memberCycles;
    /** Total instructions per block (for the runaway limit). */
    std::vector<uint64_t> blockInstrs;
    /** Indices of instructions evaluated in Fast mode, per block. */
    std::vector<std::vector<uint16_t>> relevantIdx;
    /** Registers [0, clearRegs) may be read before written; reset
     * zeroes exactly these (0 = the kernel reads no registers). */
    uint16_t clearRegs = 0;
    /** Kernel touches shared-local memory, so reset must clear
     * the 16 KB local block; provably untouched => skipped. */
    bool usesLocal = false;
    /** Static per-block totals (ExecProfile::deriveFromBlocks). */
    KernelSummary summary;

    /** @return whether this plan matches @p bin's shape. */
    bool
    matchesShape(const isa::KernelBinary &bin) const
    {
        return numBlocks == bin.blocks.size() &&
            numInstrs == bin.staticInstrCount();
    }

    /** Approximate resident bytes of this plan's owned storage (the
     * service's footprint accounting; deterministic, not exact
     * allocator truth). */
    uint64_t memoryBytes() const;
};

/** Exact counters of one shared cache. */
struct SharedCacheStats
{
    uint64_t builds = 0;  //!< artifacts built and published
    uint64_t hits = 0;    //!< lookups served from the cache
    uint64_t misses = 0;  //!< lookups that found nothing
};

/**
 * Cross-driver memo table of ExecPlans, keyed on binary content
 * hash. Thread-safe; bound to one device configuration.
 */
class SharedPlanCache
{
  public:
    explicit SharedPlanCache(const DeviceConfig &config)
        : config_(config)
    {
    }

    SharedPlanCache(const SharedPlanCache &) = delete;
    SharedPlanCache &operator=(const SharedPlanCache &) = delete;

    /** @return the plan for @p content_hash, or null on miss. */
    std::shared_ptr<const ExecPlan>
    find(uint64_t content_hash) const
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = table.find(content_hash);
        if (it == table.end()) {
            ++counters.misses;
            return nullptr;
        }
        ++counters.hits;
        return it->second;
    }

    /**
     * Publish a fully built plan. First insert wins: if another
     * thread raced a build of the same binary in first, its plan is
     * returned and @p plan is discarded, so every executor adopts
     * one canonical artifact.
     */
    std::shared_ptr<const ExecPlan>
    insert(uint64_t content_hash, std::shared_ptr<const ExecPlan> plan)
    {
        std::lock_guard<std::mutex> lock(mu);
        auto [it, fresh] = table.emplace(content_hash, std::move(plan));
        if (fresh)
            ++counters.builds;
        return it->second;
    }

    /** Exact build/hit/miss counters. */
    SharedCacheStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return counters;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return table.size();
    }

    /** Approximate resident bytes of every cached plan plus table
     * overhead (see ExecPlan::memoryBytes). */
    uint64_t memoryBytes() const;

    const DeviceConfig &deviceConfig() const { return config_; }

  private:
    const DeviceConfig config_;
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::shared_ptr<const ExecPlan>> table;
    mutable SharedCacheStats counters;
};

} // namespace gt::gpu

#endif // GT_GPU_PLAN_CACHE_HH
