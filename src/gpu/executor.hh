/**
 * @file
 * Functional execution of kernel dispatches on the modeled GPU.
 *
 * The executor interprets kernel binaries over hardware threads, each
 * covering simdWidth work items. Two modes are offered:
 *
 *  - Full: every instruction of every thread is evaluated, including
 *    memory contents. Required for cache simulation (the batched
 *    memory trace) and used by the semantic unit tests.
 *  - Fast: only control-relevant instructions (see isa/slice.hh) are
 *    evaluated; everything else is counted at basic-block grain. When
 *    a kernel's control flow is thread-invariant, one representative
 *    thread runs and counts scale by the thread count, which is what
 *    makes profiling applications with paper-scale dynamic
 *    instruction counts (10^11+) tractable.
 *
 * Orthogonally to the mode, two interpreter *backends* implement both
 * modes (chosen per executor with setBackend(), default uops):
 *
 *  - Uops (default): binaries are predecoded at plan time into
 *    operand-shape-specialized micro-ops chained into superblocks
 *    (see isa/uop.hh) and dispatched through a flat function table.
 *  - Switch: the original per-instruction opcode-switch interpreter,
 *    kept as the reference the uop backend is differentially tested
 *    against — both backends produce bitwise-identical profiles,
 *    trace deltas, and block traces.
 *
 * Instrumentation pseudo-instructions injected by the GT-Pin rewriter
 * execute in both modes, accumulating into the TraceBuffer, so
 * profiles are produced identically regardless of mode.
 *
 * The uop backend also gangs threads: when Full mode runs threads
 * explicitly, up to gangSize threads are reset into one
 * structure-of-arrays context and driven through the shared uop
 * stream in lockstep, so each handler invocation is a single
 * vectorizable loop over all gang lanes instead of one short loop per
 * thread. Threads whose control flow leaves the gang's consensus
 * superblock retire and finish on the scalar path; kernels whose
 * stores the plan-time gang-safety proof (isa::analyzeGangSafety)
 * cannot show to be order-invisible run scalar. Either way every
 * observable — profiles, trace deltas, memory, trace-record order —
 * is bitwise identical to the switch backend, which never gangs.
 */

#ifndef GT_GPU_EXECUTOR_HH
#define GT_GPU_EXECUTOR_HH

#include <memory>
#include <unordered_map>

#include "gpu/device_config.hh"
#include "gpu/exec_profile.hh"
#include "gpu/memory.hh"
#include "gpu/memtrace.hh"
#include "gpu/plan_cache.hh"
#include "isa/slice.hh"
#include "isa/uop.hh"

namespace gt::gpu
{

struct DetailedCheckpoint;
struct UopSt;

/** One kernel launch: binary, ND-range shape, and argument values. */
struct Dispatch
{
    const isa::KernelBinary *binary = nullptr;

    /** Total work items (the OpenCL global work size). */
    uint64_t globalSize = 0;

    /** Work items per hardware thread (8 or 16 on GEN). */
    uint8_t simdWidth = 16;

    /** 32-bit argument values (buffer args pass device addresses). */
    std::vector<uint32_t> args;

    /** @return hardware threads needed to cover the ND-range. */
    uint64_t
    numThreads() const
    {
        return (globalSize + simdWidth - 1) / simdWidth;
    }
};

/** Interprets dispatches and produces execution profiles. */
class Executor
{
  public:
    enum class Mode { Full, Fast };

    /** Interpreter implementation (see the file comment). */
    enum class Backend { Switch, Uops };

    /** Threads ganged into one lockstep SoA context. */
    static constexpr int gangSize = 8;

    Executor(const DeviceConfig &config, DeviceMemory &memory);
    ~Executor();

    /**
     * Execute @p dispatch and return its profile.
     *
     * @param mode       Full or Fast (Fast may fall back to Full when
     *                   control flow depends on loaded data)
     * @param trace      trace buffer for instrumentation ops (may be
     *                   null when the binary is uninstrumented)
     * @param mem_batch  memory-trace consumer: every global access is
     *                   appended to the executor's SoA trace buffer
     *                   and flushed in fixed-size chunks, in
     *                   execution order (see gpu/memtrace.hh); forces
     *                   Full mode when set
     */
    ExecProfile run(const Dispatch &dispatch, Mode mode,
                    TraceBuffer *trace = nullptr,
                    const MemBatchFn &mem_batch = {});

    /**
     * Cap on application instructions one thread may execute before
     * the executor declares a runaway kernel and panics.
     */
    void setThreadInstrLimit(uint64_t limit) { threadInstrLimit = limit; }

    /**
     * Cap on the number of threads executed explicitly when control
     * flow is thread-dependent in Fast mode; beyond it, an
     * evenly-spaced sample of threads runs and counts are scaled.
     */
    void setMaxExplicitThreads(uint64_t n) { maxExplicitThreads = n; }

    /**
     * Records per flushed chunk when run() is given a batch consumer.
     * Exposed so tests can exercise chunk-boundary behaviour (a chunk
     * of 1 delivers every access on its own); the default
     * (MemTraceSink::defaultChunk) suits production use.
     */
    void setMemTraceChunk(size_t records) { memTraceChunk = records; }

    size_t memTraceChunkSize() const { return memTraceChunk; }

    /** Select the interpreter backend (default Uops; Switch is the
     * reference the differential tests compare against). */
    void setBackend(Backend b) { backendSel = b; }

    /** Relevance analysis for @p bin, computed once and cached. */
    const isa::Relevance &relevance(const isa::KernelBinary *bin);

    /** Gang-safety analysis for @p bin, computed once and cached. */
    const isa::GangSafety &gangSafety(const isa::KernelBinary *bin);

    /**
     * Diagnostic: did the most recent run() drive threads through the
     * gang path (as opposed to scalar execution or representative/
     * sampled Fast mode)? Lets tests assert that gang coverage is
     * real rather than silently falling back.
     */
    bool lastRunGanged() const { return lastGanged; }

    /**
     * Record the basic-block sequence executed by one thread of
     * @p dispatch (Fast mode), up to @p max_len entries. Used by the
     * detailed simulator to replay control flow.
     */
    std::vector<uint32_t> blockTrace(const Dispatch &dispatch,
                                     uint64_t thread_idx,
                                     uint64_t max_len = 4'000'000);

    /**
     * Functional pre-pass hook for the detailed-simulation stack:
     * record the representative thread's block trace (capped at
     * @p trace_cap entries) and run @p dispatch in Fast mode once,
     * packaging both plus the derived truncation scaling as a
     * DetailedCheckpoint (gpu/detailed_checkpoint.hh). The result is
     * design-point independent, so one checkpoint serves every
     * machine configuration a validation sweep replays it under.
     */
    DetailedCheckpoint checkpoint(const Dispatch &dispatch,
                                  uint64_t trace_cap = 4'000'000);

    /**
     * Drop cached analyses (call when binaries are re-JITted). Only
     * the local per-address map is cleared; a shared plan cache is
     * content-addressed, so its entries stay valid across re-JITs by
     * construction.
     */
    void invalidateAnalyses() { plans.clear(); }

    /**
     * Attach a cross-driver plan cache (null detaches). On a local
     * plan miss the executor consults the cache by binary content
     * hash and adopts the published plan; on a cache miss it builds
     * the plan fully, publishes it (first insert wins), and adopts
     * the canonical copy. Plans embed device-dependent issue cycles,
     * so the cache must be bound to a device with the same FPU width.
     */
    void setSharedPlanCache(SharedPlanCache *cache);

    SharedPlanCache *sharedPlanCache() const { return sharedPlans; }

  private:
    struct ThreadCtx;
    struct GangCtx;

    /** Per-binary execution plan (shared across drivers; see
     * gpu/plan_cache.hh). */
    using Plan = ExecPlan;

    /** Local adoption of a plan: the owning binary's generation stamp
     * tells a re-JIT landing at the same address apart. */
    struct LocalPlan
    {
        uint64_t generation = 0;
        std::shared_ptr<const ExecPlan> plan;
    };

    const Plan &plan(const isa::KernelBinary *bin);

    /** Build the full plan for @p bin (pure; does not cache). */
    ExecPlan buildPlan(const isa::KernelBinary &bin) const;

    /**
     * Run one hardware thread (switch backend).
     * @return issue cycles consumed by the thread.
     */
    double runThread(const Dispatch &dispatch, uint64_t thread_idx,
                     bool fast, const Plan &plan, ThreadCtx &ctx,
                     std::vector<uint64_t> &block_counts,
                     std::vector<uint32_t> &dirty_counts,
                     std::vector<uint64_t> &trace_deltas,
                     std::vector<uint32_t> &dirty_deltas,
                     MemTraceSink *mem_sink,
                     std::vector<uint32_t> *block_trace = nullptr,
                     uint64_t trace_max_len = 0);

    /**
     * Run one hardware thread (uop backend). @p sb_counts is indexed
     * by superblock, one increment per superblock entry; the caller
     * expands entries over superblock members to recover exact
     * per-block counts.
     * @return issue cycles consumed by the thread.
     */
    double runThreadUops(const Dispatch &dispatch, uint64_t thread_idx,
                         bool fast, const Plan &plan, ThreadCtx &ctx,
                         std::vector<uint64_t> &sb_counts,
                         std::vector<uint32_t> &dirty_counts,
                         std::vector<uint64_t> &trace_deltas,
                         std::vector<uint32_t> &dirty_deltas,
                         MemTraceSink *mem_sink,
                         std::vector<uint32_t> *block_trace = nullptr,
                         uint64_t trace_max_len = 0);

    /**
     * Threaded superblock walk of the uop backend starting at
     * superblock @p cur, with @p ctx / @p st already wired. Shared by
     * runThreadUops (whole threads) and runGang (scalar continuation
     * of a slot retired from its gang on divergence).
     * @return final issue-cycle count of the thread.
     */
    double uopRun(const Dispatch &dispatch, uint64_t thread_idx,
                  bool fast, const Plan &plan, ThreadCtx &ctx,
                  UopSt &st, uint32_t cur,
                  std::vector<uint64_t> &sb_counts,
                  std::vector<uint32_t> &dirty_counts);

    /**
     * @return whether @p dispatch's concrete argument values satisfy
     * the plan's gang-safety verdict (region form proven, SIMD width
     * acceptable, no address wrap, dispatch-time region checks
     * disjoint).
     */
    bool gangDispatchSafe(const Dispatch &dispatch, const Plan &p) const;

    /**
     * Run @p count consecutive threads (first_thread ...) through the
     * uop stream in SoA lockstep, retiring divergent slots onto the
     * scalar path. Accumulates into the same scratch counters as the
     * scalar runners; per-slot memory-trace records are drained into
     * @p mem_sink in thread order afterwards so the record stream is
     * bitwise identical to scalar execution. @p slot_cycles receives
     * each slot's final issue-cycle count.
     */
    void runGang(const Dispatch &dispatch, uint64_t first_thread,
                 int count, const Plan &plan,
                 std::vector<uint64_t> &sb_counts,
                 std::vector<uint32_t> &dirty_counts,
                 std::vector<uint64_t> &trace_deltas,
                 std::vector<uint32_t> &dirty_deltas,
                 MemTraceSink *mem_sink, double *slot_cycles);

    const DeviceConfig config;
    DeviceMemory &memory;
    uint64_t threadInstrLimit = 200'000'000;
    uint64_t maxExplicitThreads = 1024;
    bool lastGanged = false;
    Backend backendSel = Backend::Uops;
    std::unordered_map<const isa::KernelBinary *, LocalPlan> plans;
    SharedPlanCache *sharedPlans = nullptr;

    /** Reusable per-run scratch: the architectural thread context and
     * the per-thread count/delta accumulators, hoisted out of the
     * per-simulated-thread loop. */
    std::unique_ptr<ThreadCtx> ctxBuf;
    std::unique_ptr<GangCtx> gangBuf;
    std::vector<uint64_t> scratchCounts;
    std::vector<uint64_t> scratchDeltas;
    /** Indices of scratchCounts / scratchDeltas entries touched by the
     * current thread (or gang), so the per-thread flush and clear are
     * proportional to blocks entered rather than kernel size. */
    std::vector<uint32_t> dirtyCounts;
    std::vector<uint32_t> dirtyDeltas;
    /** Per-dispatch trace-delta accumulator (reused across runs). */
    std::vector<uint64_t> traceDeltaBuf;

    /** SoA memory-trace buffer, armed per dispatch when run() is
     * given a batch consumer. Storage persists across dispatches. */
    MemTraceSink memSink;
    size_t memTraceChunk = MemTraceSink::defaultChunk;
};

} // namespace gt::gpu

#endif // GT_GPU_EXECUTOR_HH
