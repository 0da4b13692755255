/**
 * @file
 * The joined profiling database the selection pipeline runs on.
 *
 * Subset selection needs two independent data sources the paper
 * collects in one native profiling run: the GT-Pin custom tool's
 * per-invocation device profiles (instruction counts, basic-block
 * vectors, bytes read/written) and the CoFluent host trace (API call
 * stream with synchronization points, per-kernel wall times).
 * TraceDatabase joins them by dispatch sequence number and marks
 * which dispatches begin a new synchronization epoch — the only
 * places a GPU simulation interval may legally start or stop.
 *
 * Every database is joined by a TraceDatabase::Builder, which holds
 * the joined rows resident, and sealed into an on-disk compressed
 * columnar spill (core/trace_store): only block-index metadata stays
 * resident, and profiles decode on demand through per-thread block
 * caches. The builder keeps the same totals, prefix sums and seconds
 * column and nearly the same query surface, so a database answers
 * every query with the bits of the builder it was sealed from:
 * seconds are stored as raw doubles and range sums accumulate
 * left-to-right over the dense column, and the integer columns
 * round-trip exactly. The differential tests compare the two.
 *
 * A kernel's name and static per-block arrays are not part of its
 * dispatch records: the builder, the database and the spill file each
 * carry one gtpin::KernelTable, which kernels() exposes and the
 * records' kernelIds index.
 */

#ifndef GT_CORE_TRACE_DB_HH
#define GT_CORE_TRACE_DB_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cfl/tracer.hh"
#include "gtpin/kernel_profile.hh"

namespace gt::core
{

namespace trace_store
{
class ColumnarStore;
constexpr uint32_t defaultBlockSize = 256;
} // namespace trace_store

/** One kernel invocation, fully joined. */
struct DispatchRecord
{
    gtpin::DispatchProfile profile;  //!< GT-Pin device profile
    double seconds = 0.0;            //!< CoFluent invocation time
    /** Index of the synchronization epoch this dispatch belongs to
     * (increments at every sync call that separated dispatches). */
    uint64_t syncEpoch = 0;
};

/** Where one database's bytes live; see memoryFootprint(). */
struct TraceDbFootprint
{
    /** Resident column/index metadata: the block index, kernel
     * table, and epoch runs. */
    uint64_t columnBytes = 0;
    /** Encoded profile payload bytes in the spill file. */
    uint64_t profileBytes = 0;
    /** Spill-file bytes backing the mapping. */
    uint64_t fileBytes = 0;
    /** Decoded-block bytes in the *calling thread's* cache. */
    uint64_t cacheBytes = 0;
    /** Total bytes resident in memory for this database (columns +
     * this thread's cache). */
    uint64_t residentBytes = 0;
};

/** (dispatch seq, sync epoch) pairs in ascending seq order. */
using EpochAssignments = std::vector<std::pair<uint64_t, uint64_t>>;

/**
 * The synchronization-epoch walk over a complete call stream: each
 * dispatch (by seq) gets the epoch its Kernel call was issued in, and
 * the counter advances at each sync call that actually separated
 * kernel work. Run once per replay outcome.
 */
EpochAssignments
assignEpochs(const std::vector<ocl::ApiCallRecord> &calls);

/**
 * One replay outcome, taken off an instrumented stack
 * (InstrumentedStack::takeArtifact): the traced call stream, GT-Pin's
 * per-dispatch profiles with their kernel table, CoFluent's
 * per-dispatch timings, and the
 * stream's epoch assignments (one per profile, same order). Every
 * database — a profiled run, a replay trial, a service session — is
 * joined from one. The service caches artifacts across tenants by
 * recording content hash and shares them as shared_ptr<const>, so an
 * artifact is never mutated once built.
 */
struct ReplayArtifact
{
    std::vector<ocl::ApiCallRecord> calls;
    gtpin::ProfileSet profiles;
    std::vector<cfl::KernelTiming> timings;
    EpochAssignments epochs;

    /** Approximate resident bytes of the outcome. */
    uint64_t memoryBytes() const;
};

/**
 * The whole profiled execution of one application.
 *
 * **Thread safety:** a fully built TraceDatabase is immutable — the
 * only mutating operation is build(), which returns by value — and
 * every public accessor is const and touches no shared mutable
 * state (the spill's decode caches are thread_local).
 * Any number of scheduler tasks may therefore read one instance
 * concurrently with no synchronization; the 30-config explorer and
 * the fig8 validation fan-out rely on exactly this. Keep it that
 * way: adding lazily-computed shared (mutable) state to this class
 * requires revisiting every parallel caller. The totals, prefix
 * sums, and measured SPI below are computed eagerly by build() for
 * the same reason.
 *
 * **Reference lifetime:** profileAt() returns a reference into the
 * calling thread's decoded-block cache, valid until that thread
 * touches several (>= the cache's slot count) other blocks. Copy the
 * profile to hold it longer.
 */
class TraceDatabase
{
  public:
    class Builder;

    TraceDatabase();
    ~TraceDatabase();
    TraceDatabase(TraceDatabase &&) noexcept;
    TraceDatabase &operator=(TraceDatabase &&) noexcept;

    /**
     * Join GT-Pin profiles with CoFluent timings and the API call
     * stream. @p profiles and @p timings must cover the same
     * dispatches (matched by sequence number, in order); the
     * database keeps @p profiles' kernel table.
     * Implemented as a Builder fed everything then sealed, so the
     * batch and incremental paths are one code path and bitwise
     * equality between them holds by construction.
     */
    static TraceDatabase
    build(gtpin::ProfileSet profiles,
          const std::vector<cfl::KernelTiming> &timings,
          const std::vector<ocl::ApiCallRecord> &call_stream,
          uint32_t block_size = trace_store::defaultBlockSize);

    /** Join a replay outcome, consuming its profiles (the same join
     * as above, with the epochs the artifact already carries). */
    static TraceDatabase
    build(ReplayArtifact artifact,
          uint32_t block_size = trace_store::defaultBlockSize);

    uint64_t numDispatches() const { return count; }

    /** Dispatch @p i's device profile (see the class comment for
     * the reference lifetime). */
    const gtpin::DispatchProfile &profileAt(uint64_t i) const;

    /** The static data of every kernel the profiles' kernelIds
     * name (empty for an empty database). */
    const gtpin::KernelTable &kernels() const;

    /** Dispatch @p i's CoFluent kernel seconds. */
    double seconds(uint64_t i) const;

    /** Synchronization epoch dispatch @p i belongs to. */
    uint64_t syncEpoch(uint64_t i) const;

    /** Total dynamic application instructions across dispatches. */
    uint64_t totalInstrs() const { return instrTotal; }

    /** Total kernel execution seconds across dispatches. */
    double totalSeconds() const { return secondsTotal; }

    /** Number of synchronization epochs containing dispatches. */
    uint64_t numSyncEpochs() const { return syncEpochs; }

    /**
     * Dynamic instructions of dispatches [first, last], both
     * inclusive. O(1): integer prefix sums are exact, so the
     * subtraction equals the ordered sum the interval builder and
     * error replays used to re-accumulate.
     */
    uint64_t rangeInstrs(uint64_t first, uint64_t last) const;

    /**
     * Kernel seconds of dispatches [first, last], both inclusive.
     * Accumulated left-to-right over the dense seconds column — NOT
     * a prefix-sum subtraction, which would not be bitwise identical
     * to the ordered sum for doubles.
     */
    double rangeSeconds(uint64_t first, uint64_t last) const;

    /** The dense per-dispatch seconds column (numDispatches()
     * entries, mapped from the spill; null when empty). */
    const double *secondsData() const;

    /**
     * Whole-program measured seconds-per-instruction: the left side
     * of the paper's Eq. 1. Cached at build() — fig6/fig8 replay
     * loops call this per interval set.
     */
    double measuredSpi() const;

    /** Where this database's bytes live (columns, profile payloads,
     * spill file, this thread's decode cache). */
    TraceDbFootprint memoryFootprint() const;

  private:
    uint64_t count = 0;
    uint64_t instrTotal = 0;
    double secondsTotal = 0.0;
    uint64_t syncEpochs = 0;
    double spiCached = 0.0; //!< secondsTotal / instrTotal at build

    /** The mapped spill (null for an empty database). */
    std::shared_ptr<const trace_store::ColumnarStore> store;
};

/**
 * Incremental construction of a TraceDatabase, one joined dispatch at
 * a time.
 *
 * Every database is built from rows that already carry their
 * synchronization epoch (assignEpochs() walks the call stream once
 * per replay). appendJoined() maintains the same running totals,
 * prefix sums, and dense seconds column build() computes, in the same
 * left-to-right FP order, so seal() at any point yields a database
 * bitwise identical to build() over the prefix fed so far. A
 * dispatch's epoch depends only on calls issued before its own Kernel
 * call, which is why a prefix of the full stream's assignments equals
 * the assignments of the call-stream prefix.
 *
 * The prefix accessors mirror the TraceDatabase query API, so the
 * incremental interval builder can run against an unsealed prefix
 * and the differential tests can compare a sealed database with the
 * resident rows it was sealed from.
 */
class TraceDatabase::Builder
{
  public:
    /**
     * Index appended rows by @p kernels (shared, not copied; null
     * is ignored). A builder holds one table: a later call must pass
     * the same table or an equal one.
     */
    void useKernels(std::shared_ptr<const gtpin::KernelTable> kernels);

    /** Size the record and column storage for @p n dispatches. */
    void reserve(uint64_t n);

    /**
     * Join one epoch-assigned dispatch. Dispatches must arrive in
     * ascending seq order with monotone epochs, and each must match
     * its kernel's row of the table useKernels() set. A builder
     * fed from a replay artifact (a service session's derive) is
     * bitwise identical to one fed the original rows.
     */
    void appendJoined(gtpin::DispatchProfile profile, double seconds,
                      uint64_t sync_epoch);

    /** Dispatches appended so far. */
    uint64_t numAppended() const { return records.size(); }

    /** The kernel table appended rows index (empty before
     * useKernels()). */
    const gtpin::KernelTable &kernels() const;

    const gtpin::DispatchProfile &
    profileAt(uint64_t i) const
    {
        return records[i].profile;
    }

    double seconds(uint64_t i) const { return records[i].seconds; }

    uint64_t
    syncEpoch(uint64_t i) const
    {
        return records[i].syncEpoch;
    }

    uint64_t totalInstrs() const { return instrTotal; }

    double totalSeconds() const { return secondsTotal; }

    /** Dynamic instructions of appended dispatches [first, last],
     * both inclusive (exact prefix-sum subtraction). */
    uint64_t
    rangeInstrs(uint64_t first, uint64_t last) const
    {
        return instrPrefix[last + 1] - instrPrefix[first];
    }

    /** Kernel seconds of [first, last], accumulated left-to-right
     * like TraceDatabase::rangeSeconds. */
    double
    rangeSeconds(uint64_t first, uint64_t last) const
    {
        double acc = 0.0;
        for (uint64_t i = first; i <= last; ++i)
            acc += secondsCol[i];
        return acc;
    }

    /** Resident bytes of the builder: joined records (including the
     * profiles' heap), the kernel table and the prefix/seconds
     * columns. What session eviction reclaims. */
    uint64_t memoryBytes() const;

    /**
     * Spill everything appended so far into a database; the builder
     * keeps streaming. Bitwise identical to build() over the same
     * prefix.
     */
    TraceDatabase seal(uint32_t block_size =
                           trace_store::defaultBlockSize) const;

  private:
    std::shared_ptr<const gtpin::KernelTable> kernelTable;
    std::vector<DispatchRecord> records;
    std::vector<uint64_t> instrPrefix{0};
    std::vector<double> secondsCol;
    uint64_t instrTotal = 0;
    double secondsTotal = 0.0;
};

} // namespace gt::core

#endif // GT_CORE_TRACE_DB_HH
