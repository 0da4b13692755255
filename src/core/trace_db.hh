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
 * Two storage backends sit behind one accessor API:
 *
 *  - `columnar` (default): build() lowers the joined records into an
 *    on-disk compressed columnar spill (core/trace_store) and keeps
 *    only block-index metadata resident; profiles decode on demand
 *    through per-thread block caches.
 *  - `mem` (passed explicitly): the original fully-resident record
 *    vector — the bitwise oracle the columnar backend is
 *    differentially tested against.
 *
 * Every accessor returns bitwise-identical values on both backends:
 * both run the same join (so totals accumulate in the same FP
 * order), seconds are stored as raw doubles and range sums always
 * accumulate left-to-right over the dense column, and the integer
 * columns round-trip exactly.
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

enum class TraceDbBackend
{
    Mem,      //!< fully-resident record vector (the oracle)
    Columnar, //!< on-disk compressed columnar spill
};

/** Where one database's bytes live; see memoryFootprint(). */
struct TraceDbFootprint
{
    /** Resident joined-record storage: the DispatchRecord structs
     * (mem backend only; the columnar backend drops them). */
    uint64_t recordBytes = 0;
    /** Resident column/index metadata: prefix sums and the seconds
     * column (mem), or the block index, name table, and epoch runs
     * (columnar). */
    uint64_t columnBytes = 0;
    /** Profile payload bytes: heap behind the resident profiles
     * (mem), or the encoded on-disk payload section (columnar). */
    uint64_t profileBytes = 0;
    /** Spill-file bytes backing the mapping (columnar only). */
    uint64_t fileBytes = 0;
    /** Decoded-block bytes in the *calling thread's* cache
     * (columnar only). */
    uint64_t cacheBytes = 0;
    /** Total bytes resident in memory for this database (records +
     * columns + resident profiles + this thread's cache). */
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
 * per-dispatch profiles, CoFluent's per-dispatch timings, and the
 * stream's epoch assignments (one per profile, same order). Every
 * database — a profiled run, a replay trial, a service session — is
 * joined from one. The service caches artifacts across tenants by
 * recording content hash and shares them as shared_ptr<const>, so an
 * artifact is never mutated once built.
 */
struct ReplayArtifact
{
    std::vector<ocl::ApiCallRecord> calls;
    std::vector<gtpin::DispatchProfile> profiles;
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
 * state (the columnar backend's decode caches are thread_local).
 * Any number of scheduler tasks may therefore read one instance
 * concurrently with no synchronization; the 30-config explorer and
 * the fig8 validation fan-out rely on exactly this. Keep it that
 * way: adding lazily-computed shared (mutable) state to this class
 * requires revisiting every parallel caller. The totals, prefix
 * sums, and measured SPI below are computed eagerly by build() for
 * the same reason.
 *
 * **Reference lifetime:** on the columnar backend profileAt()
 * returns a reference into the calling thread's decoded-block
 * cache, valid until that thread touches several (>= the cache's
 * slot count) other blocks. Copy the profile to hold it longer.
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
     * dispatches (matched by sequence number, in order).
     * Implemented as a Builder fed everything then sealed, so the
     * batch and incremental paths are one code path and bitwise
     * equality between them holds by construction.
     */
    static TraceDatabase
    build(std::vector<gtpin::DispatchProfile> profiles,
          const std::vector<cfl::KernelTiming> &timings,
          const std::vector<ocl::ApiCallRecord> &call_stream,
          TraceDbBackend backend = TraceDbBackend::Columnar,
          uint32_t block_size = trace_store::defaultBlockSize);

    /** Join a replay outcome, consuming its profiles (the same join
     * as above, with the epochs the artifact already carries). */
    static TraceDatabase
    build(ReplayArtifact artifact,
          TraceDbBackend backend = TraceDbBackend::Columnar,
          uint32_t block_size = trace_store::defaultBlockSize);

    /**
     * Open a persistent columnar archive written by
     * Builder::writeArchive(). The totals are recomputed from the
     * mapped columns in the same left-to-right order build()
     * accumulated them, so the result is bitwise identical to the
     * database that was archived.
     */
    static TraceDatabase openColumnarFile(const std::string &path);

    TraceDbBackend backend() const { return kind; }

    uint64_t numDispatches() const { return count; }

    /** Dispatch @p i's device profile (see the class comment for
     * the columnar backend's reference lifetime). */
    const gtpin::DispatchProfile &profileAt(uint64_t i) const;

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
     * entries; resident for mem, mapped for columnar — same bits
     * either way). */
    const double *secondsData() const;

    /**
     * Whole-program measured seconds-per-instruction: the left side
     * of the paper's Eq. 1. Cached at build() — fig6/fig8 replay
     * loops call this per interval set.
     */
    double measuredSpi() const;

    /** Where this database's bytes live (records, columns, profile
     * payloads, spill file, this thread's decode cache). */
    TraceDbFootprint memoryFootprint() const;

  private:
    TraceDbBackend kind = TraceDbBackend::Mem;
    uint64_t count = 0;
    uint64_t instrTotal = 0;
    double secondsTotal = 0.0;
    uint64_t syncEpochs = 0;
    double spiCached = 0.0; //!< secondsTotal / instrTotal at build

    // Mem backend: the fully-resident oracle.
    std::vector<DispatchRecord> records;
    std::vector<uint64_t> instrPrefix; //!< numDispatches + 1 entries
    std::vector<double> secondsCol;    //!< per-dispatch seconds

    // Columnar backend: the mapped spill (null for mem / empty).
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
 * The prefix accessors mirror the TraceDatabase query API so the
 * incremental interval builder can run against an unsealed prefix.
 * Builders are copyable (cheap relative to a replay) — tests seal
 * copies mid-stream to compare against batch oracles.
 */
class TraceDatabase::Builder
{
  public:
    /**
     * Join one epoch-assigned dispatch. Dispatches must arrive in
     * ascending seq order with monotone epochs. A builder re-fed from
     * an archived database (rehydration) or from a replay artifact is
     * bitwise identical to one fed the original rows.
     */
    void appendJoined(gtpin::DispatchProfile profile, double seconds,
                      uint64_t sync_epoch);

    /** Dispatches appended so far. */
    uint64_t numAppended() const { return records.size(); }

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
     * profiles' heap) and the prefix/seconds columns. What session
     * eviction reclaims. */
    uint64_t memoryBytes() const;

    /**
     * Write everything appended so far to a persistent named
     * columnar archive at @p path (same format as the spill files,
     * but kept). TraceDatabase::openColumnarFile() reopens it;
     * re-feeding a builder from the reopened archive reproduces this
     * builder's joined state bit for bit.
     */
    void writeArchive(const std::string &path,
                      uint32_t block_size =
                          trace_store::defaultBlockSize) const;

    /**
     * Produce the database for everything appended so far; the
     * builder keeps streaming. Bitwise identical to build() over the
     * same prefix on both backends.
     */
    TraceDatabase seal(TraceDbBackend backend = TraceDbBackend::Columnar,
                       uint32_t block_size =
                           trace_store::defaultBlockSize) const &;

    /** Destructive seal (what build() uses): no copy of the joined
     * records. */
    TraceDatabase seal(TraceDbBackend backend = TraceDbBackend::Columnar,
                       uint32_t block_size =
                           trace_store::defaultBlockSize) &&;

  private:
    std::vector<DispatchRecord> records;
    std::vector<uint64_t> instrPrefix{0};
    std::vector<double> secondsCol;
    uint64_t instrTotal = 0;
    double secondsTotal = 0.0;
};

} // namespace gt::core

#endif // GT_CORE_TRACE_DB_HH
