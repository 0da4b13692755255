/**
 * @file
 * Interval construction (the paper's Table II).
 *
 * The paper explores three ways of dividing a GPU program trace into
 * candidate simulation intervals, all respecting the hardware
 * designers' constraints that an interval is at least one whole
 * kernel invocation and never spans a synchronization call:
 *
 *   - SyncBounded: split at every OpenCL synchronization call
 *     (largest intervals);
 *   - ApproxInstructions: subdivide sync epochs into roughly
 *     N-instruction chunks without splitting a kernel invocation
 *     ("approximately 100M instructions" in the paper — N scales
 *     with our scaled-down workloads);
 *   - SingleKernel: every kernel invocation is its own interval
 *     (smallest intervals).
 */

#ifndef GT_CORE_INTERVAL_HH
#define GT_CORE_INTERVAL_HH

#include "core/trace_db.hh"

namespace gt::core
{

/** Table II's three interval-division schemes. */
enum class IntervalScheme : uint8_t
{
    SyncBounded,
    ApproxInstructions,
    SingleKernel,
};

constexpr int numIntervalSchemes = 3;

/** @return display name, e.g. "sync". */
const char *intervalSchemeName(IntervalScheme scheme);

/** A contiguous run of dispatches [first, last]. */
struct Interval
{
    uint64_t firstDispatch = 0;  //!< index into db.dispatches()
    uint64_t lastDispatch = 0;   //!< inclusive
    uint64_t instrs = 0;         //!< dynamic instructions inside
    double seconds = 0.0;        //!< summed kernel time inside

    uint64_t
    numDispatches() const
    {
        return lastDispatch - firstDispatch + 1;
    }

    /** Interval seconds-per-instruction. */
    double spi() const;
};

/**
 * Divide @p db into intervals under @p scheme.
 *
 * @param target_instrs for ApproxInstructions: the chunk size. The
 *        paper uses 100M for applications averaging 308 B
 *        instructions; pass roughly totalInstrs()/1000 to match that
 *        proportion on scaled workloads (0 = that default).
 *
 * Postconditions (verified by the property tests): intervals
 * partition the dispatch sequence, never span a sync epoch, and
 * each contains at least one whole kernel invocation.
 */
std::vector<Interval> buildIntervals(const TraceDatabase &db,
                                     IntervalScheme scheme,
                                     uint64_t target_instrs = 0);

/**
 * Incremental interval division: the same boundary logic as
 * buildIntervals(), maintained one dispatch at a time as rows are
 * fed. buildIntervals() is implemented on top of this class (feed
 * every dispatch, snapshot once), so the incremental and batch paths
 * cannot drift — the differential tests pin the equivalence across
 * schemes, targets, and arrival granularities.
 *
 * Closed intervals are final the moment the boundary passes them, so
 * a snapshot() costs one vector copy plus closing the open tail —
 * O(intervals), not O(dispatches). The exception is
 * ApproxInstructions with target_instrs == 0: there the chunk size
 * is derived from the *final* total instruction count, which a
 * stream cannot know, so snapshot() re-divides from retained
 * per-dispatch columns (still bitwise equal to the batch result at
 * every prefix).
 */
class IncrementalIntervals
{
  public:
    explicit IncrementalIntervals(IntervalScheme scheme,
                                  uint64_t target_instrs = 0);

    /** Feed the next dispatch in order: its sync epoch, dynamic
     * instructions, and kernel seconds. */
    void append(uint64_t sync_epoch, uint64_t instrs, double seconds);

    /**
     * The interval division over everything appended so far —
     * bitwise identical (boundaries, instruction counts, seconds) to
     * buildIntervals() on a database sealed at this prefix.
     */
    std::vector<Interval> snapshot() const;

    uint64_t numDispatches() const { return n; }

    IntervalScheme scheme() const { return kind; }

    /**
     * Intervals already closed by a boundary. These are final — a
     * snapshot() at any later prefix returns them unchanged — which
     * is what lets the incremental selection path keep per-interval
     * points and the unique-value index for this prefix across
     * refreshes. Always 0 for ApproxInstructions with target 0,
     * where boundaries are only fixed by the final total (the
     * snapshot rescan); consumers must not treat any prefix as
     * stable there.
     */
    size_t
    numCompleted() const
    {
        if (kind == IntervalScheme::ApproxInstructions && target == 0)
            return 0;
        return completed.size();
    }

    /** Approximate resident bytes: closed intervals plus the
     * retained rescan columns (the dominant term for approx with
     * target 0). */
    uint64_t
    memoryBytes() const
    {
        return sizeof(*this) + completed.size() * sizeof(Interval) +
               epochCol.size() * sizeof(uint64_t) +
               instrCol.size() * sizeof(uint64_t) +
               secondsCol.size() * sizeof(double);
    }

  private:
    std::vector<Interval> rescan(uint64_t target) const;

    IntervalScheme kind;
    uint64_t target;  //!< 0 = derive from the running total (approx)
    uint64_t n = 0;
    uint64_t instrTotal = 0;

    std::vector<Interval> completed;
    Interval cur;
    uint64_t curEpoch = 0;
    bool open = false;

    /** Retained columns for the target-derivation rescan; kept only
     * when the scheme needs them (approx with target 0). */
    std::vector<uint64_t> epochCol;
    std::vector<uint64_t> instrCol;
    std::vector<double> secondsCol;
};

/** Min/avg/max interval statistics for Table II. */
struct IntervalStats
{
    uint64_t count = 0;
    uint64_t minInstrs = 0;
    uint64_t maxInstrs = 0;
    double avgInstrs = 0.0;
};

IntervalStats intervalStats(const std::vector<Interval> &intervals);

} // namespace gt::core

#endif // GT_CORE_INTERVAL_HH
