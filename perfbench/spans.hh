/**
 * @file
 * In-memory spans for the benchmark's traced run.
 *
 * A span is a named interval of host time on one thread, with the span
 * that caused it as its parent and the id of the operation (an app, a
 * replay, a service round) it belongs to. Spans are recorded into
 * per-thread buffers — no lock on the recording path — and merged when
 * the traced pass has finished. The benchmark records them around its
 * own calls into the library's public functions; the library itself is
 * not instrumented.
 *
 * From the merged spans the benchmark derives each layer's self time
 * (a span's duration minus the part of it its children cover, children
 * possibly running on other threads and overlapping each other), the
 * share of a pass's wall time the layer spans cover, and a Chrome
 * trace-event file that Perfetto opens.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

/** One closed span. Times are nanoseconds since the tracer's epoch. */
struct SpanRecord
{
    const char *name = "";
    uint64_t id = 0;     //!< unique within the tracer, never 0
    uint64_t parent = 0; //!< 0 = no parent
    uint64_t op = 0;     //!< operation id shared by an op's spans
    uint32_t thread = 0; //!< tracer-local thread index
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/**
 * Span recorder. begin()/end() are called by the thread that owns the
 * span; collect() and clear() only while no span is open (between
 * passes), after the pool has synchronised with the caller.
 */
class Tracer
{
  public:
    Tracer();
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Nanoseconds since this tracer was created. */
    int64_t nowNs() const;

    /**
     * Open a span on the calling thread. @p parent 0 means the
     * innermost span open on this thread (if any); @p op 0 inherits
     * the parent's op when the parent is on this thread.
     * @return the span's id.
     */
    uint64_t begin(const char *name, uint64_t op = 0,
                   uint64_t parent = 0);

    /** Close the innermost open span of the calling thread, which
     * must be @p id. */
    void end(uint64_t id);

    /** Rename the innermost open span of the calling thread (used
     * when the layer is only known once the call returns). */
    void rename(uint64_t id, const char *name);

    /** All closed spans of every thread, ordered by start time. */
    std::vector<SpanRecord> collect() const;

    /** Drop every recorded span. */
    void clear();

  private:
    struct Buffer;
    Buffer &local();

    const uint64_t serial;
    const int64_t epochNs;
    mutable std::mutex mutex; //!< guards buffers (registration)
    std::vector<std::unique_ptr<Buffer>> buffers;
};

/** RAII span; a null tracer makes it a no-op. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name, uint64_t op = 0,
         uint64_t parent = 0)
        : tracer(tracer),
          spanId(tracer ? tracer->begin(name, op, parent) : 0)
    {
    }

    ~Span()
    {
        if (tracer)
            tracer->end(spanId);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return spanId; }

    void
    rename(const char *name)
    {
        if (tracer)
            tracer->rename(spanId, name);
    }

  private:
    Tracer *tracer;
    uint64_t spanId;
};

/** Whether a span groups an operation rather than timing a layer
 * (names starting "op."). */
bool isOpSpan(const SpanRecord &span);

/**
 * Self time per span name, in seconds: for every span, its duration
 * minus the measure of the union of its children's intervals clipped
 * to it, summed over spans of one name.
 */
std::map<std::string, double>
selfSecondsByName(const std::vector<SpanRecord> &spans);

/** Measure of the union of the layer (non-op) spans' intervals
 * clipped to [from, to], as a share of to - from. */
double layerCoverage(const std::vector<SpanRecord> &spans, int64_t from,
                     int64_t to);

/** Write @p spans as Chrome trace-event JSON (complete events). */
void writeChromeTrace(std::ostream &os,
                      const std::vector<SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
