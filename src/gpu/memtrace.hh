/**
 * @file
 * Batched SoA memory-trace pipeline.
 *
 * The executor's Full mode can surface every global memory access to
 * profiling tools (GT-Pin's trace-driven cache simulation). Rather
 * than an opaque indirect call per lane per send instruction in the
 * interpreter's innermost loop, delivery follows the
 * trace-buffer-and-post-process structure the paper's GT-Pin uses for
 * every other statistic: send handlers append packed records into a
 * structure-of-arrays buffer owned by the Executor, and the buffer is
 * flushed in fixed-size chunks to a bulk consumer. Appends happen in
 * exact execution order and chunks are delivered in order, so a
 * consumer that walks each chunk left to right observes the exact
 * access sequence at any chunk size — which is what keeps
 * cache-simulation results bitwise identical between the default
 * chunk and a chunk of one record (per-access delivery).
 */

#ifndef GT_GPU_MEMTRACE_HH
#define GT_GPU_MEMTRACE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace gt::gpu
{

/**
 * One chunk of the memory-access trace, structure-of-arrays: parallel
 * address and metadata columns. A metadata word packs the access size
 * in its low bits and the write flag in its top bit.
 */
struct MemBatch
{
    static constexpr uint32_t writeBit = 0x8000'0000u;
    static constexpr uint32_t bytesMask = 0x7fff'ffffu;

    const uint64_t *addrs = nullptr;
    const uint32_t *metas = nullptr;
    size_t count = 0;

    static constexpr bool
    isWrite(uint32_t meta)
    {
        return (meta & writeBit) != 0;
    }

    static constexpr uint32_t
    bytes(uint32_t meta)
    {
        return meta & bytesMask;
    }
};

/** Bulk consumer invoked once per flushed chunk, in trace order. */
using MemBatchFn = std::function<void(const MemBatch &)>;

/**
 * The per-dispatch SoA trace buffer. The Executor owns one, arms it
 * with begin() when a dispatch wants batched trace delivery, appends
 * from the send handlers, and drains the final partial chunk with
 * finish(). Storage is retained across dispatches, so steady-state
 * appends never allocate.
 */
class MemTraceSink
{
  public:
    /** Default records per chunk (see Executor::setMemTraceChunk). */
    static constexpr size_t defaultChunk = 8192;

    /**
     * Arm the sink for one dispatch: flush @p chunk-record chunks to
     * @p fn. @p fn must outlive the dispatch.
     */
    void begin(const MemBatchFn *fn, size_t chunk);

    /** Append one access record, flushing when the chunk fills. */
    void
    append(uint64_t addr, uint32_t bytes, bool is_write)
    {
        addrBuf[n] = addr;
        metaBuf[n] = bytes | (is_write ? MemBatch::writeBit : 0);
        if (++n == cap)
            flush();
    }

    /** Flush the trailing partial chunk and disarm the sink. */
    void finish();

  private:
    void flush();

    std::vector<uint64_t> addrBuf;
    std::vector<uint32_t> metaBuf;
    size_t n = 0;
    size_t cap = 0;
    const MemBatchFn *fn = nullptr;
};

} // namespace gt::gpu

#endif // GT_GPU_MEMTRACE_HH
