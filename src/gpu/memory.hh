/**
 * @file
 * Device global memory and the trace buffer.
 *
 * DeviceMemory is a flat byte-addressed space with a bump allocator;
 * OpenCL buffers and images are carved out of it by the runtime. The
 * arena is committed lazily and zero-filled on first touch (calloc):
 * construction costs microseconds whatever the capacity, only pages a
 * workload touches become resident, and a never-written byte reads 0.
 * TraceBuffer is the CPU/GPU-shared profiling area GT-Pin allocates at
 * initialization (Fig. 1): instrumentation instructions accumulate
 * into its slots during device execution and the CPU post-processor
 * reads them out afterwards.
 */

#ifndef GT_GPU_MEMORY_HH
#define GT_GPU_MEMORY_HH

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/logging.hh"

namespace gt::gpu
{

/** Flat device global memory with a bump allocator. */
class DeviceMemory
{
  public:
    explicit DeviceMemory(uint64_t size_bytes);

    uint64_t size() const { return capacity; }

    /**
     * Allocate @p size bytes aligned to @p align; returns the device
     * address. Throws FatalError when out of memory.
     */
    uint64_t allocate(uint64_t size, uint64_t align = 64);

    /** Release all allocations (contents are preserved). */
    void resetAllocator() { bumpPtr = 0; }

    /** Bytes currently allocated. */
    uint64_t allocated() const { return bumpPtr; }

    // Scalar accessors are inline: they sit on the interpreters'
    // per-lane Send path, where an out-of-line call per access is
    // measurable against the predecoded backend's dispatch cost.
    uint8_t
    read8(uint64_t addr) const
    {
        checkRange(addr, 1);
        return bytes[addr];
    }

    uint32_t
    read32(uint64_t addr) const
    {
        checkRange(addr, 4);
        uint32_t v;
        std::memcpy(&v, bytes.get() + addr, 4);
        return v;
    }

    void
    write8(uint64_t addr, uint8_t value)
    {
        checkRange(addr, 1);
        bytes[addr] = value;
    }

    void
    write32(uint64_t addr, uint32_t value)
    {
        checkRange(addr, 4);
        std::memcpy(bytes.get() + addr, &value, 4);
    }

    /** Bulk host<->device transfer helpers. */
    void copyIn(uint64_t addr, const void *src, uint64_t size);
    void copyOut(uint64_t addr, void *dst, uint64_t size) const;
    void fill(uint64_t addr, uint8_t value, uint64_t size);

  private:
    void
    checkRange(uint64_t addr, uint64_t size) const
    {
        if (addr + size > capacity || addr + size < addr) {
            panic("device memory access out of bounds: addr ", addr,
                  " size ", size, " capacity ", capacity);
        }
    }

    struct Free
    {
        void operator()(uint8_t *p) const { std::free(p); }
    };
    std::unique_ptr<uint8_t[], Free> bytes;
    uint64_t capacity;
    uint64_t bumpPtr = 0;
};

/** What one dispatch added to one trace-buffer slot. */
struct SlotDelta
{
    uint32_t slot = 0;
    uint64_t delta = 0;
};

/**
 * The GT-Pin profiling buffer: an array of 64-bit accumulator slots
 * shared between the modeled GPU (instrumentation instructions add to
 * slots) and the host (tools read slots during post-processing).
 *
 * The executor commits each dispatch's contribution as a sparse list
 * of the slots it changed; the buffer keeps that list as
 * lastDispatch(), so post-processing reads only what the dispatch
 * touched instead of diffing every slot.
 */
class TraceBuffer
{
  public:
    explicit TraceBuffer(uint32_t num_slots = 0) { resize(num_slots); }

    void resize(uint32_t num_slots) { slots.assign(num_slots, 0); }

    uint32_t size() const { return (uint32_t)slots.size(); }

    /** Grow (never shrink) to hold at least @p num_slots slots. */
    void reserveSlots(uint32_t num_slots);

    /**
     * Add one dispatch's deltas (nonzero, at most one entry per slot,
     * any order) to the buffer and keep them as lastDispatch(). The
     * storage is swapped, not copied: @p deltas comes back holding
     * the previous dispatch's list, for the caller to reuse.
     */
    void commitDispatch(std::vector<SlotDelta> &deltas);

    /** The deltas of the most recently committed dispatch. */
    const std::vector<SlotDelta> &lastDispatch() const { return last; }

    uint64_t read(uint32_t slot) const;

    void clear();

    const std::vector<uint64_t> &raw() const { return slots; }

  private:
    std::vector<uint64_t> slots;
    std::vector<SlotDelta> last;
};

} // namespace gt::gpu

#endif // GT_GPU_MEMORY_HH
