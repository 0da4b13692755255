/**
 * @file
 * Trace-driven cache simulation, one of the GT-Pin capabilities the
 * paper lists ("cache simulation through the use of memory traces").
 *
 * CacheModel is a classic set-associative, write-allocate LRU cache.
 * CacheSimTool feeds it the device's memory-access trace, which
 * requires full (per-lane) execution — the expensive profiling
 * configuration users opt into only when they need it.
 */

#ifndef GT_GTPIN_CACHE_SIM_HH
#define GT_GTPIN_CACHE_SIM_HH

#include <cstdint>
#include <vector>

#include "gpu/memtrace.hh"
#include "gtpin/gtpin.hh"

namespace gt::gtpin
{

/** Set-associative LRU cache over 64-bit addresses. */
class CacheModel
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways       associativity
     * @param line_bytes cache-line size (power of two)
     */
    CacheModel(uint64_t size_bytes, uint32_t ways,
               uint32_t line_bytes = 64);

    /**
     * Access @p bytes starting at @p addr; lines are touched
     * individually.
     * @return true if every touched line hit.
     */
    bool access(uint64_t addr, uint32_t bytes, bool is_write);

    /**
     * Consume one SoA trace chunk, record by record in order,
     * producing hit/miss/writeback counts and final cache state
     * bitwise identical to calling access() per record. Lines found
     * in the lookaside buffer (recently probed and still resident)
     * skip the associative set scan: a hit on any resident line has
     * exactly the probe's effects — bump the use clock and hit
     * count, refresh lastUse, and set the dirty bit — so the
     * shortcut preserves state and counters bit for bit.
     */
    void accessBatch(const gpu::MemBatch &batch);

    uint64_t hits() const { return hitCount; }
    uint64_t misses() const { return missCount; }
    uint64_t accesses() const { return hitCount + missCount; }

    double
    hitRate() const
    {
        uint64_t n = accesses();
        return n == 0 ? 0.0 : (double)hitCount / (double)n;
    }

    /** Lines written back (dirty evictions). */
    uint64_t writebacks() const { return writebackCount; }

    void reset();

    uint32_t numSets() const { return sets; }
    uint32_t numWays() const { return ways; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    /** Full set probe; @return the line holding @p line_addr after
     * the access (the hit line, or the refilled victim on a miss). */
    Line &probeLine(uint64_t line_addr, bool is_write);

    /**
     * Line lookaside buffer: a direct-mapped table of lines recently
     * returned by probeLine(), used by accessBatch() to turn repeat
     * hits into a table lookup instead of an associative scan. An
     * entry is trustworthy only while no miss has refilled its set
     * since insertion — a refill may evict any way — so entries
     * carry the set's generation count, which probeLine() bumps on
     * every miss.
     */
    struct LlbEntry
    {
        uint64_t lineAddr = ~0ull;
        Line *line = nullptr;
        uint32_t gen = 0;
    };
    static constexpr size_t llbSize = 1024; //!< power of two

    uint32_t sets;
    uint32_t ways;
    uint32_t lineShift;
    uint32_t setShift; //!< log2(sets), hoisted out of the probe
    std::vector<Line> lines;
    std::vector<LlbEntry> llb;
    std::vector<uint32_t> setGen; //!< misses seen per set
    uint64_t useClock = 0;
    uint64_t hitCount = 0;
    uint64_t missCount = 0;
    uint64_t writebackCount = 0;
};

/**
 * GT-Pin tool driving a CacheModel from the memory trace. Models the
 * shared LLC slice of Fig. 2 by default.
 */
class CacheSimTool : public GtPinTool
{
  public:
    CacheSimTool(uint64_t size_bytes = 4ull << 20, uint32_t ways = 16,
                 uint32_t line_bytes = 64);

    std::string name() const override { return "cachesim"; }
    bool needsAddresses() const override { return true; }

    /** Native bulk consumer of the memory trace. */
    void
    onMemBatch(const gpu::MemBatch &batch) override
    {
        model.accessBatch(batch);
    }

    void
    onKernelBuild(uint32_t kernel_id, Instrumenter &instrumenter)
        override
    {
        (void)kernel_id;
        (void)instrumenter;
        // Purely trace-driven: no injected instructions needed.
    }

    void onMemAccess(uint64_t addr, uint32_t bytes,
                     bool is_write) override;

    const CacheModel &cache() const { return model; }
    CacheModel &cache() { return model; }

  private:
    CacheModel model;
};

} // namespace gt::gtpin

#endif // GT_GTPIN_CACHE_SIM_HH
