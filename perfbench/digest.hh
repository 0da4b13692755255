/**
 * @file
 * sim_digest: one 64-bit FNV-1a hash over every simulated statistic a
 * workload produces (dispatch counts, instruction totals, modeled
 * seconds, selections, ratios and errors). Doubles are hashed by their
 * bits, so two runs agree only when the simulated results are bitwise
 * identical. Host-time figures and scheduling-dependent counters are
 * never hashed.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/selection.hh"

namespace perfbench
{

class Digest
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const unsigned char *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }

    void u64(uint64_t v) { bytes(&v, sizeof(v)); }

    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    void
    selection(const gt::core::SubsetSelection &sel)
    {
        u64((uint64_t)sel.scheme);
        u64((uint64_t)sel.feature);
        u64(sel.intervals.size());
        for (const gt::core::Interval &iv : sel.intervals) {
            u64(iv.firstDispatch);
            u64(iv.lastDispatch);
            u64(iv.instrs);
            f64(iv.seconds);
        }
        u64(sel.selected.size());
        for (uint64_t s : sel.selected)
            u64(s);
        for (double r : sel.ratios)
            f64(r);
        u64(sel.selectedInstrs);
        u64(sel.totalInstrs);
    }

    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ULL;
};

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
