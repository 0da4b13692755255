/**
 * @file
 * Order statistics the benchmark reports: medians, quartiles, and the
 * tail percentile rule.
 *
 * The tail of a latency sample is reported at the highest percentile
 * that still has at least ten samples beyond it, so the figure never
 * rests on fewer than ten observations. With n samples sorted
 * ascending that is the nearest-rank value at rank n - 10 (1-based),
 * i.e. percentile 100 * (n - 10) / n. Failed operations enter the
 * sample as +infinity: they miss every latency limit.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench
{

/** Samples that must lie beyond the reported tail value. */
constexpr size_t tailBeyond = 10;

/** Median (mean of the two middle values for even counts); 0 when
 * empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The tail of a sample under the rule in the file comment. */
struct Tail
{
    double value = 0.0;      //!< the tail sample
    double percentile = 0.0; //!< which percentile it is
    size_t beyond = 0;       //!< samples strictly after it in rank
    size_t samples = 0;      //!< sample count
    /** Fewer than 2 * tailBeyond samples: the rule would fall at or
     * below the median, so the maximum is reported instead. */
    bool reducedToMax = false;
};

inline Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    if (n < 2 * tailBeyond) {
        t.value = v.back();
        t.percentile = 100.0;
        t.beyond = 0;
        t.reducedToMax = true;
        return t;
    }
    size_t rank = n - tailBeyond; // 1-based nearest rank
    t.value = v[rank - 1];
    t.percentile = 100.0 * (double)rank / (double)n;
    t.beyond = n - rank;
    return t;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
