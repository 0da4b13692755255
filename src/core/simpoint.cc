#include "core/simpoint.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.hh"

namespace gt::core::simpoint
{

namespace
{

/**
 * Chunk size for every floating-point reduction in this file. The
 * chunk layout — and therefore the FP combination tree — is a
 * function of the population size alone, so results are bit-identical
 * for any thread count (including the 1-thread serial fallback).
 */
constexpr size_t reduceGrain = 256;

/** Deterministic projection coefficient for (key, dim) in [-1, 1]. */
double
projectionCoeff(uint64_t key, int dim)
{
    uint64_t h = key ^ (0x9e3779b97f4a7c15ULL * (uint64_t)(dim + 1));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return ((double)(h >> 11) * 0x1.0p-53) * 2.0 - 1.0;
}

/**
 * Squared Euclidean distance between two flat projectedDims-wide
 * rows: the same expression, in the same order, as the historical
 * dist2(const Point &, const Point &) — the fixed-trip-count loop
 * over contiguous rows is what the flat SoA storage buys the
 * vectorizer.
 */
inline double
dist2Row(const double *a, const double *b)
{
    double acc = 0.0;
    for (int d = 0; d < projectedDims; ++d) {
        double diff = a[d] - b[d];
        acc += diff * diff;
    }
    return acc;
}

static_assert(sizeof(Point) == sizeof(double) * projectedDims,
              "Point rows must be packed for the flat SoA layout");

/**
 * Conservative bound arithmetic for the pruned backend.
 *
 * The triangle-inequality bounds are exact in real arithmetic, but
 * the computed dist2/sqrt/add/sub chain rounds — and a bound that
 * rounds the wrong way could prune a point whose exact Lloyd scan
 * would have flipped its assignment, breaking bitwise equality with
 * the oracle. Every bound therefore gets a slack push in its safe
 * direction: upper bounds are inflated and lower bounds deflated by
 * a relative term that dominates the worst-case relative round-off
 * of the ~2·projectedDims-operation distance chain (~20 ulp; the
 * slack is ~4000x that) plus an absolute term that dominates any
 * subnormal-range underflow. The slack is far below any distance
 * gap worth pruning, so it costs nothing: a point inside the slack
 * margin simply falls back to the exact scan, which is always
 * correct.
 */
constexpr double boundRelSlack = 0x1.0p-40; // ~9.1e-13 relative
constexpr double boundAbsSlack = 1e-140;    // >> any underflow loss

/** Upper bound on the true Euclidean distance whose computed
 * squared distance is @p d2. */
inline double
distUpper(double d2)
{
    double d = std::sqrt(d2);
    return d + d * boundRelSlack + boundAbsSlack;
}

/** Lower bound on the true Euclidean distance whose computed
 * squared distance is @p d2 (+inf passes through for the k == 1
 * "no second centroid" case). */
inline double
distLower(double d2)
{
    double d = std::sqrt(d2);
    if (!(d < std::numeric_limits<double>::infinity()))
        return d;
    d -= d * boundRelSlack + boundAbsSlack;
    return d > 0.0 ? d : 0.0;
}

/** Upper bound on (upper bound u) + (drift upper bound d). */
inline double
boundAdd(double u, double d)
{
    double r = u + d;
    return r + r * boundRelSlack + boundAbsSlack;
}

/** Lower bound on (lower bound l) - (drift upper bound d). May go
 * negative, which simply never prunes. */
inline double
boundSub(double l, double d)
{
    double r = l - d;
    return r - std::abs(r) * boundRelSlack - boundAbsSlack;
}

/** kmeansRun with flat row-major centroid storage (the internal
 * currency; the public struct converts to Point rows at the edge). */
struct FlatRun
{
    std::vector<int> assignment;
    std::vector<double> centroids; //!< k x projectedDims, row-major
    double distortion = 0.0;
    std::vector<double> clusterWeight;
    KMeansStats stats;
};

/**
 * One population as every candidate-k run reads it, prepared once
 * and then shared read-only: the flat rows and weights, plus for the
 * pruned backend the grouping (see UniqueIndex), each group's
 * representative row copied into group order so the per-group loops
 * stream through memory, and each group's members (CSR) so that an
 * assignment change touches only the members of its group.
 */
struct Population
{
    const double *pts = nullptr;
    size_t n = 0;
    const double *weights = nullptr;
    const UniqueIndex *groups = nullptr; //!< null on the Lloyd backend
    std::vector<double> repRows;         //!< groups x projectedDims
    std::vector<uint32_t> memberBegin;   //!< groups + 1
    std::vector<uint32_t> members;       //!< point ids, group-major

    size_t numGroups() const { return memberBegin.size() - 1; }

    const double *
    repRow(size_t u) const
    {
        return repRows.data() + u * projectedDims;
    }
};

Population
preparePopulation(const double *pts, size_t n,
                  const std::vector<double> &weights,
                  const UniqueIndex *groups)
{
    constexpr int dims = projectedDims;
    Population pop;
    pop.pts = pts;
    pop.n = n;
    pop.weights = weights.data();
    pop.groups = groups;
    if (!groups) {
        pop.memberBegin.assign(1, 0);
        return pop;
    }
    size_t m = groups->rep.size();
    pop.repRows.resize(m * dims);
    for (size_t u = 0; u < m; ++u) {
        GT_ASSERT(groups->rep[u] < n, "group ", u,
                  " names point ", groups->rep[u], " of ", n);
        std::memcpy(pop.repRows.data() + u * dims,
                    pts + (size_t)groups->rep[u] * dims,
                    dims * sizeof(double));
    }
    pop.memberBegin.assign(m + 1, 0);
    for (size_t i = 0; i < n; ++i) {
        uint32_t u = groups->uid[i];
        // The one property the kernel relies on: every member is
        // bitwise its group's representative.
        GT_ASSERT(u < m &&
                      std::memcmp(pts + i * dims, pop.repRow(u),
                                  dims * sizeof(double)) == 0,
                  "point ", i, " differs from its group's value");
        ++pop.memberBegin[u + 1];
    }
    for (size_t u = 0; u < m; ++u)
        pop.memberBegin[u + 1] += pop.memberBegin[u];
    std::vector<uint32_t> next(pop.memberBegin.begin(),
                               pop.memberBegin.end() - 1);
    pop.members.resize(n);
    for (size_t i = 0; i < n; ++i)
        pop.members[next[groups->uid[i]]++] = (uint32_t)i;
    return pop;
}

/** Centroids scanned per block by the pruned backend's full scan. */
constexpr int scanLanes = 4;

/** Two lanes of a scan block (GCC/Clang vector extension:
 * element-wise IEEE arithmetic in one SSE2 register). */
typedef double LanePair __attribute__((vector_size(2 * sizeof(double))));

inline LanePair
loadPair(const double *q)
{
    LanePair v;
    std::memcpy(&v, q, sizeof(v));
    return v;
}

/**
 * Weighted k-means with k-means++ seeding over a prepared population,
 * run serially on the calling thread. Both backends share the
 * seeding, the centroid update, the empty-cluster re-seed draws, and
 * the final distortion reduction; the backend only decides whether
 * the assignment step may skip k-way scans that provably cannot
 * change an assignment, and how a full scan computes its distances.
 * See the KMeansBackend doc comment for why the result is bitwise
 * identical either way. Every floating-point reduction keeps the
 * reduceGrain chunk layout and folds the chunk partials in chunk
 * order, so the bits match the historical pooled reductions.
 */
FlatRun
kmeansFlat(const Population &pop, int k, int max_iters, Rng &rng,
           KMeansBackend backend)
{
    constexpr int dims = projectedDims;
    const bool pruned = backend == KMeansBackend::Pruned;
    GT_ASSERT(!pruned || pop.groups,
              "pruned k-means needs a grouping of the points");
    const double *pts = pop.pts;
    const double *weights = pop.weights;
    const size_t n = pop.n;
    FlatRun run;
    run.centroids.reserve((size_t)k * dims);
    auto centroidRow = [&](int c) {
        return run.centroids.data() + (size_t)c * dims;
    };
    auto pushCentroid = [&](size_t i) {
        run.centroids.insert(run.centroids.end(), pts + i * dims,
                             pts + (i + 1) * dims);
    };

    const size_t m = pop.numGroups();
    const uint32_t *uid = pruned ? pop.groups->uid.data() : nullptr;
    const size_t num_chunks = (n + reduceGrain - 1) / reduceGrain;
    auto chunkEnd = [&](size_t c) {
        return std::min(n, (c + 1) * reduceGrain);
    };

    // k-means++ initialization (weighted). Per chunk, the weighted
    // distance total; the draw itself stays sequential on the
    // per-run RNG stream. The per-chunk partials are kept and reused
    // to locate the weighted draw, so only the one chunk containing
    // the crossing is rescanned instead of the whole population.
    //
    // The pruned backend refreshes one distance per group (min_d2 is
    // a pure function of the point's coordinates) and the per-point
    // chunk loop gathers from that table — the same values in the
    // same accumulation order, so totals and draws match the
    // per-point oracle path bitwise.
    std::vector<double> min_d2(pruned ? m : n,
                               std::numeric_limits<double>::max());
    auto pointD2 = [&](size_t i) {
        return pruned ? min_d2[uid[i]] : min_d2[i];
    };
    std::vector<double> partials(num_chunks, 0.0);
    size_t first = rng.nextBounded(n);
    pushCentroid(first);
    int seeded = 1;
    while (seeded < k) {
        const double *latest = centroidRow(seeded - 1);
        for (size_t v = 0; v < min_d2.size(); ++v) {
            // Exactly-coincident values (min_d2 already 0) skip the
            // recompute: dist2 is non-negative, so min(0, d) == 0 —
            // value- and bit-identical.
            if (min_d2[v] != 0.0) {
                const double *row =
                    pruned ? pop.repRow(v) : pts + v * dims;
                min_d2[v] = std::min(min_d2[v], dist2Row(row, latest));
            }
        }
        for (size_t c = 0; c < num_chunks; ++c) {
            double part = 0.0;
            for (size_t i = c * reduceGrain; i < chunkEnd(c); ++i)
                part += pointD2(i) * weights[i];
            partials[c] = part;
        }
        double total = 0.0;
        for (double part : partials)
            total += part;
        if (total <= 0.0) {
            // All points coincide with chosen centers; duplicate.
            pushCentroid(rng.nextBounded(n));
            ++seeded;
            continue;
        }
        double pick = rng.nextDouble() * total;
        // Walk the chunk partials to the chunk whose cumulative mass
        // reaches the draw, then rescan only that chunk. The
        // cumulative base advances by whole-chunk partials, so the
        // crossing test sees one fixed accumulation tree; if the
        // element-order rescan falls short of the partial-predicted
        // crossing by rounding, the walk continues into the next
        // chunk, still deterministically.
        double base = 0.0;
        size_t chosen = n - 1;
        bool found = false;
        for (size_t c = 0; c < num_chunks && !found; ++c) {
            double after = base + partials[c];
            if (after >= pick || c + 1 == num_chunks) {
                double acc = base;
                for (size_t i = c * reduceGrain; i < chunkEnd(c); ++i) {
                    acc += pointD2(i) * weights[i];
                    if (acc >= pick) {
                        chosen = i;
                        found = true;
                        break;
                    }
                }
            }
            base = after;
        }
        pushCentroid(chosen);
        ++seeded;
    }

    // The exact Lloyd inner loop — the same dist2 expression and the
    // same c = 1..k comparison order as always, so ties resolve to
    // the lowest index. The second-best tracking costs comparisons
    // only (no extra FP arithmetic) and feeds the pruned backend's
    // lower bound.
    auto pickNearest = [&](auto &&distTo, double &best_d,
                           double &second_d) {
        int best = 0;
        best_d = distTo(0);
        second_d = std::numeric_limits<double>::infinity();
        for (int c = 1; c < k; ++c) {
            double d = distTo(c);
            if (d < best_d) {
                second_d = best_d;
                best_d = d;
                best = c;
            } else if (d < second_d) {
                second_d = d;
            }
        }
        return best;
    };

    // The pruned backend's full scan: all k distances first, four
    // centroids at a time off a dim-major copy (block b, dim d, lane
    // j at ((b * dims + d) * scanLanes + j), zero-padded to whole
    // blocks). Lane j accumulates exactly dist2Row's operation
    // sequence — diff = p[d] - c[d], acc += diff * diff, d ascending
    // from acc = 0 — in element-wise vector arithmetic, so every
    // distance is bitwise dist2Row's; pickNearest then compares them
    // in Lloyd order, ignoring the padding lanes.
    const int blocks = (k + scanLanes - 1) / scanLanes;
    std::vector<double> centT, dists;
    auto transposeCentroids = [&] {
        for (int c = 0; c < k; ++c) {
            const double *row = centroidRow(c);
            double *lane = centT.data() +
                (size_t)(c / scanLanes) * dims * scanLanes +
                c % scanLanes;
            for (int d = 0; d < dims; ++d)
                lane[(size_t)d * scanLanes] = row[d];
        }
    };
    auto scanBlocked = [&](const double *p, double &best_d,
                           double &second_d) {
        for (int b = 0; b < blocks; ++b) {
            const double *ct =
                centT.data() + (size_t)b * dims * scanLanes;
            LanePair lo = {}, hi = {};
            for (int d = 0; d < dims; ++d) {
                LanePair x = {p[d], p[d]};
                LanePair dlo = x - loadPair(ct + d * scanLanes);
                LanePair dhi = x - loadPair(ct + d * scanLanes + 2);
                lo += dlo * dlo;
                hi += dhi * dhi;
            }
            std::memcpy(&dists[(size_t)b * scanLanes], &lo, sizeof(lo));
            std::memcpy(&dists[(size_t)b * scanLanes + 2], &hi,
                        sizeof(hi));
        }
        return pickNearest([&](int c) { return dists[(size_t)c]; },
                           best_d, second_d);
    };

    // Pruned-backend state, all per group: the bounds and the
    // group's current assignment (members always agree: they start
    // at 0 together and every pass applies the group's scan result
    // to all of them).
    std::vector<double> upper, lower, halfMin, drift, old_centroids;
    std::vector<int> assign_tab;
    if (pruned) {
        upper.assign(m, std::numeric_limits<double>::infinity());
        lower.assign(m, -std::numeric_limits<double>::infinity());
        halfMin.assign((size_t)k, 0.0);
        drift.assign((size_t)k, 0.0);
        assign_tab.assign(m, 0);
        centT.assign((size_t)blocks * dims * scanLanes, 0.0);
        dists.assign((size_t)blocks * scanLanes, 0.0);
        transposeCentroids();
    }

    // Per-chunk centroid partials (k x dims sums, k weights), kept
    // across iterations: a chunk's partial is a pure function of its
    // points' assignments, so it is recomputed only when an
    // assignment inside the chunk changed. The fold below still
    // combines every chunk in chunk order.
    const size_t sums_len = (size_t)k * dims;
    std::vector<double> part_sums(num_chunks * sums_len);
    std::vector<double> part_wsum(num_chunks * (size_t)k);
    std::vector<char> stale(num_chunks, 1);
    std::vector<double> sums(sums_len), wsum((size_t)k);

    run.assignment.assign(n, 0);
    for (int iter = 0; iter < max_iters; ++iter) {
        bool changed = false;
        run.stats.assignSteps += n;
        if (!pruned) {
            for (size_t i = 0; i < n; ++i) {
                const double *p = pts + i * dims;
                double best_d, second_d;
                int best = pickNearest(
                    [&](int c) { return dist2Row(p, centroidRow(c)); },
                    best_d, second_d);
                if (run.assignment[i] != best) {
                    run.assignment[i] = best;
                    stale[i / reduceGrain] = 1;
                    changed = true;
                }
            }
            run.stats.fullScans += n;
        } else {
            // Half the minimum inter-centroid distance per cluster:
            // a point closer to its centroid than that cannot be
            // closer to any other (k <= maxK, so the O(k^2) scan is
            // noise next to the per-group loop).
            for (int c = 0; c < k; ++c) {
                double best =
                    std::numeric_limits<double>::infinity();
                for (int o = 0; o < k; ++o) {
                    if (o == c)
                        continue;
                    best = std::min(
                        best, distLower(dist2Row(centroidRow(c),
                                                 centroidRow(o))));
                }
                halfMin[c] = 0.5 * best;
            }
            // One decision per group; a changed decision is applied
            // to the group's members only.
            for (size_t u = 0; u < m; ++u) {
                int a = assign_tab[u];
                uint64_t members =
                    pop.memberBegin[u + 1] - pop.memberBegin[u];
                // Strict < throughout: an exact tie on a bound falls
                // through to the exact scan, so tie-breaking always
                // happens in Lloyd order.
                double bound = std::max(halfMin[a], lower[u]);
                if (upper[u] < bound) {
                    run.stats.boundPrunes += members;
                    continue;
                }
                const double *p = pop.repRow(u);
                if (upper[u] < std::numeric_limits<double>::infinity()) {
                    double du = distUpper(dist2Row(p, centroidRow(a)));
                    upper[u] = du;
                    if (du < bound) {
                        run.stats.tightenPrunes += members;
                        continue;
                    }
                }
                double best_d, second_d;
                int best = scanBlocked(p, best_d, second_d);
                ++run.stats.fullScans;
                run.stats.memoHits += members - 1;
                upper[u] = distUpper(best_d);
                lower[u] = distLower(second_d);
                if (best == a)
                    continue;
                assign_tab[u] = best;
                changed = true;
                for (uint32_t j = pop.memberBegin[u];
                     j < pop.memberBegin[u + 1]; ++j) {
                    uint32_t i = pop.members[j];
                    run.assignment[i] = best;
                    stale[i / reduceGrain] = 1;
                }
            }
        }
        if (!changed && iter > 0)
            break;
        // Update: refresh the stale chunk partials, then fold all of
        // them in chunk order (partial 0, then += each later one,
        // exactly ThreadPool::parallelReduce's combination).
        if (pruned)
            old_centroids = run.centroids;
        for (size_t c = 0; c < num_chunks; ++c) {
            if (!stale[c])
                continue;
            stale[c] = 0;
            double *psum = part_sums.data() + c * sums_len;
            double *pw = part_wsum.data() + c * (size_t)k;
            std::fill(psum, psum + sums_len, 0.0);
            std::fill(pw, pw + k, 0.0);
            for (size_t i = c * reduceGrain; i < chunkEnd(c); ++i) {
                int cl = run.assignment[i];
                const double w = weights[i];
                pw[cl] += w;
                double *__restrict sum = psum + (size_t)cl * dims;
                const double *__restrict p = pts + i * dims;
                // Scalar code: at -O2 GCC emits one mulsd and one
                // addsd per dim here, no packed ops, and a vectorized
                // rewrite measured no clustering gain. Each element
                // is one product and one sum, so the bits do not
                // depend on how the loop compiles.
                for (int d = 0; d < dims - 1; ++d)
                    sum[d] += p[d] * w;
                sum[dims - 1] += p[dims - 1] * w;
            }
        }
        std::copy(part_sums.begin(), part_sums.begin() + sums_len,
                  sums.begin());
        std::copy(part_wsum.begin(), part_wsum.begin() + k,
                  wsum.begin());
        for (size_t c = 1; c < num_chunks; ++c) {
            const double *psum = part_sums.data() + c * sums_len;
            const double *pw = part_wsum.data() + c * (size_t)k;
            for (int cl = 0; cl < k; ++cl)
                wsum[(size_t)cl] += pw[cl];
            for (size_t d = 0; d < sums_len; ++d)
                sums[d] += psum[d];
        }
        for (int c = 0; c < k; ++c) {
            double *row = centroidRow(c);
            if (wsum[(size_t)c] > 0.0) {
                const double *sum = sums.data() + (size_t)c * dims;
                for (int d = 0; d < dims; ++d)
                    row[d] = sum[d] / wsum[(size_t)c];
            } else {
                // Re-seed an empty cluster on a random point.
                const double *p =
                    pts + rng.nextBounded(n) * dims;
                std::copy(p, p + dims, row);
            }
        }
        if (pruned) {
            transposeCentroids();
            // Centroid drift loosens every bound: the assigned
            // centroid may have moved toward the point (upper grows
            // by its drift) and any other centroid may have moved
            // closer (lower shrinks by the largest drift among
            // them — the second-largest when the assigned centroid
            // is itself the drift maximum).
            int drift_argmax = 0;
            double drift_max = -1.0, drift_second = 0.0;
            for (int c = 0; c < k; ++c) {
                drift[c] = distUpper(dist2Row(
                    old_centroids.data() + (size_t)c * dims,
                    centroidRow(c)));
                if (drift[c] > drift_max) {
                    drift_second = drift_max;
                    drift_max = drift[c];
                    drift_argmax = c;
                } else if (drift[c] > drift_second) {
                    drift_second = drift[c];
                }
            }
            if (drift_second < 0.0)
                drift_second = 0.0;
            for (size_t u = 0; u < m; ++u) {
                int a = assign_tab[u];
                upper[u] = boundAdd(upper[u], drift[a]);
                lower[u] = boundSub(lower[u], a == drift_argmax
                                        ? drift_second
                                        : drift_max);
            }
        }
    }

    // Final distortion, emitting the per-cluster weight partials the
    // BIC score consumes, folded in chunk order like the update. The
    // pruned backend computes one distance per group and gathers —
    // the same dist2Row value the per-point expression would
    // produce, in the same accumulation order, so the sum matches
    // bitwise.
    std::vector<double> dtab;
    if (pruned) {
        dtab.resize(m);
        for (size_t u = 0; u < m; ++u)
            dtab[u] = dist2Row(pop.repRow(u), centroidRow(assign_tab[u]));
    }
    double dist = 0.0;
    run.clusterWeight.assign((size_t)k, 0.0);
    std::vector<double> chunk_w((size_t)k);
    for (size_t c = 0; c < num_chunks; ++c) {
        double part = 0.0;
        std::fill(chunk_w.begin(), chunk_w.end(), 0.0);
        for (size_t i = c * reduceGrain; i < chunkEnd(c); ++i) {
            auto cl = (size_t)run.assignment[i];
            part += weights[i] *
                (pruned ? dtab[uid[i]]
                        : dist2Row(pts + i * dims, centroidRow((int)cl)));
            chunk_w[cl] += weights[i];
        }
        if (c == 0) {
            dist = part;
            run.clusterWeight = chunk_w;
            continue;
        }
        dist += part;
        for (int cl = 0; cl < k; ++cl)
            run.clusterWeight[(size_t)cl] += chunk_w[(size_t)cl];
    }
    run.distortion = dist;
    return run;
}

/**
 * Spherical-Gaussian BIC of a clustering (the X-means formulation
 * SimPoint uses), computed over weighted points. Consumes the
 * per-cluster weight partials the distortion reduction emitted
 * instead of re-scanning the population.
 */
double
bicScore(const FlatRun &km, int k)
{
    double total_w = 0.0;
    for (int c = 0; c < k; ++c)
        total_w += km.clusterWeight[(size_t)c];
    double d = projectedDims;
    // Pooled variance estimate; floor avoids log(0) on perfect fits.
    double denom = std::max(total_w - (double)k, 1.0);
    double sigma2 = std::max(km.distortion / (denom * d), 1e-12);

    double ll = 0.0;
    for (int c = 0; c < k; ++c) {
        double rc = km.clusterWeight[(size_t)c];
        if (rc <= 0.0)
            continue;
        ll += rc * std::log(rc / total_w);
    }
    ll -= total_w * d / 2.0 * std::log(2.0 * M_PI * sigma2);
    ll -= (total_w - (double)k) * d / 2.0;

    double params = (double)k * (d + 1.0);
    return ll - params / 2.0 * std::log(total_w);
}

/** Flatten Point rows into the row-major array kmeansFlat consumes
 * (one memcpy; Point is packed, see the static_assert above). */
std::vector<double>
flattenPoints(const std::vector<Point> &points)
{
    std::vector<double> flat(points.size() * projectedDims);
    if (!points.empty()) {
        std::memcpy(flat.data(), points.data(),
                    points.size() * sizeof(Point));
    }
    return flat;
}

} // anonymous namespace

UniqueIndex
buildUniqueIndex(const double *pts, size_t n)
{
    constexpr int dims = projectedDims;
    auto row = [&](uint32_t i) { return pts + (size_t)i * dims; };
    std::vector<uint32_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = (uint32_t)i;
    // Value order (any total order over equal-comparing rows works;
    // grouping only needs equal values adjacent).
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) {
                  return std::lexicographical_compare(
                      row(a), row(a) + dims, row(b), row(b) + dims);
              });
    UniqueIndex ui;
    ui.uid.resize(n);
    for (uint32_t i : order) {
        if (ui.rep.empty() ||
            !std::equal(row(i), row(i) + dims, row(ui.rep.back()))) {
            ui.rep.push_back(i);
            ui.count.push_back(0);
        }
        ui.uid[i] = (uint32_t)(ui.rep.size() - 1);
        ++ui.count.back();
    }
    return ui;
}

void
KMeansStats::merge(const KMeansStats &other)
{
    assignSteps += other.assignSteps;
    boundPrunes += other.boundPrunes;
    tightenPrunes += other.tightenPrunes;
    memoHits += other.memoHits;
    fullScans += other.fullScans;
}

double
KMeansStats::pruneRate() const
{
    if (assignSteps == 0)
        return 0.0;
    return (double)(boundPrunes + tightenPrunes + memoHits) /
        (double)assignSteps;
}

KMeansRun
kmeansRun(const std::vector<Point> &points,
          const std::vector<double> &weights, int k, int max_iters,
          Rng &rng, KMeansBackend backend)
{
    GT_ASSERT(!points.empty(), "k-means over an empty population");
    GT_ASSERT(points.size() == weights.size(),
              "points/weights size mismatch");
    GT_ASSERT(k >= 1 && (size_t)k <= points.size(),
              "k must be in [1, n], got ", k);
    std::vector<double> flat = flattenPoints(points);
    UniqueIndex groups;
    if (backend == KMeansBackend::Pruned)
        groups = buildUniqueIndex(flat.data(), points.size());
    Population pop = preparePopulation(
        flat.data(), points.size(), weights,
        backend == KMeansBackend::Pruned ? &groups : nullptr);
    FlatRun run = kmeansFlat(pop, k, max_iters, rng, backend);
    KMeansRun out;
    out.assignment = std::move(run.assignment);
    out.centroids.resize((size_t)k);
    std::memcpy(out.centroids.data(), run.centroids.data(),
                (size_t)k * sizeof(Point));
    out.distortion = run.distortion;
    out.clusterWeight = std::move(run.clusterWeight);
    out.stats = run.stats;
    return out;
}

ProjectionTable
ProjectionTable::build(const std::vector<uint64_t> &keys)
{
    GT_ASSERT(std::is_sorted(keys.begin(), keys.end()),
              "projection table keys must be ascending");
    ProjectionTable table;
    table.rows.resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
        for (int d = 0; d < projectedDims; ++d)
            table.rows[i][d] = projectionCoeff(keys[i], d);
    }
    return table;
}

Point
project(const FeatureVector &vec)
{
    Point p{};
    const std::vector<uint64_t> &keys = vec.keys();
    const std::vector<double> &values = vec.values();
    for (size_t i = 0; i < keys.size(); ++i) {
        for (int d = 0; d < projectedDims; ++d)
            p[d] += values[i] * projectionCoeff(keys[i], d);
    }
    return p;
}

Clustering
cluster(const std::vector<FeatureVector> &vectors,
        const std::vector<double> &weights,
        const ClusterOptions &options)
{
    GT_ASSERT(!vectors.empty(), "clustering an empty population");
    GT_ASSERT(vectors.size() == weights.size(),
              "vectors/weights size mismatch");

    sched::ThreadPool &pool =
        options.pool ? *options.pool : sched::ThreadPool::global();

    size_t n = vectors.size();
    std::vector<Point> points(n);
    pool.parallelFor(n, [&](size_t i) {
        points[i] = project(vectors[i]);
    });
    return clusterPoints(points, weights, options);
}

Clustering
clusterPoints(const std::vector<Point> &points,
              const std::vector<double> &weights,
              const ClusterOptions &options)
{
    GT_ASSERT(!points.empty(), "clustering an empty population");
    GT_ASSERT(points.size() == weights.size(),
              "points/weights size mismatch");
    for (double w : weights)
        GT_ASSERT(w > 0.0, "non-positive interval weight");

    sched::ThreadPool &pool =
        options.pool ? *options.pool : sched::ThreadPool::global();

    size_t n = points.size();
    int max_k = std::min<int>(options.maxK, (int)n);
    Rng rng(options.seed);

    // Flatten and prepare the population once; every candidate-k
    // run reads it. The grouping (which points coincide — dispatch
    // populations repeat a handful of interval signatures thousands
    // of times) is likewise a property of the population alone, so
    // one sort serves all candidate-k runs — and a caller that
    // already knows a grouping hands it in instead
    // (options.uniqueIndex).
    std::vector<double> flat = flattenPoints(points);
    GT_ASSERT(!options.uniqueIndex ||
                  options.uniqueIndex->uid.size() == n,
              "unique index covers ",
              options.uniqueIndex ? options.uniqueIndex->uid.size()
                                  : 0,
              " points, population has ", n);
    const bool pruned = options.backend == KMeansBackend::Pruned;
    UniqueIndex local;
    const UniqueIndex *uniq = options.uniqueIndex;
    if (pruned && !uniq) {
        local = buildUniqueIndex(flat.data(), n);
        uniq = &local;
    }
    const Population pop = preparePopulation(flat.data(), n, weights,
                                             pruned ? uniq : nullptr);

    // Run k-means for every candidate k and score with BIC. Each
    // candidate draws from split(k) of the seed stream, so the runs
    // are independent tasks whose results cannot depend on execution
    // order; each run is one serial kernel.
    std::vector<FlatRun> runs((size_t)max_k);
    std::vector<double> bics((size_t)max_k);
    pool.parallelFor(
        (size_t)max_k,
        [&](size_t idx) {
            int k = (int)idx + 1;
            Rng sub = rng.split((uint64_t)k);
            runs[idx] = kmeansFlat(pop, k, options.maxIters, sub,
                                   options.backend);
            bics[idx] = bicScore(runs[idx], k);
        },
        1);

    // SimPoint's acceptance: the smallest k whose BIC reaches the
    // threshold fraction of the best BIC's range above the worst.
    double best = *std::max_element(bics.begin(), bics.end());
    double worst = *std::min_element(bics.begin(), bics.end());
    double range = best - worst;
    int chosen_k = max_k;
    for (int k = 1; k <= max_k; ++k) {
        double score = range > 0.0
            ? (bics[(size_t)k - 1] - worst) / range
            : 1.0;
        if (score >= options.bicThreshold) {
            chosen_k = k;
            break;
        }
    }

    const FlatRun &km = runs[(size_t)chosen_k - 1];

    Clustering out;
    out.k = chosen_k;
    out.assignment = km.assignment;
    out.bic = bics[(size_t)chosen_k - 1];
    out.representative.assign((size_t)chosen_k, 0);
    out.weight.assign((size_t)chosen_k, 0.0);

    // Representatives: nearest interval to each centroid; weights:
    // cluster share of total instruction weight.
    std::vector<double> best_d((size_t)chosen_k,
                               std::numeric_limits<double>::max());
    std::vector<bool> seen((size_t)chosen_k, false);
    double total_w = 0.0;
    for (size_t i = 0; i < n; ++i) {
        auto c = (size_t)km.assignment[i];
        total_w += weights[i];
        out.weight[c] += weights[i];
        double d = dist2Row(flat.data() + i * projectedDims,
                            km.centroids.data() +
                                c * projectedDims);
        if (d < best_d[c]) {
            best_d[c] = d;
            out.representative[c] = i;
            seen[c] = true;
        }
    }

    // Drop empty clusters (k-means can leave them on tiny inputs).
    Clustering filtered;
    filtered.bic = out.bic;
    filtered.distortion = km.distortion;
    // Assignment work across every candidate k, merged in fixed k
    // order (the counters themselves are order-insensitive sums).
    for (const FlatRun &r : runs)
        filtered.stats.merge(r.stats);
    std::vector<int> remap((size_t)chosen_k, -1);
    for (int c = 0; c < chosen_k; ++c) {
        if (!seen[(size_t)c] || out.weight[(size_t)c] <= 0.0)
            continue;
        remap[(size_t)c] = filtered.k++;
        filtered.representative.push_back(
            out.representative[(size_t)c]);
        filtered.weight.push_back(out.weight[(size_t)c] / total_w);
    }
    filtered.assignment.resize(n);
    for (size_t i = 0; i < n; ++i) {
        int m = remap[(size_t)km.assignment[i]];
        GT_ASSERT(m >= 0, "point assigned to an empty cluster");
        filtered.assignment[i] = m;
    }
    return filtered;
}

} // namespace gt::core::simpoint
