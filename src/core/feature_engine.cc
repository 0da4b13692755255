#include "core/feature_engine.hh"

#include <algorithm>
#include <bit>
#include <mutex>
#include <unordered_map>

#include "common/logging.hh"

namespace gt::core
{

namespace
{

using detail::mixFeatureRound;

constexpr uint32_t noIndex = UINT32_MAX;

inline uint64_t
bitsOf(double value)
{
    return std::bit_cast<uint64_t>(value);
}

/**
 * Visit @p p's block-stream contributions in lowering order: per
 * executed block, (stream, key, value) for the base, read, write and
 * read+write streams (0..3), with the static per-block values read
 * from @p kernel, the table row of @p p's kernel. Zero values are
 * skipped exactly as the oracle's add() skips them. Stops and
 * returns false as soon as @p fn does.
 */
template <typename Fn>
bool
forEachBlockContribution(const gtpin::DispatchProfile &p,
                         const gtpin::KernelStatic &kernel, Fn &&fn)
{
    auto emit = [&](size_t stream, uint64_t prefix, uint64_t tag,
                    double value) {
        return value == 0.0 ||
               fn(stream, mixFeatureRound(prefix, tag), value);
    };
    for (size_t b = 0; b < p.blockCounts.size(); ++b) {
        uint64_t count = p.blockCounts[b];
        if (count == 0)
            continue;
        // The first three rounds of mixFeatureKey(kernel, b, 0, tag)
        // are shared by the four tags.
        uint64_t prefix = mixFeatureRound(
            mixFeatureRound(mixFeatureRound(detail::mixFeatureSeed,
                                            p.kernelId),
                            b),
            0);
        double read = (double)count * kernel.blockReadBytes[b];
        double written = (double)count * kernel.blockWriteBytes[b];
        if (!emit(0, prefix, detail::tagBase,
                  (double)count * kernel.blockLens[b]) ||
            !emit(1, prefix, detail::tagRead, read) ||
            !emit(2, prefix, detail::tagWrite, written) ||
            !emit(3, prefix, detail::tagReadWrite, read + written)) {
            return false;
        }
    }
    return true;
}

} // anonymous namespace

DispatchFeatureCache::DispatchFeatureCache(const TraceDatabase &db,
                                           sched::ThreadPool *pool)
{
    sched::ThreadPool &p = pool ? *pool : sched::ThreadPool::global();
    // Chunks of whole trace-store blocks, so a chunk decodes each of
    // its blocks once, into the lowering thread's decode cache; about
    // two per worker, so the pool stays busy while each distinct
    // block row is lowered in as few chunks as possible.
    constexpr uint64_t block = trace_store::defaultBlockSize;
    const uint64_t n = db.numDispatches();
    const uint64_t chunk =
        block * std::max<uint64_t>(1, (n + block - 1) / block /
                                          (2 * p.threadCount()));
    std::vector<DispatchFeatureCache> parts((n + chunk - 1) / chunk);
    // Chunks merge in chunk order as soon as they are ready, so the
    // serial merge overlaps the lowering of later chunks: whichever
    // task finds no merge running becomes the merger and drains every
    // ready chunk in order. Readiness and the merger role change
    // under one lock, so no ready chunk is ever left unmerged.
    std::mutex lock;
    std::vector<char> ready(parts.size(), 0);
    size_t next = 0;
    bool merging = false;
    p.parallelFor(
        parts.size(),
        [&](size_t c) {
            uint64_t end = std::min(n, (c + 1) * chunk);
            for (uint64_t d = c * chunk; d < end; ++d)
                parts[c].appendDispatch(db.profileAt(d), db.kernels());
            {
                std::lock_guard<std::mutex> guard(lock);
                ready[c] = 1;
                if (merging)
                    return;
                merging = true;
            }
            for (;;) {
                size_t i;
                {
                    std::lock_guard<std::mutex> guard(lock);
                    if (next == parts.size() || !ready[next]) {
                        merging = false;
                        return;
                    }
                    i = next++;
                }
                appendCache(parts[i]);
                parts[i] = DispatchFeatureCache();
            }
        },
        1);
    refreshColumns();
}

uint32_t
DispatchFeatureCache::intern(uint64_t key)
{
    // Interim column ids are assigned in first-encounter order and
    // never change, so already-lowered streams stay valid as more
    // dispatches arrive; refreshColumns() re-derives the ascending-
    // key ranks queries read through. Hash-colliding keys (however
    // unlikely at 64 bits) intern to one column, matching the map
    // oracle's merge of colliding contributions.
    auto [it, inserted] = idOf.emplace(key, (uint32_t)idOf.size());
    if (inserted) {
        internKeys.push_back(key);
        ranksStale = true;
    }
    return it->second;
}

void
DispatchFeatureCache::appendDispatch(
    const gtpin::DispatchProfile &p, const gtpin::KernelTable &kernels)
{
    using detail::mixFeatureKey;
    using detail::tagBase;
    using detail::tagRead;
    using detail::tagWrite;

    p.checkShape(kernels);

    auto push = [&](Stream &stream, uint64_t key, double value) {
        // Zero contributions are dropped exactly as the oracle's
        // add() drops them.
        if (value == 0.0)
            return;
        stream.cols.push_back(intern(key));
        stream.values.push_back(value);
    };

    double instrs = (double)p.instrs;
    push(streams[knBase],
         mixFeatureKey(p.kernelId, 0, 0, tagBase), instrs);
    push(streams[knArgsBase],
         mixFeatureKey(p.kernelId, p.argsHash, 0, tagBase),
         instrs);
    push(streams[knGwsBase],
         mixFeatureKey(p.kernelId, 0, p.globalWorkSize, tagBase),
         instrs);
    push(streams[knArgsGwsBase],
         mixFeatureKey(p.kernelId, p.argsHash, p.globalWorkSize,
                       tagBase),
         instrs);
    push(streams[knRw],
         mixFeatureKey(p.kernelId, 0, 0, tagRead),
         (double)p.bytesRead);
    push(streams[knRw],
         mixFeatureKey(p.kernelId, 0, 0, tagWrite),
         (double)p.bytesWritten);
    for (size_t s = knBase; s < bbBase; ++s)
        streams[s].offsets.push_back(streams[s].cols.size());

    blockRowOf.push_back(blockRow(p, kernels.at(p.kernelId)));
    ++numDispatches;
}

bool
DispatchFeatureCache::sameBlockRow(
    uint32_t row, const gtpin::DispatchProfile &p,
    const gtpin::KernelStatic &kernel) const
{
    std::array<uint64_t, 4> next, end;
    for (size_t s = 0; s < next.size(); ++s) {
        next[s] = streams[bbBase + s].offsets[row];
        end[s] = streams[bbBase + s].offsets[row + 1];
    }
    bool same = forEachBlockContribution(
        p, kernel, [&](size_t s, uint64_t key, double value) {
            const Stream &stream = streams[bbBase + s];
            if (next[s] == end[s] ||
                internKeys[stream.cols[next[s]]] != key ||
                bitsOf(stream.values[next[s]]) != bitsOf(value)) {
                return false;
            }
            ++next[s];
            return true;
        });
    return same && next == end;
}

template <typename Same, typename Append>
uint32_t
DispatchFeatureCache::findOrAddRow(uint64_t hash, Same &&same,
                                   Append &&append)
{
    uint32_t fresh = (uint32_t)numBlockRows();
    auto [it, inserted] = rowByHash.emplace(hash, fresh);
    if (!inserted) {
        for (uint32_t r = it->second; r != noIndex;
             r = rowNextSameHash[r]) {
            if (same(r))
                return r;
        }
        rowNextSameHash.push_back(it->second);
        it->second = fresh;
    } else {
        rowNextSameHash.push_back(noIndex);
    }
    append();
    for (size_t s = bbBase; s < numStreams; ++s)
        streams[s].offsets.push_back(streams[s].cols.size());
    return fresh;
}

uint32_t
DispatchFeatureCache::blockRow(const gtpin::DispatchProfile &p,
                               const gtpin::KernelStatic &kernel)
{
    // The kernel and its block counts nominate candidate rows (the
    // static per-block arrays are the kernel's own); the lowered
    // compare decides, so a hash collision costs time, never
    // correctness.
    uint64_t hash = mixFeatureRound(0, p.kernelId);
    for (uint64_t count : p.blockCounts)
        hash = mixFeatureRound(hash, count);
    return findOrAddRow(
        hash, [&](uint32_t r) { return sameBlockRow(r, p, kernel); },
        [&] {
            forEachBlockContribution(
                p, kernel, [&](size_t s, uint64_t key, double value) {
                    Stream &stream = streams[bbBase + s];
                    stream.cols.push_back(intern(key));
                    stream.values.push_back(value);
                    return true;
                });
        });
}

void
DispatchFeatureCache::appendCache(const DispatchFeatureCache &part)
{
    std::vector<uint32_t> colOf(part.internKeys.size());
    for (size_t i = 0; i < colOf.size(); ++i)
        colOf[i] = intern(part.internKeys[i]);

    // Each part row's content hash, recovered from its dedup chains.
    std::vector<uint64_t> hashOf(part.numBlockRows());
    for (const auto &[hash, newest] : part.rowByHash) {
        for (uint32_t r = newest; r != noIndex;
             r = part.rowNextSameHash[r]) {
            hashOf[r] = hash;
        }
    }
    std::vector<uint32_t> rowMap(hashOf.size());
    for (uint32_t pr = 0; pr < rowMap.size(); ++pr) {
        auto sameRow = [&](uint32_t r) {
            for (size_t s = bbBase; s < numStreams; ++s) {
                const Stream &mine = streams[s];
                const Stream &theirs = part.streams[s];
                uint64_t i = mine.offsets[r];
                uint64_t j = theirs.offsets[pr];
                uint64_t len = theirs.offsets[pr + 1] - j;
                if (mine.offsets[r + 1] - i != len)
                    return false;
                for (uint64_t e = 0; e < len; ++e) {
                    if (mine.cols[i + e] != colOf[theirs.cols[j + e]] ||
                        bitsOf(mine.values[i + e]) !=
                            bitsOf(theirs.values[j + e])) {
                        return false;
                    }
                }
            }
            return true;
        };
        rowMap[pr] = findOrAddRow(hashOf[pr], sameRow, [&] {
            for (size_t s = bbBase; s < numStreams; ++s) {
                const Stream &theirs = part.streams[s];
                for (uint64_t j = theirs.offsets[pr];
                     j < theirs.offsets[pr + 1]; ++j) {
                    streams[s].cols.push_back(colOf[theirs.cols[j]]);
                    streams[s].values.push_back(theirs.values[j]);
                }
            }
        });
    }

    for (size_t s = knBase; s < bbBase; ++s) {
        Stream &mine = streams[s];
        const Stream &theirs = part.streams[s];
        uint64_t base = mine.cols.size();
        for (size_t r = 1; r < theirs.offsets.size(); ++r)
            mine.offsets.push_back(base + theirs.offsets[r]);
        for (uint32_t col : theirs.cols)
            mine.cols.push_back(colOf[col]);
        mine.values.insert(mine.values.end(), theirs.values.begin(),
                           theirs.values.end());
    }
    for (uint32_t r : part.blockRowOf)
        blockRowOf.push_back(rowMap[r]);
    numDispatches += part.numDispatches;
}

void
DispatchFeatureCache::refreshColumns()
{
    if (!ranksStale && colKeys.size() == internKeys.size())
        return;

    // Rank columns so that ascending rank order is ascending key
    // order — the map oracle's iteration order. Interned keys are
    // distinct, so the order (and thus every rank) is deterministic.
    std::vector<uint32_t> order((uint32_t)internKeys.size());
    for (uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) {
                  return internKeys[a] < internKeys[b];
              });
    rankOf.resize(order.size());
    colKeys.resize(order.size());
    for (uint32_t rank = 0; rank < order.size(); ++rank) {
        rankOf[order[rank]] = rank;
        colKeys[rank] = internKeys[order[rank]];
    }
    ranksStale = false;
}

uint64_t
DispatchFeatureCache::memoryBytes() const
{
    uint64_t bytes = sizeof(*this);
    for (const Stream &stream : streams) {
        bytes += stream.offsets.size() * sizeof(uint64_t);
        bytes += stream.cols.size() * sizeof(uint32_t);
        bytes += stream.values.size() * sizeof(double);
    }
    bytes += blockRowOf.size() * sizeof(uint32_t);
    bytes += rowNextSameHash.size() * sizeof(uint32_t);
    // Hash-node estimate for the intern and row maps: pair plus
    // bucket link.
    bytes += (idOf.size() + rowByHash.size()) *
             (sizeof(uint64_t) + sizeof(uint32_t) + 2 * sizeof(void *));
    bytes += internKeys.size() * sizeof(uint64_t);
    bytes += rankOf.size() * sizeof(uint32_t);
    bytes += colKeys.size() * sizeof(uint64_t);
    return bytes;
}

std::array<DispatchFeatureCache::StreamId, 3>
DispatchFeatureCache::streamsFor(FeatureKind kind, int &count)
{
    switch (kind) {
      case FeatureKind::KN:
        count = 1;
        return {knBase, knBase, knBase};
      case FeatureKind::KN_ARGS:
        count = 1;
        return {knArgsBase, knArgsBase, knArgsBase};
      case FeatureKind::KN_GWS:
        count = 1;
        return {knGwsBase, knGwsBase, knGwsBase};
      case FeatureKind::KN_ARGS_GWS:
        count = 1;
        return {knArgsGwsBase, knArgsGwsBase, knArgsGwsBase};
      case FeatureKind::KN_RW:
        count = 2;
        return {knBase, knRw, knRw};
      case FeatureKind::BB:
        count = 1;
        return {bbBase, bbBase, bbBase};
      case FeatureKind::BB_R:
        count = 2;
        return {bbBase, bbRead, bbRead};
      case FeatureKind::BB_W:
        count = 2;
        return {bbBase, bbWrite, bbWrite};
      case FeatureKind::BB_R_W:
        count = 3;
        return {bbBase, bbRead, bbWrite};
      case FeatureKind::BB_RpW:
        count = 2;
        return {bbBase, bbReadWrite, bbReadWrite};
      default:
        panic("invalid feature kind ", (int)kind);
    }
}

void
DispatchFeatureCache::accumulate(const Interval &interval,
                                 FeatureKind kind,
                                 Scratch &scratch) const
{
    GT_ASSERT(interval.lastDispatch < numDispatches,
              "interval out of range");
    GT_ASSERT(!ranksStale,
              "query on a stale cache: call refreshColumns() after "
              "appending dispatches");

    if (scratch.acc.size() != colKeys.size()) {
        scratch.acc.assign(colKeys.size(), 0.0);
        scratch.epoch.assign(colKeys.size(), 0);
        scratch.generation = 0;
    }
    if (++scratch.generation == 0) {
        // Generation counter wrapped: reset the epoch marks.
        std::fill(scratch.epoch.begin(), scratch.epoch.end(), 0u);
        scratch.generation = 1;
    }
    scratch.touched.clear();

    int count = 0;
    std::array<StreamId, 3> list = streamsFor(kind, count);

    // Dispatch-major accumulation: per key, contributions combine in
    // dispatch-encounter order — the map oracle's per-key `+=`
    // order — with the base stream preceding the memory streams
    // within a dispatch just as the oracle emits them.
    for (uint64_t d = interval.firstDispatch;
         d <= interval.lastDispatch; ++d) {
        for (int s = 0; s < count; ++s) {
            StreamId id = list[(size_t)s];
            const Stream &stream = streams[id];
            uint64_t r = rowOf(id, d);
            for (uint64_t i = stream.offsets[r];
                 i < stream.offsets[r + 1]; ++i) {
                uint32_t col = rankOf[stream.cols[i]];
                if (scratch.epoch[col] != scratch.generation) {
                    scratch.epoch[col] = scratch.generation;
                    scratch.acc[col] = stream.values[i];
                    scratch.touched.push_back(col);
                } else {
                    scratch.acc[col] += stream.values[i];
                }
            }
        }
    }

    // Ascending column order is ascending key order, the map
    // oracle's iteration order.
    std::sort(scratch.touched.begin(), scratch.touched.end());
}

FeatureVector
DispatchFeatureCache::extract(const Interval &interval,
                              FeatureKind kind,
                              Scratch &scratch) const
{
    accumulate(interval, kind, scratch);
    std::vector<uint64_t> keys;
    std::vector<double> values;
    keys.reserve(scratch.touched.size());
    values.reserve(scratch.touched.size());
    for (uint32_t col : scratch.touched) {
        keys.push_back(colKeys[col]);
        values.push_back(scratch.acc[col]);
    }
    return FeatureVector::fromSorted(std::move(keys),
                                     std::move(values));
}

simpoint::Point
DispatchFeatureCache::projectInto(
    const Interval &interval, FeatureKind kind, Scratch &scratch,
    const simpoint::ProjectionTable &table) const
{
    GT_ASSERT(table.size() == colKeys.size(),
              "projection table/cache key universe mismatch");
    accumulate(interval, kind, scratch);

    // Same FP order as FeatureVector::normalize() followed by
    // simpoint::project(): one ascending pass summing, then one
    // ascending pass dividing and accumulating per dimension.
    double sum = 0.0;
    for (uint32_t col : scratch.touched)
        sum += scratch.acc[col];
    simpoint::Point p{};
    for (uint32_t col : scratch.touched) {
        double v = scratch.acc[col];
        if (sum != 0.0)
            v /= sum;
        const simpoint::Point &row = table.rowAt(col);
        for (int d = 0; d < simpoint::projectedDims; ++d)
            p[d] += v * row[d];
    }
    return p;
}

uint64_t
DispatchFeatureCache::contributionHash(const Interval &interval,
                                       FeatureKind kind) const
{
    GT_ASSERT(interval.firstDispatch <= interval.lastDispatch &&
                  interval.lastDispatch < numDispatches,
              "interval out of range");
    int count = 0;
    std::array<StreamId, 3> list = streamsFor(kind, count);
    // A kind reads block streams only or kernel streams only.
    bool block = isBlockStream(list[0]);
    uint64_t hash = mixFeatureRound(
        0, interval.lastDispatch - interval.firstDispatch);
    for (uint64_t d = interval.firstDispatch;
         d <= interval.lastDispatch; ++d) {
        if (block) {
            hash = mixFeatureRound(hash, blockRowOf[d]);
            continue;
        }
        for (int s = 0; s < count; ++s) {
            const Stream &stream = streams[list[(size_t)s]];
            uint64_t begin = stream.offsets[d];
            uint64_t end = stream.offsets[d + 1];
            hash = mixFeatureRound(hash, end - begin);
            for (uint64_t i = begin; i < end; ++i) {
                hash = mixFeatureRound(hash, stream.cols[i]);
                hash = mixFeatureRound(hash, bitsOf(stream.values[i]));
            }
        }
    }
    return hash;
}

bool
DispatchFeatureCache::sameContributions(const Interval &a,
                                        const Interval &b,
                                        FeatureKind kind) const
{
    uint64_t length = a.lastDispatch - a.firstDispatch;
    if (b.lastDispatch - b.firstDispatch != length)
        return false;
    int count = 0;
    std::array<StreamId, 3> list = streamsFor(kind, count);
    bool block = isBlockStream(list[0]);
    for (uint64_t k = 0; k <= length; ++k) {
        uint64_t da = a.firstDispatch + k;
        uint64_t db = b.firstDispatch + k;
        if (block) {
            if (blockRowOf[da] != blockRowOf[db])
                return false;
            continue;
        }
        for (int s = 0; s < count; ++s) {
            const Stream &stream = streams[list[(size_t)s]];
            uint64_t ia = stream.offsets[da];
            uint64_t ib = stream.offsets[db];
            uint64_t n = stream.offsets[da + 1] - ia;
            if (stream.offsets[db + 1] - ib != n)
                return false;
            for (uint64_t i = 0; i < n; ++i) {
                if (stream.cols[ia + i] != stream.cols[ib + i] ||
                    bitsOf(stream.values[ia + i]) !=
                        bitsOf(stream.values[ib + i])) {
                    return false;
                }
            }
        }
    }
    return true;
}

std::vector<simpoint::Point>
DispatchFeatureCache::projectAll(
    std::span<const Interval> intervals, FeatureKind kind,
    const simpoint::ProjectionTable &table,
    simpoint::UniqueIndex *groups) const
{
    GT_ASSERT(intervals.size() < noIndex, "too many intervals: ",
              intervals.size());
    std::vector<simpoint::Point> points(intervals.size());
    // Content hash -> newest interval with that hash; olderSameHash
    // chains to earlier distinct intervals of the same hash. A hash
    // only nominates; sameContributions() decides.
    std::unordered_map<uint64_t, uint32_t> newestWithHash;
    std::vector<uint32_t> olderSameHash(intervals.size(), noIndex);
    simpoint::UniqueIndex found;
    found.uid.resize(intervals.size());
    Scratch scratch;
    for (uint32_t i = 0; i < intervals.size(); ++i) {
        const Interval &iv = intervals[i];
        auto [it, inserted] =
            newestWithHash.emplace(contributionHash(iv, kind), i);
        if (!inserted) {
            uint32_t match = noIndex;
            for (uint32_t j = it->second; j != noIndex;
                 j = olderSameHash[j]) {
                if (sameContributions(iv, intervals[j], kind)) {
                    match = j;
                    break;
                }
            }
            if (match != noIndex) {
                points[i] = points[match];
                found.uid[i] = found.uid[match];
                ++found.count[found.uid[i]];
                continue;
            }
            olderSameHash[i] = it->second;
            it->second = i;
        }
        points[i] = projectInto(iv, kind, scratch, table);
        found.uid[i] = (uint32_t)found.rep.size();
        found.rep.push_back(i);
        found.count.push_back(1);
    }
    if (groups)
        *groups = std::move(found);
    return points;
}

FeatureEngine::FeatureEngine(const TraceDatabase &db_,
                             sched::ThreadPool *pool)
    : db(db_), cache(db_, pool),
      table(simpoint::ProjectionTable::build(cache.uniqueKeys()))
{
}

FeatureVector
FeatureEngine::extract(const Interval &interval,
                       FeatureKind kind) const
{
    DispatchFeatureCache::Scratch scratch;
    return cache.extract(interval, kind, scratch);
}

std::vector<FeatureVector>
FeatureEngine::extractAll(const std::vector<Interval> &intervals,
                          FeatureKind kind) const
{
    std::vector<FeatureVector> vectors;
    vectors.reserve(intervals.size());
    DispatchFeatureCache::Scratch scratch;
    for (const Interval &iv : intervals) {
        FeatureVector vec = cache.extract(iv, kind, scratch);
        vec.normalize();
        vectors.push_back(std::move(vec));
    }
    return vectors;
}

std::vector<simpoint::Point>
FeatureEngine::projectAll(const std::vector<Interval> &intervals,
                          FeatureKind kind,
                          simpoint::UniqueIndex *groups) const
{
    return cache.projectAll(intervals, kind, table, groups);
}

} // namespace gt::core
