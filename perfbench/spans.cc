#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench
{

namespace
{

std::atomic<uint64_t> nextSerial{1};

int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Measure of the union of [start, end) intervals. */
int64_t
unionMeasure(std::vector<std::pair<int64_t, int64_t>> iv)
{
    std::sort(iv.begin(), iv.end());
    int64_t total = 0;
    int64_t curStart = 0, curEnd = 0;
    bool open = false;
    for (const auto &[s, e] : iv) {
        if (e <= s)
            continue;
        if (!open || s > curEnd) {
            if (open)
                total += curEnd - curStart;
            curStart = s;
            curEnd = e;
            open = true;
        } else {
            curEnd = std::max(curEnd, e);
        }
    }
    if (open)
        total += curEnd - curStart;
    return total;
}

} // anonymous namespace

struct Tracer::Buffer
{
    uint32_t thread = 0;
    uint64_t nextLocal = 0;
    std::vector<SpanRecord> open;
    std::vector<SpanRecord> closed;
};

Tracer::Tracer() : serial(nextSerial.fetch_add(1)), epochNs(steadyNs())
{
}

Tracer::~Tracer() = default;

int64_t
Tracer::nowNs() const
{
    return steadyNs() - epochNs;
}

Tracer::Buffer &
Tracer::local()
{
    // One buffer per (thread, tracer); serials are never reused, so a
    // stale entry of a destroyed tracer is never matched again.
    thread_local std::vector<std::pair<uint64_t, Buffer *>> mine;
    for (const auto &[s, buf] : mine) {
        if (s == serial)
            return *buf;
    }
    auto buf = std::make_unique<Buffer>();
    Buffer *raw = buf.get();
    {
        std::lock_guard<std::mutex> lock(mutex);
        raw->thread = (uint32_t)buffers.size();
        buffers.push_back(std::move(buf));
    }
    mine.emplace_back(serial, raw);
    return *raw;
}

uint64_t
Tracer::begin(const char *name, uint64_t op, uint64_t parent)
{
    Buffer &b = local();
    SpanRecord r;
    r.name = name;
    r.id = ((uint64_t)(b.thread + 1) << 40) | ++b.nextLocal;
    r.thread = b.thread;
    if (parent == 0 && !b.open.empty())
        parent = b.open.back().id;
    r.parent = parent;
    if (op == 0 && !b.open.empty() && b.open.back().id == parent)
        op = b.open.back().op;
    r.op = op;
    r.startNs = nowNs();
    b.open.push_back(r);
    return r.id;
}

void
Tracer::end(uint64_t id)
{
    int64_t now = nowNs();
    Buffer &b = local();
    if (b.open.empty() || b.open.back().id != id)
        throw std::logic_error("span closed out of order");
    SpanRecord r = b.open.back();
    b.open.pop_back();
    r.endNs = now;
    b.closed.push_back(r);
}

void
Tracer::rename(uint64_t id, const char *name)
{
    Buffer &b = local();
    if (b.open.empty() || b.open.back().id != id)
        throw std::logic_error("renamed span is not the innermost");
    b.open.back().name = name;
}

std::vector<SpanRecord>
Tracer::collect() const
{
    std::vector<SpanRecord> all;
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &b : buffers)
        all.insert(all.end(), b->closed.begin(), b->closed.end());
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.startNs != b.startNs ? a.startNs < b.startNs
                                                : a.id < b.id;
              });
    return all;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &b : buffers)
        b->closed.clear();
}

bool
isOpSpan(const SpanRecord &span)
{
    return std::string(span.name).rfind("op.", 0) == 0;
}

std::map<std::string, double>
selfSecondsByName(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<uint64_t, size_t> index;
    for (size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const SpanRecord &s : spans) {
        auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end())
            continue;
        const SpanRecord &p = spans[it->second];
        int64_t from = std::max(s.startNs, p.startNs);
        int64_t to = std::min(s.endNs, p.endNs);
        if (to > from)
            children[it->second].emplace_back(from, to);
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans.size(); ++i) {
        int64_t dur = spans[i].endNs - spans[i].startNs;
        int64_t covered = unionMeasure(std::move(children[i]));
        self[spans[i].name] += (double)(dur - covered) * 1e-9;
    }
    return self;
}

double
layerCoverage(const std::vector<SpanRecord> &spans, int64_t from,
              int64_t to)
{
    if (to <= from)
        return 0.0;
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const SpanRecord &s : spans) {
        if (isOpSpan(s))
            continue;
        int64_t a = std::max(s.startNs, from);
        int64_t b = std::min(s.endNs, to);
        if (b > a)
            iv.emplace_back(a, b);
    }
    return (double)unionMeasure(std::move(iv)) / (double)(to - from);
}

void
writeChromeTrace(std::ostream &os, const std::vector<SpanRecord> &spans)
{
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char buf[64];
    for (const SpanRecord &s : spans) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "{\"name\":\"" << s.name << "\",\"cat\":\"perfbench\","
           << "\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread;
        std::snprintf(buf, sizeof(buf), "%.3f", (double)s.startNs / 1e3);
        os << ",\"ts\":" << buf;
        std::snprintf(buf, sizeof(buf), "%.3f",
                      (double)(s.endNs - s.startNs) / 1e3);
        os << ",\"dur\":" << buf << ",\"args\":{\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
    }
    os << "\n]}\n";
}

} // namespace perfbench
