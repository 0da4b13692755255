#include "gpu/plan_cache.hh"

namespace gt::gpu
{

namespace
{

/** Heap bytes of a vector's live elements (capacity slack ignored —
 * the accounting is deterministic, not allocator truth). */
template <typename T>
uint64_t
vecBytes(const std::vector<T> &v)
{
    return v.size() * sizeof(T);
}

} // namespace

uint64_t
ExecPlan::memoryBytes() const
{
    uint64_t bytes = sizeof(*this);
    // Relevance: vector<bool> packs ~1 bit per instruction.
    bytes += vecBytes(rel.relevant);
    for (const auto &row : rel.relevant)
        bytes += (row.size() + 7) / 8;
    bytes += vecBytes(prog.supers) + vecBytes(prog.members) +
             vecBytes(prog.memberUopEnd) +
             vecBytes(prog.memberFastUopEnd) + vecBytes(prog.uops) +
             vecBytes(prog.fastUops) + vecBytes(prog.superOf);
    bytes += vecBytes(blockCycles) + vecBytes(memberCycles) +
             vecBytes(blockInstrs);
    bytes += vecBytes(relevantIdx);
    for (const auto &row : relevantIdx)
        bytes += vecBytes(row);
    bytes += summary.memoryBytes();
    return bytes;
}

uint64_t
SharedPlanCache::memoryBytes() const
{
    uint64_t bytes = sizeof(*this);
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &[hash, plan] : table) {
        (void)hash;
        // Hash-node estimate: key/value pair plus bucket link.
        bytes += sizeof(uint64_t) +
                 sizeof(std::shared_ptr<const ExecPlan>) +
                 2 * sizeof(void *);
        bytes += plan->memoryBytes();
    }
    return bytes;
}

} // namespace gt::gpu
