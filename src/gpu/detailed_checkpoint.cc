#include "gpu/detailed_checkpoint.hh"

#include "gpu/executor.hh"

namespace gt::gpu
{

uint64_t
dispatchArgsHash(const std::vector<uint32_t> &args)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint32_t a : args) {
        h ^= a;
        h *= 0x100000001b3ULL;
    }
    return h;
}

const DetailedCheckpoint &
CheckpointStore::get(Executor &exec, const Dispatch &dispatch,
                     uint32_t kernel_id, uint64_t trace_cap)
{
    Key key;
    key.kernel = kernel_id;
    key.globalSize = dispatch.globalSize;
    key.simdWidth = dispatch.simdWidth;
    key.argsHash = dispatchArgsHash(dispatch.args);
    key.traceCap = trace_cap;

    auto it = table.find(key);
    if (it != table.end()) {
        ++hitCount;
        return it->second;
    }
    ++buildCount;
    return table
        .emplace(key, exec.checkpoint(dispatch, trace_cap))
        .first->second;
}

} // namespace gt::gpu
