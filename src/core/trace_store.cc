#include "core/trace_store.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/logging.hh"
#include "common/varint.hh"

namespace gt::core::trace_store
{

namespace
{

// --- On-disk layout ---------------------------------------------

constexpr char storeMagic[8] = {'G', 'T', 'C', 'O', 'L', 'D', 'B',
                                '\0'};
constexpr uint32_t storeVersion = 2;

enum Section : int
{
    SecSeconds, //!< raw double[numDispatches]
    SecInstr,   //!< per-dispatch instr varints, grouped by block
    SecEpochs,  //!< sync epochs, run-length encoded
    SecKernels, //!< the kernel table: names and static block arrays
    SecIndex,   //!< (payloadOff, instrOff, instrAnchor) per block
    SecPayload, //!< varint-packed profiles, grouped by block
    numSections,
};

/** Fixed-size little-endian header; fileBytes is the truncation
 * check (a short file can never pass it). */
struct FileHeader
{
    char magic[8];
    uint32_t version;
    uint32_t blockSize;
    uint64_t numDispatches;
    uint64_t fileBytes;
    uint64_t sectionOff[numSections];
    uint64_t sectionLen[numSections];
};

static_assert(sizeof(FileHeader) == 8 + 4 + 4 + 8 + 8 +
                                        2 * 8 * numSections,
              "FileHeader must have no padding surprises");

uint64_t
padTo8(uint64_t off)
{
    return (off + 7) & ~(uint64_t)7;
}

/** One file's header and section images. */
struct EncodedFile
{
    FileHeader header{};
    std::vector<uint8_t> sections[numSections];
};

/** Encode @p records and their kernel table, laying the sections
 * out in the header. */
EncodedFile
encodeFile(const std::vector<DispatchRecord> &records,
           const gtpin::KernelTable &kernels,
           const ColumnarOptions &options)
{
    const uint64_t block = options.blockSize;
    GT_ASSERT(block > 0, "columnar block size must be positive");
    const uint64_t n = records.size();
    const uint64_t num_blocks = (n + block - 1) / block;

    EncodedFile file;
    std::vector<uint8_t> &seconds = file.sections[SecSeconds];
    std::vector<uint8_t> &instr = file.sections[SecInstr];
    std::vector<uint8_t> &epochs = file.sections[SecEpochs];
    std::vector<uint8_t> &index = file.sections[SecIndex];
    std::vector<uint8_t> &payload = file.sections[SecPayload];
    seconds.reserve(n * sizeof(double));

    std::vector<uint64_t> payload_off, instr_off, anchor;
    payload_off.reserve(num_blocks + 1);
    instr_off.reserve(num_blocks + 1);
    anchor.reserve(num_blocks + 1);

    uint64_t prefix = 0;
    for (uint64_t i = 0; i < n; ++i) {
        const DispatchRecord &rec = records[i];
        if (i % block == 0) {
            payload_off.push_back(payload.size());
            instr_off.push_back(instr.size());
            anchor.push_back(prefix);
        }
        putBytes(seconds, &rec.seconds, sizeof(double));
        putVarint(instr, rec.profile.instrs);
        prefix += rec.profile.instrs;
        gtpin::encodeProfilePayload(rec.profile, payload);
    }
    // Sentinel entry: closes the last block's byte ranges and
    // carries the total-instruction anchor.
    payload_off.push_back(payload.size());
    instr_off.push_back(instr.size());
    anchor.push_back(prefix);

    gtpin::encodeKernelTable(kernels, file.sections[SecKernels]);

    // Sync epochs change at a tiny fraction of dispatches: store
    // (run length, epoch) pairs.
    std::vector<std::pair<uint64_t, uint64_t>> runs;
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t epoch = records[i].syncEpoch;
        if (runs.empty() || runs.back().second != epoch)
            runs.emplace_back(0, epoch);
        ++runs.back().first;
    }
    putVarint(epochs, runs.size());
    for (const auto &[len, epoch] : runs) {
        putVarint(epochs, len);
        putVarint(epochs, epoch);
    }

    index.reserve((num_blocks + 1) * 3 * sizeof(uint64_t));
    for (uint64_t b = 0; b <= num_blocks; ++b) {
        putBytes(index, &payload_off[b], sizeof(uint64_t));
        putBytes(index, &instr_off[b], sizeof(uint64_t));
        putBytes(index, &anchor[b], sizeof(uint64_t));
    }

    FileHeader &header = file.header;
    std::memcpy(header.magic, storeMagic, sizeof(header.magic));
    header.version = storeVersion;
    header.blockSize = (uint32_t)block;
    header.numDispatches = n;
    uint64_t off = sizeof(FileHeader);
    for (int s = 0; s < numSections; ++s) {
        off = padTo8(off);
        header.sectionOff[s] = off;
        header.sectionLen[s] = file.sections[s].size();
        off += file.sections[s].size();
    }
    header.fileBytes = off;
    return file;
}

/**
 * Size @p fd to the file and write the header and each section at
 * its offset, straight from the section images (no whole-file copy;
 * the alignment gaps read as zeros). Returns 0, or the errno of the
 * call that failed.
 */
int
writeFileTo(int fd, const EncodedFile &file)
{
    if (::ftruncate(fd, (off_t)file.header.fileBytes) != 0)
        return errno;
    auto put = [fd](const void *data, uint64_t len, uint64_t off) {
        const uint8_t *bytes = (const uint8_t *)data;
        while (len > 0) {
            ssize_t w = ::pwrite(fd, bytes, len, (off_t)off);
            if (w <= 0)
                return w < 0 ? errno : EIO;
            bytes += w;
            len -= (uint64_t)w;
            off += (uint64_t)w;
        }
        return 0;
    };
    int err = put(&file.header, sizeof(FileHeader), 0);
    for (int s = 0; s < numSections && err == 0; ++s) {
        err = put(file.sections[s].data(), file.sections[s].size(),
                  file.header.sectionOff[s]);
    }
    return err;
}

std::string
spillDirectory(const ColumnarOptions &options)
{
    if (!options.spillDir.empty())
        return options.spillDir;
    if (const char *env = std::getenv("GT_TRACEDB_DIR");
        env && *env != '\0')
        return env;
    if (const char *env = std::getenv("TMPDIR"); env && *env != '\0')
        return env;
    return "/tmp";
}

// --- The per-thread decoded-block cache -------------------------

/**
 * A handful of decoded blocks per thread. Thread-local, so cache
 * fills never synchronize — concurrent readers of one shared store
 * each decode into their own slots (bounded duplicated work, zero
 * contention), which is what keeps the "const => freely shareable"
 * database contract intact under the 30-config fan-out.
 */
constexpr size_t numCacheSlots = 8;

struct CacheSlot
{
    uint64_t store = 0; //!< 0 = empty/invalidated
    uint64_t block = 0;
    bool profiles = false;
    uint64_t lastUse = 0;
    uint64_t bytes = 0;
    std::vector<uint64_t> prefix;
    std::vector<gtpin::DispatchProfile> profs;
};

struct ThreadCache
{
    std::array<CacheSlot, numCacheSlots> slots;
    uint64_t tick = 0;
    /** Last store-close generation this thread swept at. */
    uint64_t sweptGen = 0;
};

thread_local ThreadCache tlsCache;

/**
 * Live-store registry: ids of every mapped store, plus a generation
 * counter bumped at each destruction. Threads compare the counter
 * (one relaxed atomic load per cache access) and only take the
 * registry mutex when a store died since their last sweep, dropping
 * slots whose owner is gone — stale slots would otherwise pin freed
 * mappings' decoded blocks for the thread's lifetime.
 */
std::mutex registryMutex;
std::vector<uint64_t> liveStores;
std::atomic<uint64_t> closeGeneration{0};

void
registerStore(uint64_t id)
{
    std::lock_guard<std::mutex> lock(registryMutex);
    liveStores.push_back(id);
}

void
deregisterStore(uint64_t id)
{
    std::lock_guard<std::mutex> lock(registryMutex);
    liveStores.erase(
        std::remove(liveStores.begin(), liveStores.end(), id),
        liveStores.end());
    closeGeneration.fetch_add(1, std::memory_order_release);
}

/** Drop this thread's slots owned by destroyed stores. Cheap when
 * nothing died: one relaxed load, no lock. */
void
sweepDeadSlots(ThreadCache &tc)
{
    if (closeGeneration.load(std::memory_order_acquire) ==
        tc.sweptGen)
        return;
    std::lock_guard<std::mutex> lock(registryMutex);
    for (CacheSlot &slot : tc.slots) {
        if (slot.store == 0)
            continue;
        bool alive = std::find(liveStores.begin(), liveStores.end(),
                               slot.store) != liveStores.end();
        if (!alive) {
            slot.store = 0;
            slot.bytes = 0;
            slot.lastUse = 0;
            slot.prefix.clear();
            slot.prefix.shrink_to_fit();
            slot.profs.clear();
            slot.profs.shrink_to_fit();
        }
    }
    // Read under the same lock the destructor bumps it under, so a
    // sweep can never record a generation it has not acted on.
    tc.sweptGen = closeGeneration.load(std::memory_order_relaxed);
}

CacheSlot *
findSlot(uint64_t store, uint64_t block, bool profiles)
{
    ThreadCache &tc = tlsCache;
    sweepDeadSlots(tc);
    ++tc.tick;
    for (CacheSlot &slot : tc.slots) {
        if (slot.store == store && slot.block == block &&
            slot.profiles == profiles) {
            slot.lastUse = tc.tick;
            return &slot;
        }
    }
    return nullptr;
}

/** Evict the least-recently-used slot and hand it back cleared and
 * *unkeyed* — the caller keys it only after a successful decode, so
 * a decode that throws can never leave a poisoned hit behind. */
CacheSlot &
evictSlot()
{
    ThreadCache &tc = tlsCache;
    CacheSlot *victim = &tc.slots[0];
    for (CacheSlot &slot : tc.slots) {
        if (slot.lastUse < victim->lastUse)
            victim = &slot;
    }
    victim->store = 0;
    victim->bytes = 0;
    victim->prefix.clear();
    victim->profs.clear();
    return *victim;
}

std::atomic<uint64_t> nextStoreId{1};
std::atomic<uint64_t> nextSpillSerial{0};

} // anonymous namespace

// --- Building and opening ---------------------------------------

std::shared_ptr<const ColumnarStore>
ColumnarStore::spill(const std::vector<DispatchRecord> &records,
                     const gtpin::KernelTable &kernels,
                     const ColumnarOptions &options)
{
    std::string path = spillDirectory(options) + "/gt-tracedb-" +
                       std::to_string((uint64_t)::getpid()) + "-" +
                       std::to_string(nextSpillSerial.fetch_add(1)) +
                       ".gtcol";
    uint64_t len = 0;
    void *mapped = MAP_FAILED;
    int map_err = 0;
    {
        // The section images die before the store is loaded, so the
        // peak holds each payload byte once plus the mapping.
        EncodedFile file = encodeFile(records, kernels, options);
        len = file.header.fileBytes;
        int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
        if (fd < 0) {
            fatal("trace store: cannot create spill file '", path,
                  "': ", std::strerror(errno),
                  " (set GT_TRACEDB_DIR to a writable directory)");
        }
        if (int err = writeFileTo(fd, file)) {
            ::close(fd);
            ::unlink(path.c_str());
            fatal("trace store: write to '", path,
                  "' failed: ", std::strerror(err));
        }
        mapped = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
        map_err = errno;
        ::close(fd);
    }
    // Unlink immediately: the mapping keeps the data alive, and the
    // spill can never outlive the process, even on a crash.
    ::unlink(path.c_str());
    if (mapped == MAP_FAILED) {
        fatal("trace store: mmap of '", path,
              "' failed: ", std::strerror(map_err));
    }

    std::shared_ptr<ColumnarStore> store(new ColumnarStore);
    store->map = (const uint8_t *)mapped;
    store->mapLen = len;
    store->load("trace store spill '" + path + "'");
    return store;
}

void
ColumnarStore::writeFile(const std::vector<DispatchRecord> &records,
                         const gtpin::KernelTable &kernels,
                         const std::string &path,
                         const ColumnarOptions &options)
{
    EncodedFile file = encodeFile(records, kernels, options);
    int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) {
        fatal("trace store: cannot open '", path,
              "' for writing: ", std::strerror(errno));
    }
    int err = writeFileTo(fd, file);
    if (::close(fd) != 0 && err == 0)
        err = errno;
    if (err != 0) {
        fatal("trace store: write to '", path,
              "' failed: ", std::strerror(err));
    }
}

std::shared_ptr<const ColumnarStore>
ColumnarStore::openFile(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        fatal("trace store: cannot open '", path,
              "': ", std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        int err = errno;
        ::close(fd);
        fatal("trace store: stat of '", path,
              "' failed: ", std::strerror(err));
    }
    if (st.st_size < (off_t)sizeof(FileHeader)) {
        ::close(fd);
        fatal("trace store: '", path, "' is truncated (",
              st.st_size, " bytes, header needs ",
              sizeof(FileHeader), ")");
    }
    void *mapped = ::mmap(nullptr, (size_t)st.st_size, PROT_READ,
                          MAP_PRIVATE, fd, 0);
    int map_err = errno;
    ::close(fd);
    if (mapped == MAP_FAILED) {
        fatal("trace store: mmap of '", path,
              "' failed: ", std::strerror(map_err));
    }

    std::shared_ptr<ColumnarStore> store(new ColumnarStore);
    store->map = (const uint8_t *)mapped;
    store->mapLen = (uint64_t)st.st_size;
    store->load("trace store '" + path + "'");
    return store;
}

ColumnarStore::~ColumnarStore()
{
    if (storeId != 0)
        deregisterStore(storeId);
    if (map)
        ::munmap((void *)map, mapLen);
}

void
ColumnarStore::load(const std::string &what)
{
    storeId = nextStoreId.fetch_add(1);
    registerStore(storeId);

    GT_ASSERT(mapLen >= sizeof(FileHeader),
              what, ": mapping smaller than the header");
    FileHeader header;
    std::memcpy(&header, map, sizeof(header));
    if (std::memcmp(header.magic, storeMagic,
                    sizeof(storeMagic)) != 0)
        fatal(what, ": bad magic (not a columnar trace file)");
    if (header.version != storeVersion) {
        fatal(what, ": unsupported format version ", header.version,
              " (this build reads version ", storeVersion, ")");
    }
    if (header.fileBytes != mapLen) {
        fatal(what, ": truncated or padded file: header records ",
              header.fileBytes, " bytes, file has ", mapLen);
    }
    if (header.blockSize == 0)
        fatal(what, ": zero block size");

    count = header.numDispatches;
    blockLen = header.blockSize;
    numBlocks = (count + blockLen - 1) / blockLen;

    const uint8_t *section[numSections];
    for (int s = 0; s < numSections; ++s) {
        uint64_t off = header.sectionOff[s];
        uint64_t len = header.sectionLen[s];
        if (off > mapLen || len > mapLen - off) {
            fatal(what, ": section ", s, " [", off, ", +", len,
                  ") exceeds the ", mapLen, "-byte file");
        }
        section[s] = map + off;
    }

    if (header.sectionLen[SecSeconds] != count * sizeof(double)) {
        fatal(what, ": seconds column holds ",
              header.sectionLen[SecSeconds] / sizeof(double),
              " entries for ", count, " dispatches");
    }
    if (header.sectionOff[SecSeconds] % alignof(double) != 0)
        fatal(what, ": misaligned seconds column");
    secondsPtr = (const double *)section[SecSeconds];
    instrBase = section[SecInstr];
    payloadBase = section[SecPayload];
    payloadLen = header.sectionLen[SecPayload];

    // Block index: numBlocks + 1 raw (payloadOff, instrOff, anchor)
    // triplets, all monotone and closed by the sentinel.
    uint64_t entries = numBlocks + 1;
    if (header.sectionLen[SecIndex] !=
        entries * 3 * sizeof(uint64_t)) {
        fatal(what, ": block index holds ",
              header.sectionLen[SecIndex] / (3 * sizeof(uint64_t)),
              " entries, expected ", entries);
    }
    blockPayloadOff.resize(entries);
    blockInstrOff.resize(entries);
    blockAnchor.resize(entries);
    {
        ByteReader reader(section[SecIndex],
                          section[SecIndex] +
                              header.sectionLen[SecIndex],
                          "trace store block index");
        for (uint64_t b = 0; b < entries; ++b) {
            reader.getBytes(&blockPayloadOff[b], sizeof(uint64_t));
            reader.getBytes(&blockInstrOff[b], sizeof(uint64_t));
            reader.getBytes(&blockAnchor[b], sizeof(uint64_t));
        }
        reader.expectDone();
    }
    for (uint64_t b = 0; b < entries; ++b) {
        bool monotone =
            b == 0 || (blockPayloadOff[b] >= blockPayloadOff[b - 1] &&
                       blockInstrOff[b] >= blockInstrOff[b - 1] &&
                       blockAnchor[b] >= blockAnchor[b - 1]);
        if (!monotone || blockPayloadOff[b] > payloadLen ||
            blockInstrOff[b] > header.sectionLen[SecInstr]) {
            fatal(what, ": corrupt block index entry ", b);
        }
    }
    if (blockPayloadOff.back() != payloadLen ||
        blockInstrOff.back() != header.sectionLen[SecInstr]) {
        fatal(what,
              ": block index does not close its data sections");
    }
    instrTotal = blockAnchor.back();

    {
        ByteReader reader(section[SecKernels],
                          section[SecKernels] +
                              header.sectionLen[SecKernels],
                          "trace store kernel table");
        kernelTable = gtpin::decodeKernelTable(reader);
        reader.expectDone();
    }

    {
        ByteReader reader(section[SecEpochs],
                          section[SecEpochs] +
                              header.sectionLen[SecEpochs],
                          "trace store epoch runs");
        uint64_t num_runs = reader.getCount(count);
        epochRuns.reserve(num_runs);
        uint64_t first = 0;
        uint64_t prev_epoch = 0;
        for (uint64_t r = 0; r < num_runs; ++r) {
            uint64_t len = reader.getVarint();
            uint64_t epoch = reader.getVarint();
            if (len == 0)
                fatal(what, ": empty epoch run ", r);
            if (r > 0 && epoch <= prev_epoch)
                fatal(what, ": epoch runs not increasing at ", r);
            epochRuns.emplace_back(first, epoch);
            first += len;
            prev_epoch = epoch;
        }
        reader.expectDone();
        if (first != count) {
            fatal(what, ": epoch runs cover ", first, " of ", count,
                  " dispatches");
        }
    }
}

// --- Queries ----------------------------------------------------

uint64_t
ColumnarStore::blockCount(uint64_t block) const
{
    GT_ASSERT(block < numBlocks, "block ", block, " out of range");
    return std::min<uint64_t>(blockLen, count - block * blockLen);
}

double
ColumnarStore::seconds(uint64_t i) const
{
    GT_ASSERT(i < count, "dispatch ", i, " out of range");
    return secondsPtr[i];
}

uint64_t
ColumnarStore::syncEpoch(uint64_t i) const
{
    GT_ASSERT(i < count, "dispatch ", i, " out of range");
    // Last run starting at or before i.
    auto it = std::upper_bound(
        epochRuns.begin(), epochRuns.end(), i,
        [](uint64_t value, const auto &run) {
            return value < run.first;
        });
    GT_ASSERT(it != epochRuns.begin(), "dispatch ", i,
              " precedes every epoch run");
    return std::prev(it)->second;
}

uint64_t
ColumnarStore::instrPrefixAt(uint64_t i) const
{
    GT_ASSERT(i <= count, "prefix index ", i, " out of range");
    if (i == count)
        return instrTotal;
    uint64_t block = blockOf(i);
    uint64_t idx = i - block * blockLen;
    if (idx == 0)
        return blockAnchor[block];

    if (CacheSlot *slot = findSlot(storeId, block, false))
        return slot->prefix[idx];

    CacheSlot &slot = evictSlot();
    uint64_t cnt = blockCount(block);
    ByteReader reader(instrBase + blockInstrOff[block],
                      instrBase + blockInstrOff[block + 1],
                      "trace store instr block");
    slot.prefix.resize(cnt);
    uint64_t acc = blockAnchor[block];
    for (uint64_t j = 0; j < cnt; ++j) {
        slot.prefix[j] = acc;
        acc += reader.getVarint();
    }
    reader.expectDone();
    if (acc != blockAnchor[block + 1]) {
        fatal("trace store: instr deltas of block ", block,
              " do not reach the next anchor");
    }
    slot.bytes = cnt * sizeof(uint64_t);
    slot.store = storeId;
    slot.block = block;
    slot.profiles = false;
    // Key the decode as used *now*: a fresh slot left at lastUse 0
    // would tie with the empty slots and be the next eviction
    // victim, evicting the hottest block instead of the coldest.
    slot.lastUse = tlsCache.tick;
    return slot.prefix[idx];
}

const gtpin::DispatchProfile &
ColumnarStore::profileAt(uint64_t i) const
{
    GT_ASSERT(i < count, "dispatch ", i, " out of range");
    uint64_t block = blockOf(i);
    uint64_t idx = i - block * blockLen;

    if (CacheSlot *slot = findSlot(storeId, block, true))
        return slot->profs[idx];

    CacheSlot &slot = evictSlot();
    uint64_t cnt = blockCount(block);
    ByteReader reader(payloadBase + blockPayloadOff[block],
                      payloadBase + blockPayloadOff[block + 1],
                      "trace store profile block");
    slot.profs.reserve(cnt);
    uint64_t bytes = 0;
    for (uint64_t j = 0; j < cnt; ++j) {
        slot.profs.push_back(
            gtpin::decodeProfilePayload(reader, kernelTable));
        bytes += slot.profs.back().footprintBytes();
    }
    reader.expectDone();
    slot.bytes = bytes;
    slot.store = storeId;
    slot.block = block;
    slot.profiles = true;
    slot.lastUse = tlsCache.tick;
    return slot.profs[idx];
}

// --- Accounting -------------------------------------------------

uint64_t
ColumnarStore::payloadBytes() const
{
    return payloadLen;
}

uint64_t
ColumnarStore::residentBytes() const
{
    uint64_t bytes = sizeof(*this);
    bytes += (blockPayloadOff.size() + blockInstrOff.size() +
              blockAnchor.size()) *
             sizeof(uint64_t);
    bytes += kernelTable.footprintBytes() - sizeof(kernelTable);
    bytes += epochRuns.size() * sizeof(epochRuns[0]);
    return bytes;
}

uint64_t
ColumnarStore::cacheBytesThisThread() const
{
    uint64_t bytes = 0;
    for (const CacheSlot &slot : tlsCache.slots) {
        if (slot.store == storeId)
            bytes += slot.bytes;
    }
    return bytes;
}

uint64_t
threadCacheResidentBytes()
{
    ThreadCache &tc = tlsCache;
    sweepDeadSlots(tc);
    uint64_t bytes = 0;
    for (const CacheSlot &slot : tc.slots)
        bytes += slot.bytes;
    return bytes;
}

} // namespace gt::core::trace_store
