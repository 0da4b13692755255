#include "core/trace_db.hh"

#include "common/logging.hh"
#include "common/table.hh"
#include "core/trace_store.hh"

namespace gt::core
{

TraceDatabase::TraceDatabase() = default;
TraceDatabase::~TraceDatabase() = default;
TraceDatabase::TraceDatabase(TraceDatabase &&) noexcept = default;
TraceDatabase &
TraceDatabase::operator=(TraceDatabase &&) noexcept = default;

namespace
{

/** The one join every database goes through: profile i with timing i
 * and the epoch assigned to its seq, appended in dispatch order. */
TraceDatabase
joinRows(std::vector<gtpin::DispatchProfile> &profiles,
         const std::vector<cfl::KernelTiming> &timings,
         const EpochAssignments &epochs, TraceDbBackend backend,
         uint32_t block_size)
{
    GT_ASSERT(profiles.size() == timings.size(),
              "GT-Pin saw ", profiles.size(),
              " dispatches but CoFluent timed ", timings.size());
    TraceDatabase::Builder builder;
    for (size_t i = 0; i < profiles.size(); ++i) {
        uint64_t seq = profiles[i].seq;
        GT_ASSERT(seq == timings[i].seq,
                  "profile/timing sequence mismatch at index ", i);
        GT_ASSERT(i < epochs.size() && epochs[i].first == seq,
                  "dispatch ", seq,
                  " missing from the host call stream");
        builder.appendJoined(std::move(profiles[i]), timings[i].seconds,
                             epochs[i].second);
    }
    return std::move(builder).seal(backend, block_size);
}

} // anonymous namespace

EpochAssignments
assignEpochs(const std::vector<ocl::ApiCallRecord> &calls)
{
    EpochAssignments out;
    uint64_t epoch = 0;
    bool has_work = false;
    for (const ocl::ApiCallRecord &call : calls) {
        switch (ocl::apiCategory(call.id)) {
          case ocl::ApiCategory::Kernel:
            out.emplace_back(call.dispatchSeq, epoch);
            has_work = true;
            break;
          case ocl::ApiCategory::Synchronization:
            if (has_work) {
                ++epoch;
                has_work = false;
            }
            break;
          default:
            break;
        }
    }
    return out;
}

uint64_t
ReplayArtifact::memoryBytes() const
{
    uint64_t bytes = sizeof(*this);
    for (const ocl::ApiCallRecord &call : calls)
        bytes += call.footprintBytes();
    for (const gtpin::DispatchProfile &profile : profiles)
        bytes += profile.footprintBytes();
    bytes += timings.size() * sizeof(cfl::KernelTiming);
    bytes += epochs.size() * sizeof(epochs[0]);
    return bytes;
}

TraceDatabase
TraceDatabase::build(std::vector<gtpin::DispatchProfile> profiles,
                     const std::vector<cfl::KernelTiming> &timings,
                     const std::vector<ocl::ApiCallRecord> &call_stream,
                     TraceDbBackend backend, uint32_t block_size)
{
    return joinRows(profiles, timings, assignEpochs(call_stream),
                    backend, block_size);
}

TraceDatabase
TraceDatabase::build(ReplayArtifact artifact, TraceDbBackend backend,
                     uint32_t block_size)
{
    return joinRows(artifact.profiles, artifact.timings,
                    artifact.epochs, backend, block_size);
}

TraceDatabase
TraceDatabase::openColumnarFile(const std::string &path)
{
    TraceDatabase db;
    db.kind = TraceDbBackend::Columnar;
    db.store = trace_store::ColumnarStore::openFile(path);
    db.count = db.store->numDispatches();
    db.instrTotal = db.store->totalInstrs();
    // Left-to-right over the raw double column — the identical FP
    // order the builder accumulated secondsTotal in, so the reopened
    // totals (and the cached SPI quotient) carry the same bits.
    const double *col = db.store->secondsData();
    for (uint64_t i = 0; i < db.count; ++i)
        db.secondsTotal += col[i];
    if (db.count > 0)
        db.syncEpochs = db.store->syncEpoch(db.count - 1) + 1;
    if (db.instrTotal > 0)
        db.spiCached = db.secondsTotal / (double)db.instrTotal;
    return db;
}

void
TraceDatabase::Builder::appendJoined(gtpin::DispatchProfile profile,
                                     double seconds,
                                     uint64_t sync_epoch)
{
    DispatchRecord rec;
    rec.profile = std::move(profile);
    rec.profile.checkShape();
    rec.seconds = seconds;
    rec.syncEpoch = sync_epoch;

    // Dispatches must arrive in order with monotone epochs.
    if (!records.empty()) {
        GT_ASSERT(rec.profile.seq > records.back().profile.seq,
                  "dispatch records out of order");
        GT_ASSERT(rec.syncEpoch >= records.back().syncEpoch,
                  "sync epochs out of order");
    }

    // The running totals accumulate in append order — the identical
    // FP order batch build() uses, which is what makes seal() at any
    // prefix bitwise equal to the batch oracle.
    instrTotal += rec.profile.instrs;
    secondsTotal += rec.seconds;
    instrPrefix.push_back(instrPrefix.back() + rec.profile.instrs);
    secondsCol.push_back(rec.seconds);
    records.push_back(std::move(rec));
}

uint64_t
TraceDatabase::Builder::memoryBytes() const
{
    uint64_t bytes = sizeof(*this);
    bytes += records.size() * sizeof(DispatchRecord);
    for (const DispatchRecord &rec : records) {
        bytes += rec.profile.footprintBytes() -
                 sizeof(gtpin::DispatchProfile);
    }
    bytes += instrPrefix.size() * sizeof(uint64_t);
    bytes += secondsCol.size() * sizeof(double);
    return bytes;
}

void
TraceDatabase::Builder::writeArchive(const std::string &path,
                                     uint32_t block_size) const
{
    trace_store::ColumnarOptions options;
    options.blockSize = block_size;
    trace_store::ColumnarStore::writeFile(records, path, options);
}

TraceDatabase
TraceDatabase::Builder::seal(TraceDbBackend backend,
                             uint32_t block_size) const &
{
    Builder copy(*this);
    return std::move(copy).seal(backend, block_size);
}

TraceDatabase
TraceDatabase::Builder::seal(TraceDbBackend backend,
                             uint32_t block_size) &&
{
    TraceDatabase db;
    db.kind = backend;
    db.records = std::move(records);
    db.instrPrefix = std::move(instrPrefix);
    db.secondsCol = std::move(secondsCol);
    db.instrTotal = instrTotal;
    db.secondsTotal = secondsTotal;

    db.count = db.records.size();
    if (!db.records.empty())
        db.syncEpochs = db.records.back().syncEpoch + 1;
    if (db.instrTotal > 0)
        db.spiCached = db.secondsTotal / (double)db.instrTotal;

    if (backend == TraceDbBackend::Columnar && !db.records.empty()) {
        trace_store::ColumnarOptions options;
        options.blockSize = block_size;
        db.store = trace_store::ColumnarStore::spill(db.records,
                                                     options);
        // Drop the resident copies; every accessor now reads the
        // mapping. An empty database keeps no store — the count
        // guards in the accessors cover it.
        db.records.clear();
        db.records.shrink_to_fit();
        db.instrPrefix.clear();
        db.instrPrefix.shrink_to_fit();
        db.secondsCol.clear();
        db.secondsCol.shrink_to_fit();
    }

    // One footprint line per process, at the first real build: the
    // paper's traces are collected once and queried many times, so
    // this is where the resident-memory story is decided.
    if (db.count > 0) {
        static const bool logged = [&db] {
            TraceDbFootprint fp = db.memoryFootprint();
            inform("trace db: ", humanCount(db.count), " dispatches, ",
                   humanBytes(fp.residentBytes), " resident (",
                   humanBytes(fp.recordBytes), " records, ",
                   humanBytes(fp.columnBytes), " columns, ",
                   humanBytes(fp.profileBytes), " profiles; spill ",
                   humanBytes(fp.fileBytes), ")");
            return true;
        }();
        (void)logged;
    }
    return db;
}

const gtpin::DispatchProfile &
TraceDatabase::profileAt(uint64_t i) const
{
    GT_ASSERT(i < count, "dispatch ", i, " out of range");
    if (store)
        return store->profileAt(i);
    return records[i].profile;
}

double
TraceDatabase::seconds(uint64_t i) const
{
    GT_ASSERT(i < count, "dispatch ", i, " out of range");
    if (store)
        return store->seconds(i);
    return records[i].seconds;
}

uint64_t
TraceDatabase::syncEpoch(uint64_t i) const
{
    GT_ASSERT(i < count, "dispatch ", i, " out of range");
    if (store)
        return store->syncEpoch(i);
    return records[i].syncEpoch;
}

uint64_t
TraceDatabase::rangeInstrs(uint64_t first, uint64_t last) const
{
    GT_ASSERT(first <= last && last < count,
              "instr range [", first, ", ", last, "] out of range");
    if (store) {
        // Exact integers: anchor + varint-delta reconstruction makes
        // these the same prefix values the mem backend stores.
        return store->instrPrefixAt(last + 1) -
               store->instrPrefixAt(first);
    }
    return instrPrefix[last + 1] - instrPrefix[first];
}

double
TraceDatabase::rangeSeconds(uint64_t first, uint64_t last) const
{
    GT_ASSERT(first <= last && last < count,
              "seconds range [", first, ", ", last, "] out of range");
    // Left-to-right over the dense column on both backends; the
    // columnar file stores the raw double bits, so the accumulation
    // is bit-for-bit the same sum.
    const double *col = secondsData();
    double acc = 0.0;
    for (uint64_t i = first; i <= last; ++i)
        acc += col[i];
    return acc;
}

const double *
TraceDatabase::secondsData() const
{
    if (store)
        return store->secondsData();
    return secondsCol.data();
}

double
TraceDatabase::measuredSpi() const
{
    GT_ASSERT(instrTotal > 0, "measured SPI of an empty database");
    return spiCached;
}

TraceDbFootprint
TraceDatabase::memoryFootprint() const
{
    TraceDbFootprint fp;
    if (store) {
        fp.columnBytes = store->residentBytes();
        fp.profileBytes = store->payloadBytes();
        fp.fileBytes = store->fileBytes();
        fp.cacheBytes = store->cacheBytesThisThread();
        fp.residentBytes = fp.columnBytes + fp.cacheBytes;
    } else {
        fp.recordBytes = records.size() * sizeof(DispatchRecord);
        for (const DispatchRecord &rec : records) {
            fp.profileBytes += rec.profile.footprintBytes() -
                               sizeof(gtpin::DispatchProfile);
        }
        fp.columnBytes = instrPrefix.size() * sizeof(uint64_t) +
                         secondsCol.size() * sizeof(double);
        fp.residentBytes =
            fp.recordBytes + fp.profileBytes + fp.columnBytes;
    }
    return fp;
}

} // namespace gt::core
