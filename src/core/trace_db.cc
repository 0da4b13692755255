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

const gtpin::KernelTable noKernels;

/** The one join every database goes through: profile i with timing i
 * and the epoch assigned to its seq, appended in dispatch order. */
TraceDatabase
joinRows(gtpin::ProfileSet &set,
         const std::vector<cfl::KernelTiming> &timings,
         const EpochAssignments &epochs, uint32_t block_size)
{
    std::vector<gtpin::DispatchProfile> &profiles = set.dispatches;
    GT_ASSERT(profiles.size() == timings.size(),
              "GT-Pin saw ", profiles.size(),
              " dispatches but CoFluent timed ", timings.size());
    TraceDatabase::Builder builder;
    builder.useKernels(std::move(set.kernels));
    builder.reserve(profiles.size());
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
    // Free the moved-from shells before the seal's encode peaks.
    profiles = {};
    return builder.seal(block_size);
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
    for (const gtpin::DispatchProfile &profile : profiles.dispatches)
        bytes += profile.footprintBytes();
    if (profiles.kernels)
        bytes += profiles.kernels->footprintBytes();
    bytes += timings.size() * sizeof(cfl::KernelTiming);
    bytes += epochs.size() * sizeof(epochs[0]);
    return bytes;
}

TraceDatabase
TraceDatabase::build(gtpin::ProfileSet profiles,
                     const std::vector<cfl::KernelTiming> &timings,
                     const std::vector<ocl::ApiCallRecord> &call_stream,
                     uint32_t block_size)
{
    return joinRows(profiles, timings, assignEpochs(call_stream),
                    block_size);
}

TraceDatabase
TraceDatabase::build(ReplayArtifact artifact, uint32_t block_size)
{
    return joinRows(artifact.profiles, artifact.timings,
                    artifact.epochs, block_size);
}

void
TraceDatabase::Builder::useKernels(
    std::shared_ptr<const gtpin::KernelTable> kernels)
{
    if (!kernels)
        return; // an empty profile set may carry no table
    if (kernelTable && kernelTable != kernels) {
        GT_ASSERT(*kernelTable == *kernels,
                  "one builder fed rows of two different kernel tables");
        return;
    }
    kernelTable = std::move(kernels);
}

void
TraceDatabase::Builder::reserve(uint64_t n)
{
    records.reserve(n);
    instrPrefix.reserve(n + 1);
    secondsCol.reserve(n);
}

const gtpin::KernelTable &
TraceDatabase::Builder::kernels() const
{
    return kernelTable ? *kernelTable : noKernels;
}

void
TraceDatabase::Builder::appendJoined(gtpin::DispatchProfile profile,
                                     double seconds,
                                     uint64_t sync_epoch)
{
    DispatchRecord rec;
    rec.profile = std::move(profile);
    rec.profile.checkShape(kernels());
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
    // prefix bitwise equal to the batch build.
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
    if (kernelTable)
        bytes += kernelTable->footprintBytes();
    bytes += instrPrefix.size() * sizeof(uint64_t);
    bytes += secondsCol.size() * sizeof(double);
    return bytes;
}

TraceDatabase
TraceDatabase::Builder::seal(uint32_t block_size) const
{
    TraceDatabase db;
    db.count = records.size();
    db.instrTotal = instrTotal;
    db.secondsTotal = secondsTotal;
    if (db.instrTotal > 0)
        db.spiCached = db.secondsTotal / (double)db.instrTotal;

    // An empty database keeps no store; the count guards in the
    // accessors cover it.
    if (!records.empty()) {
        db.syncEpochs = records.back().syncEpoch + 1;
        trace_store::ColumnarOptions options;
        options.blockSize = block_size;
        db.store = trace_store::ColumnarStore::spill(records, kernels(),
                                                     options);
    }

    // One footprint line per process, at the first real build: the
    // paper's traces are collected once and queried many times, so
    // this is where the resident-memory story is decided.
    if (db.count > 0) {
        static const bool logged = [&db] {
            TraceDbFootprint fp = db.memoryFootprint();
            inform("trace db: ", humanCount(db.count), " dispatches, ",
                   humanBytes(fp.residentBytes), " resident (",
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
    return store->profileAt(i);
}

const gtpin::KernelTable &
TraceDatabase::kernels() const
{
    return store ? store->kernels() : noKernels;
}

double
TraceDatabase::seconds(uint64_t i) const
{
    GT_ASSERT(i < count, "dispatch ", i, " out of range");
    return store->seconds(i);
}

uint64_t
TraceDatabase::syncEpoch(uint64_t i) const
{
    GT_ASSERT(i < count, "dispatch ", i, " out of range");
    return store->syncEpoch(i);
}

uint64_t
TraceDatabase::rangeInstrs(uint64_t first, uint64_t last) const
{
    GT_ASSERT(first <= last && last < count,
              "instr range [", first, ", ", last, "] out of range");
    // Exact integers: anchor + varint-delta reconstruction makes
    // these the same prefix values the builder holds.
    return store->instrPrefixAt(last + 1) - store->instrPrefixAt(first);
}

double
TraceDatabase::rangeSeconds(uint64_t first, uint64_t last) const
{
    GT_ASSERT(first <= last && last < count,
              "seconds range [", first, ", ", last, "] out of range");
    // Left-to-right over the dense column; the columnar file stores
    // the raw double bits, so the accumulation is bit-for-bit the
    // builder's sum.
    const double *col = secondsData();
    double acc = 0.0;
    for (uint64_t i = first; i <= last; ++i)
        acc += col[i];
    return acc;
}

const double *
TraceDatabase::secondsData() const
{
    return store ? store->secondsData() : nullptr;
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
    if (!store)
        return fp;
    fp.columnBytes = store->residentBytes();
    fp.profileBytes = store->payloadBytes();
    fp.fileBytes = store->fileBytes();
    fp.cacheBytes = store->cacheBytesThisThread();
    fp.residentBytes = fp.columnBytes + fp.cacheBytes;
    return fp;
}

} // namespace gt::core
