#include "checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "common/checksum.hpp"
#include "common/durable_io.hpp"
#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "core/mitigation.hpp"

namespace catsim
{

namespace
{

constexpr std::uint64_t kJournalMagic = 0x43415453494D4A31ULL; // CATSIMJ1
constexpr std::uint64_t kJournalVersion = 1;

/** Append the bytes of @p v (host order: little-endian). */
template <typename T>
void
appendRaw(std::string *buf, T v)
{
    char raw[sizeof v];
    std::memcpy(raw, &v, sizeof v);
    buf->append(raw, sizeof v);
}

template <typename T>
bool
getRaw(BlobReader &r, T *v)
{
    std::string_view raw;
    if (!r.getBytes(sizeof *v, &raw))
        return false;
    std::memcpy(v, raw.data(), sizeof *v);
    return true;
}

/** what() of the in-flight exception (for CellError records). */
std::string
currentExceptionMessage()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown error";
    }
}

} // namespace

std::string
journalHeader(const std::string &runKey)
{
    std::string h;
    appendRaw(&h, kJournalMagic);
    appendRaw(&h, kJournalVersion);
    appendRaw(&h, std::uint64_t{runKey.size()});
    h += runKey;
    appendRaw(&h, crc32(h.data(), h.size()));
    return h;
}

void
appendJournalRecord(std::string *image, std::string_view key,
                    std::string_view blob)
{
    const std::size_t start = image->size();
    appendRaw(image, std::uint64_t{key.size()});
    appendRaw(image, std::uint64_t{blob.size()});
    image->append(key);
    image->append(blob);
    appendRaw(image, crc32(image->data() + start, image->size() - start));
}

std::size_t
parseJournal(
    std::string_view image, const std::string &runKey,
    const std::function<bool(std::string_view key, std::string_view blob)>
        &onRecord)
{
    const std::string header = journalHeader(runKey);
    if (image.substr(0, header.size()) != header)
        return 0;
    const std::string_view records = image.substr(header.size());
    BlobReader r(records);
    std::size_t validEnd = 0; // offset into records
    while (!r.atEnd()) {
        std::uint64_t keyLen = 0, blobLen = 0;
        std::string_view key, blob;
        std::uint32_t storedCrc = 0;
        if (!r.getU64(&keyLen) || !r.getU64(&blobLen)
            || !r.getBytes(keyLen, &key) || !r.getBytes(blobLen, &blob)
            || !r.getU32(&storedCrc))
            break; // torn tail
        const std::size_t framed = r.pos() - validEnd - sizeof storedCrc;
        if (crc32(records.data() + validEnd, framed) != storedCrc
            || !onRecord(key, blob))
            break;
        validEnd = r.pos();
    }
    return header.size() + validEnd;
}

std::string
checkpointDirFromEnv()
{
    const char *env = std::getenv("CATSIM_CHECKPOINT");
    return env ? env : "";
}

std::string
checkpointFileName(const std::string &runKey)
{
    char name[64];
    std::snprintf(name, sizeof name, "run-%016llx.catj",
                  static_cast<unsigned long long>(fnv1a(runKey)));
    return name;
}

bool
keepGoingFromEnv()
{
    const char *env = std::getenv("CATSIM_SWEEP_KEEP_GOING");
    return env && std::string(env) == "1";
}

CheckpointJournal::CheckpointJournal(const std::string &dir,
                                     const std::string &runKey)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    path_ = (std::filesystem::path(dir) / checkpointFileName(runKey))
                .string();

    // Records are validated (and the torn tail truncated) against the
    // in-memory image, never a stream whose fail state conflates EOF
    // with I/O error.
    std::string image;
    readWholeFile(path_, &image);
    bool fresh = image.empty();
    std::size_t validEnd = 0;
    if (!fresh) {
        const auto replay = [this](std::string_view key,
                                   std::string_view blob) {
            if (fault::shouldFail("checkpoint_replay_short"))
                return false; // models a read failing mid-replay
            index_[std::string(key)] = std::string(blob);
            ++replayed_;
            return true;
        };
        validEnd = parseJournal(image, runKey, replay);
        if (validEnd == 0) {
            CATSIM_WARN("checkpoint journal ", path_,
                        ": header mismatch (stale format or colliding run "
                        "key); starting fresh");
            fresh = true;
        } else if (validEnd < image.size()) {
            CATSIM_WARN("checkpoint journal ", path_,
                        ": torn or corrupt record at offset ", validEnd,
                        "; truncating tail");
        }
    }

    if (fresh) {
        // (Re)write header + truncate everything else.
        const std::string header = journalHeader(runKey);
        std::ofstream os(path_, std::ios::binary | std::ios::trunc);
        if (!os || !os.write(header.data(),
                             static_cast<std::streamsize>(header.size())))
            CATSIM_WARN("checkpoint journal ", path_,
                        ": cannot write header; checkpointing will "
                        "fail loudly on first append");
        os.flush();
    } else if (validEnd < image.size()) {
        std::filesystem::resize_file(path_, validEnd, ec);
        if (ec)
            CATSIM_WARN("checkpoint journal ", path_,
                        ": cannot truncate torn tail: ", ec.message());
    }
    syncFile(path_);
    syncParentDir(path_);
}

bool
CheckpointJournal::lookup(const std::string &key,
                          std::string *blob) const
{
    const auto it = index_.find(key);
    if (it == index_.end())
        return false;
    *blob = it->second;
    return true;
}

void
CheckpointJournal::append(const std::string &key, const std::string &blob)
{
    std::string record;
    appendJournalRecord(&record, key, blob);
    std::lock_guard<std::mutex> lock(appendMutex_);
    fault::maybeThrow("checkpoint_append_enospc");
    {
        std::ofstream os(path_, std::ios::binary | std::ios::app);
        if (!os)
            throw std::runtime_error("checkpoint journal " + path_
                                     + ": cannot open for append");
        if (fault::shouldFail("checkpoint_append_torn")) {
            // Model a crash mid-write: half the record reaches the
            // file, then the process "dies".  Replay must drop it.
            os.write(record.data(),
                     static_cast<std::streamsize>(record.size() / 2));
            os.flush();
            throw FaultInjected(
                "fail-point 'checkpoint_append_torn' fired");
        }
        os.write(record.data(),
                 static_cast<std::streamsize>(record.size()));
        os.flush();
        if (!os)
            throw std::runtime_error("checkpoint journal " + path_
                                     + ": short append");
    }
    // A record only counts as checkpointed once it is on the device;
    // otherwise a crash after "skip this cell next time" was decided
    // could lose the cell entirely.
    syncFile(path_);
    index_[key] = blob;
}

void
BlobWriter::putU64(std::uint64_t v)
{
    appendRaw(&buf_, v);
}

void
BlobWriter::putDouble(double v)
{
    static_assert(sizeof v == sizeof(std::uint64_t), "double is 64-bit");
    appendRaw(&buf_, v);
}

void
BlobWriter::putBytes(const void *data, std::size_t len)
{
    buf_.append(static_cast<const char *>(data), len);
}

bool
BlobReader::getU64(std::uint64_t *v)
{
    return getRaw(*this, v);
}

bool
BlobReader::getU32(std::uint32_t *v)
{
    return getRaw(*this, v);
}

bool
BlobReader::getDouble(double *v)
{
    return getRaw(*this, v);
}

bool
BlobReader::getBytes(std::uint64_t len, std::string_view *out)
{
    if (buf_.size() - pos_ < len)
        return false;
    *out = buf_.substr(pos_, len);
    pos_ += len;
    return true;
}

void
putStats(BlobWriter &w, const SchemeStats &s)
{
    w.putU64(s.activations);
    w.putU64(s.refreshEvents);
    w.putU64(s.victimRowsRefreshed);
    w.putU64(s.sramAccesses);
    w.putU64(s.prngBits);
    w.putU64(s.splits);
    w.putU64(s.merges);
    w.putU64(s.epochResets);
    w.putU64(s.counterDramReads);
    w.putU64(s.counterDramWrites);
}

bool
getStats(BlobReader &r, SchemeStats *s)
{
    return r.getU64(&s->activations) && r.getU64(&s->refreshEvents)
           && r.getU64(&s->victimRowsRefreshed)
           && r.getU64(&s->sramAccesses) && r.getU64(&s->prngBits)
           && r.getU64(&s->splits) && r.getU64(&s->merges)
           && r.getU64(&s->epochResets) && r.getU64(&s->counterDramReads)
           && r.getU64(&s->counterDramWrites);
}

GridOutcome
runJournaledGrid(
    const GridRun &grid,
    const std::function<bool(std::size_t, const std::string &)> &restore,
    const std::function<std::string(std::size_t)> &eval)
{
    const std::size_t n = grid.keys.size();
    GridOutcome outcome;

    if (!grid.order.empty()) {
        // A bad order would skip some cells and run others twice.
        bool valid = grid.order.size() == n;
        std::vector<bool> seen(n, false);
        for (std::size_t k = 0; valid && k < n; ++k) {
            const std::size_t i = grid.order[k];
            valid = i < n && !seen[i];
            if (valid)
                seen[i] = true;
        }
        if (!valid)
            throw std::invalid_argument(
                grid.name + ": evaluation order is not a permutation of "
                            "the cells");
    }

    // Replay: journaled cells (validated by key + CRC at open) are
    // restored in place and never re-run; the rest queue up in
    // evaluation order.
    std::unique_ptr<CheckpointJournal> journal;
    std::vector<std::size_t> pending;
    pending.reserve(n);
    if (!grid.checkpointDir.empty())
        journal = std::make_unique<CheckpointJournal>(grid.checkpointDir,
                                                      grid.runKey);
    std::string blob;
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = grid.order.empty() ? k : grid.order[k];
        if (journal && journal->lookup(grid.keys[i], &blob)
            && restore(i, blob))
            ++outcome.resumed;
        else
            pending.push_back(i);
    }
    if (outcome.resumed > 0)
        CATSIM_INFORM("checkpoint: resumed ", outcome.resumed, "/", n, " ",
                      grid.name, " ", grid.unit, "s from ",
                      journal->path());

    std::mutex mutex;
    std::size_t failedPos = pending.size();
    std::exception_ptr failure;
    const auto runCell = [&](std::size_t i) {
        std::string record;
        for (int attempts = 1;; ++attempts) {
            try {
                fault::maybeThrow(grid.failPoint);
                record = eval(i);
                break;
            } catch (...) {
                if (!grid.keepGoing)
                    throw;
                if (attempts < 2)
                    continue; // transient? one retry
                CellError err{i, grid.labels[i], currentExceptionMessage(),
                              attempts};
                std::lock_guard<std::mutex> lock(mutex);
                outcome.errors.push_back(std::move(err));
                return; // failed cells are never journaled
            }
        }
        if (!journal)
            return;
        try {
            journal->append(grid.keys[i], record);
        } catch (const std::exception &e) {
            // The result itself is valid; losing its record only costs
            // a re-run on resume.  Keep going quietly in keep-going
            // mode, die loudly in fail-fast (a broken journal would
            // make every later resume silently partial).
            if (!grid.keepGoing)
                throw;
            CATSIM_WARN("checkpoint append failed for ", grid.unit, " ", i,
                        " (", grid.labels[i], "): ", e.what());
        }
    };

    try {
        parallelFor(
            pending.size(),
            [&](std::size_t p) {
                const std::size_t i = pending[p];
                try {
                    runCell(i);
                } catch (...) {
                    // Fail-fast: keep the failure earliest in
                    // dispatch order, then let parallelFor stop
                    // handing out cells.
                    std::lock_guard<std::mutex> lock(mutex);
                    if (p < failedPos) {
                        failedPos = p;
                        failure = std::current_exception();
                    }
                    throw;
                }
            },
            grid.jobs);
    } catch (...) {
        if (!failure)
            throw; // raised by parallelFor itself, not by a cell
        // Name the GRID index: parallelFor only knows positions in
        // pending.
        rethrowIndexed(failure, grid.unit, pending[failedPos]);
    }

    std::sort(outcome.errors.begin(), outcome.errors.end(),
              [](const CellError &a, const CellError &b) {
                  return a.index < b.index;
              });
    if (!outcome.errors.empty()) {
        CATSIM_WARN("keep-going: ", outcome.errors.size(), "/", n, " ",
                    grid.name, " ", grid.unit,
                    "s failed permanently and were not checkpointed");
        for (const auto &e : outcome.errors)
            CATSIM_WARN("  ", grid.unit, " ", e.index, " (", e.label, "), ",
                        e.attempts, " attempts: ", e.message);
    }
    return outcome;
}

} // namespace catsim
