#include "checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/checksum.hpp"
#include "common/durable_io.hpp"
#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"

namespace catsim
{

namespace
{

constexpr std::uint64_t kJournalMagic = 0x43415453494D4A31ULL; // CATSIMJ1
constexpr std::uint64_t kJournalVersion = 1;
/** Sanity bounds so a corrupt length field can't drive allocation. */
constexpr std::uint64_t kMaxKeyLen = 1u << 20;
constexpr std::uint64_t kMaxBlobLen = 1u << 28;

void
appendU64(std::string *buf, std::uint64_t v)
{
    char raw[sizeof v];
    std::memcpy(raw, &v, sizeof v);
    buf->append(raw, sizeof v);
}

void
appendU32(std::string *buf, std::uint32_t v)
{
    char raw[sizeof v];
    std::memcpy(raw, &v, sizeof v);
    buf->append(raw, sizeof v);
}

/** Cursor over an in-memory file image. */
struct Cursor
{
    const std::string &data;
    std::size_t pos = 0;

    bool
    readU64(std::uint64_t *v)
    {
        if (data.size() - pos < sizeof *v)
            return false;
        std::memcpy(v, data.data() + pos, sizeof *v);
        pos += sizeof *v;
        return true;
    }

    bool
    readU32(std::uint32_t *v)
    {
        if (data.size() - pos < sizeof *v)
            return false;
        std::memcpy(v, data.data() + pos, sizeof *v);
        pos += sizeof *v;
        return true;
    }

    bool
    readBytes(std::string *out, std::uint64_t len)
    {
        if (data.size() - pos < len)
            return false;
        out->assign(data.data() + pos, len);
        pos += len;
        return true;
    }
};

/** Serialized header for @p runKey (magic..runKey plus CRC). */
std::string
makeHeader(const std::string &runKey)
{
    std::string h;
    appendU64(&h, kJournalMagic);
    appendU64(&h, kJournalVersion);
    appendU64(&h, runKey.size());
    h += runKey;
    appendU32(&h, crc32(h.data(), h.size()));
    return h;
}

/** Serialized record for (key, blob): lengths, bytes, CRC. */
std::string
makeRecord(const std::string &key, const std::string &blob)
{
    std::string r;
    appendU64(&r, key.size());
    appendU64(&r, blob.size());
    r += key;
    r += blob;
    appendU32(&r, crc32(r.data(), r.size()));
    return r;
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

    // Read the whole image up front: records are validated (and the
    // torn tail truncated) against in-memory bytes, never a stream
    // whose fail state conflates EOF with I/O error.
    std::string image;
    {
        std::ifstream is(path_, std::ios::binary);
        if (is) {
            std::ostringstream os;
            os << is.rdbuf();
            image = os.str();
        }
    }

    const std::string header = makeHeader(runKey);
    bool fresh = image.empty();
    if (!fresh
        && (image.size() < header.size()
            || std::memcmp(image.data(), header.data(), header.size())
                   != 0)) {
        CATSIM_WARN("checkpoint journal ", path_,
                    ": header mismatch (stale format or colliding run "
                    "key); starting fresh");
        fresh = true;
    }

    std::size_t validEnd = header.size();
    if (!fresh) {
        Cursor cur{image, header.size()};
        while (cur.pos < image.size()) {
            const std::size_t recordStart = cur.pos;
            if (fault::shouldFail("checkpoint_replay_short"))
                break; // models a read failing mid-replay
            std::uint64_t keyLen = 0, blobLen = 0;
            std::string key, blob;
            std::uint32_t storedCrc = 0;
            if (!cur.readU64(&keyLen) || !cur.readU64(&blobLen)
                || keyLen > kMaxKeyLen || blobLen > kMaxBlobLen
                || !cur.readBytes(&key, keyLen)
                || !cur.readBytes(&blob, blobLen)
                || !cur.readU32(&storedCrc)) {
                CATSIM_WARN("checkpoint journal ", path_,
                            ": torn record at offset ", recordStart,
                            "; truncating tail");
                break;
            }
            const std::uint32_t computed = crc32(
                image.data() + recordStart,
                cur.pos - recordStart - sizeof storedCrc);
            if (computed != storedCrc) {
                CATSIM_WARN("checkpoint journal ", path_,
                            ": CRC mismatch at offset ", recordStart,
                            "; truncating tail");
                break;
            }
            index_[key] = std::move(blob);
            ++replayed_;
            validEnd = cur.pos;
        }
    }

    if (fresh) {
        // (Re)write header + truncate everything else.
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
    const std::string record = makeRecord(key, blob);
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
    appendU64(&buf_, v);
}

void
BlobWriter::putDouble(double v)
{
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v, "double is 64-bit");
    std::memcpy(&bits, &v, sizeof bits);
    appendU64(&buf_, bits);
}

bool
BlobReader::getU64(std::uint64_t *v)
{
    if (buf_.size() - pos_ < sizeof *v)
        return false;
    std::memcpy(v, buf_.data() + pos_, sizeof *v);
    pos_ += sizeof *v;
    return true;
}

bool
BlobReader::getDouble(double *v)
{
    std::uint64_t bits = 0;
    if (!getU64(&bits))
        return false;
    std::memcpy(v, &bits, sizeof *v);
    return true;
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
