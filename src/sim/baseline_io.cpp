#include "baseline_io.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string_view>
#include <thread>

#include "common/checksum.hpp"
#include "common/durable_io.hpp"
#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "sim/checkpoint.hpp"

namespace catsim
{

namespace
{

/** Journal run key of a baseline file: model version, key, scale. */
std::string
baselineRunKey(const std::string &key, double scale)
{
    std::ostringstream os;
    os << "baseline|v=" << kBaselineModelVersion << '|' << key
       << "|scale=" << std::hexfloat << scale;
    return os.str();
}

constexpr std::string_view kRecordKey = "timing";

std::string
encodeTiming(const TimingResult &r)
{
    BlobWriter w;
    w.putU64(r.execCycles);
    w.putDouble(r.execSeconds);
    w.putU64(r.epochs);
    w.putU64(r.controller.reads);
    w.putU64(r.controller.writes);
    w.putU64(r.controller.writeDrains);
    w.putU64(r.controller.victimRefreshEvents);
    w.putU64(r.controller.victimRowsRefreshed);
    w.putU64(r.controller.lastCompletion);
    putStats(w, r.scheme);
    w.putU64(r.totalActivations);
    w.putU64(r.victimRowsRefreshed);
    w.putU64(r.bankStreams.size());
    for (const auto &stream : r.bankStreams) {
        const std::size_t bytes = stream.size() * sizeof(RowAddr);
        w.putU64(bytes);
        w.putBytes(stream.data(), bytes);
    }
    return w.str();
}

bool
decodeTiming(std::string_view blob, TimingResult *r)
{
    BlobReader rd(blob);
    std::uint64_t banks = 0;
    if (!rd.getU64(&r->execCycles) || !rd.getDouble(&r->execSeconds)
        || !rd.getU64(&r->epochs) || !rd.getU64(&r->controller.reads)
        || !rd.getU64(&r->controller.writes)
        || !rd.getU64(&r->controller.writeDrains)
        || !rd.getU64(&r->controller.victimRefreshEvents)
        || !rd.getU64(&r->controller.victimRowsRefreshed)
        || !rd.getU64(&r->controller.lastCompletion)
        || !getStats(rd, &r->scheme) || !rd.getU64(&r->totalActivations)
        || !rd.getU64(&r->victimRowsRefreshed) || !rd.getU64(&banks))
        return false;
    // Streams are appended one by one, so a corrupt bank count runs out
    // of bytes instead of driving one huge allocation.
    for (std::uint64_t b = 0; b < banks; ++b) {
        std::uint64_t bytes = 0;
        std::string_view raw;
        if (!rd.getU64(&bytes) || bytes % sizeof(RowAddr) != 0
            || !rd.getBytes(bytes, &raw))
            return false;
        auto &stream = r->bankStreams.emplace_back(bytes / sizeof(RowAddr));
        if (bytes != 0) // an empty vector's data() may be null
            std::memcpy(stream.data(), raw.data(), bytes);
    }
    return rd.atEnd();
}

} // namespace

std::string
baselineCacheFileName(const std::string &key, double scale)
{
    std::string safe;
    safe.reserve(key.size());
    for (char c : key) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                        || (c >= '0' && c <= '9') || c == '-' || c == '.';
        safe.push_back(ok ? c : '_');
    }
    std::uint64_t scaleBits;
    static_assert(sizeof scaleBits == sizeof scale, "double is 64-bit");
    std::memcpy(&scaleBits, &scale, sizeof scaleBits);
    char suffix[64];
    std::snprintf(suffix, sizeof suffix, "-%016llx-%016llx.catb",
                  static_cast<unsigned long long>(fnv1a(key)),
                  static_cast<unsigned long long>(scaleBits));
    return safe + suffix;
}

bool
saveBaseline(const std::string &path, const std::string &key,
             double scale, const TimingResult &result)
{
    std::error_code ec;
    const std::filesystem::path target(path);
    if (target.has_parent_path())
        std::filesystem::create_directories(target.parent_path(), ec);

    std::string image = journalHeader(baselineRunKey(key, scale));
    appendJournalRecord(&image, kRecordKey, encodeTiming(result));

    if (fault::shouldFail("baseline_write_enospc")) {
        CATSIM_WARN("baseline cache: cannot write ", path,
                    " (injected ENOSPC)");
        return false;
    }
    // Injected torn write: half the image reaches the final path, as a
    // crash between rename and device writeback would leave it.  The
    // record's CRC makes the next load miss and recompute.
    const std::size_t writeLen = fault::shouldFail("baseline_write_torn")
        ? image.size() / 2
        : image.size();

    // Unique temp name per writer (thread id alone can collide across
    // processes sharing a cache dir); renamed into place atomically.
    std::ostringstream uniq;
    uniq << std::this_thread::get_id() << '.' << std::hex
         << std::random_device{}();
    const std::string tmp = path + ".tmp." + uniq.str();
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            CATSIM_WARN("baseline cache: cannot write ", tmp);
            return false;
        }
        os.write(image.data(), static_cast<std::streamsize>(writeLen));
        os.flush();
        if (!os) {
            CATSIM_WARN("baseline cache: short write to ", tmp);
            os.close();
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    // Durability: data to the device before the rename publishes it,
    // then the rename itself via the directory.  Best effort - a
    // filesystem that refuses fsync degrades to page-cache safety.
    syncFile(tmp);
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        CATSIM_WARN("baseline cache: rename to ", path, " failed: ",
                    ec.message());
        std::filesystem::remove(tmp, ec);
        return false;
    }
    syncParentDir(path);
    return true;
}

bool
loadBaseline(const std::string &path, const std::string &key,
             double scale, TimingResult *out)
{
    std::string image;
    if (!readWholeFile(path, &image))
        return false;
    if (fault::shouldFail("baseline_read"))
        return false; // models an I/O error / short read mid-load

    // Exactly one valid record, ending at EOF: a torn, bit-flipped,
    // stale (other run key) or appended-to file misses and recomputes.
    std::string_view blob;
    std::size_t records = 0;
    const std::size_t end = parseJournal(
        image, baselineRunKey(key, scale),
        [&](std::string_view, std::string_view b) {
            blob = b;
            return ++records == 1;
        });
    TimingResult r;
    if (records != 1 || end != image.size() || !decodeTiming(blob, &r))
        return false;
    *out = std::move(r);
    return true;
}

} // namespace catsim
