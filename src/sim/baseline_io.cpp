#include "baseline_io.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "common/checksum.hpp"
#include "common/durable_io.hpp"
#include "common/fault_injection.hpp"
#include "common/logging.hpp"

namespace catsim
{

namespace
{

/** Bump on any layout change; stale files are silently recomputed. */
constexpr std::uint64_t kMagic = 0x43415453494D4231ULL; // "CATSIMB1"

void
putU64(std::ostream &os, std::uint64_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof v);
}

void
putDouble(std::ostream &os, double v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof v);
}

bool
getU64(std::istream &is, std::uint64_t *v)
{
    is.read(reinterpret_cast<char *>(v), sizeof *v);
    return static_cast<bool>(is);
}

bool
getDouble(std::istream &is, double *v)
{
    is.read(reinterpret_cast<char *>(v), sizeof *v);
    return static_cast<bool>(is);
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

    // Serialize into memory first so the CRC32 trailer covers the
    // exact bytes that hit the disk.
    std::ostringstream payload(std::ios::binary);
    putU64(payload, kMagic);
    putU64(payload, kBaselineModelVersion);
    putU64(payload, key.size());
    payload.write(key.data(), static_cast<std::streamsize>(key.size()));
    putDouble(payload, scale);

    putU64(payload, result.execCycles);
    putDouble(payload, result.execSeconds);
    putU64(payload, result.epochs);
    putU64(payload, result.controller.reads);
    putU64(payload, result.controller.writes);
    putU64(payload, result.controller.writeDrains);
    putU64(payload, result.controller.victimRefreshEvents);
    putU64(payload, result.controller.victimRowsRefreshed);
    putU64(payload, result.controller.lastCompletion);
    putU64(payload, result.scheme.activations);
    putU64(payload, result.scheme.refreshEvents);
    putU64(payload, result.scheme.victimRowsRefreshed);
    putU64(payload, result.scheme.sramAccesses);
    putU64(payload, result.scheme.prngBits);
    putU64(payload, result.scheme.splits);
    putU64(payload, result.scheme.merges);
    putU64(payload, result.scheme.epochResets);
    putU64(payload, result.scheme.counterDramReads);
    putU64(payload, result.scheme.counterDramWrites);
    putU64(payload, result.totalActivations);
    putU64(payload, result.victimRowsRefreshed);

    putU64(payload, result.bankStreams.size());
    for (const auto &stream : result.bankStreams) {
        putU64(payload, stream.size());
        payload.write(reinterpret_cast<const char *>(stream.data()),
                      static_cast<std::streamsize>(stream.size()
                                                   * sizeof(RowAddr)));
    }
    std::string blob = payload.str();
    const std::uint32_t crc = crc32(blob.data(), blob.size());
    blob.append(reinterpret_cast<const char *>(&crc), sizeof crc);

    if (fault::shouldFail("baseline_write_enospc")) {
        CATSIM_WARN("baseline cache: cannot write ", path,
                    " (injected ENOSPC)");
        return false;
    }
    // Injected torn write: half the blob reaches the final path, as a
    // crash between rename and device writeback would leave it.  The
    // CRC trailer makes the next load miss and recompute.
    const std::size_t writeLen = fault::shouldFail("baseline_write_torn")
        ? blob.size() / 2
        : blob.size();

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
        os.write(blob.data(), static_cast<std::streamsize>(writeLen));
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
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return false;
    if (fault::shouldFail("baseline_read"))
        return false; // models an I/O error / short read mid-load

    // Read the whole image so the CRC32 trailer can be verified before
    // any field is trusted; the image size also bounds every length
    // field below, so a corrupt file can never trigger a huge
    // allocation.
    std::string image;
    {
        std::ostringstream os;
        os << file.rdbuf();
        image = os.str();
    }
    if (image.size() < sizeof(std::uint32_t))
        return false;
    std::uint32_t storedCrc = 0;
    std::memcpy(&storedCrc,
                image.data() + image.size() - sizeof storedCrc,
                sizeof storedCrc);
    const std::size_t payloadSize = image.size() - sizeof storedCrc;
    if (crc32(image.data(), payloadSize) != storedCrc)
        return false; // torn, truncated, or bit-flipped: recompute
    const std::uint64_t fileSize = payloadSize;

    std::istringstream is(image.substr(0, payloadSize),
                          std::ios::binary);

    std::uint64_t magic = 0, version = 0, keyLen = 0;
    if (!getU64(is, &magic) || magic != kMagic || !getU64(is, &version)
        || version != kBaselineModelVersion || !getU64(is, &keyLen)
        || keyLen > 4096)
        return false;
    std::string storedKey(keyLen, '\0');
    is.read(storedKey.data(), static_cast<std::streamsize>(keyLen));
    double storedScale = 0.0;
    if (!is || storedKey != key || !getDouble(is, &storedScale)
        || storedScale != scale)
        return false;

    TimingResult r;
    bool ok = getU64(is, &r.execCycles) && getDouble(is, &r.execSeconds)
              && getU64(is, &r.epochs) && getU64(is, &r.controller.reads)
              && getU64(is, &r.controller.writes)
              && getU64(is, &r.controller.writeDrains)
              && getU64(is, &r.controller.victimRefreshEvents)
              && getU64(is, &r.controller.victimRowsRefreshed)
              && getU64(is, &r.controller.lastCompletion)
              && getU64(is, &r.scheme.activations)
              && getU64(is, &r.scheme.refreshEvents)
              && getU64(is, &r.scheme.victimRowsRefreshed)
              && getU64(is, &r.scheme.sramAccesses)
              && getU64(is, &r.scheme.prngBits)
              && getU64(is, &r.scheme.splits)
              && getU64(is, &r.scheme.merges)
              && getU64(is, &r.scheme.epochResets)
              && getU64(is, &r.scheme.counterDramReads)
              && getU64(is, &r.scheme.counterDramWrites)
              && getU64(is, &r.totalActivations)
              && getU64(is, &r.victimRowsRefreshed);
    if (!ok)
        return false;

    std::uint64_t banks = 0;
    if (!getU64(is, &banks) || banks > 65536)
        return false;
    r.bankStreams.resize(banks);
    for (auto &stream : r.bankStreams) {
        std::uint64_t len = 0;
        if (!getU64(is, &len) || len > fileSize / sizeof(RowAddr))
            return false;
        stream.resize(len);
        is.read(reinterpret_cast<char *>(stream.data()),
                static_cast<std::streamsize>(len * sizeof(RowAddr)));
        if (!is)
            return false;
    }
    // Reject trailing garbage (e.g. a truncated-then-appended file).
    is.peek();
    if (!is.eof())
        return false;

    *out = std::move(r);
    return true;
}

} // namespace catsim
