#include "durable_io.hpp"

#include <filesystem>
#include <fstream>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace catsim
{

namespace
{

#ifndef _WIN32
bool
fsyncPath(const char *path, int flags)
{
    const int fd = ::open(path, flags);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}
#endif

} // namespace

bool
syncFile(const std::string &path)
{
#ifdef _WIN32
    (void)path;
    return false;
#else
    return fsyncPath(path.c_str(), O_RDONLY);
#endif
}

bool
syncParentDir(const std::string &path)
{
#ifdef _WIN32
    (void)path;
    return false;
#else
    std::filesystem::path p(path);
    const std::filesystem::path dir =
        p.has_parent_path() ? p.parent_path() : ".";
    return fsyncPath(dir.string().c_str(), O_RDONLY | O_DIRECTORY);
#endif
}

bool
readWholeFile(const std::string &path, std::string *out)
{
    // A directory opens fine but reports a bogus size.
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec))
        return false;
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        return false;
    const std::streamoff size = is.tellg();
    if (size < 0)
        return false;
    out->resize(static_cast<std::size_t>(size));
    is.seekg(0);
    return static_cast<bool>(is.read(out->data(), size));
}

} // namespace catsim
