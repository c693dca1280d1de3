#include "store/file_io.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "support/logging.hh"

namespace etc::store {

namespace fs = std::filesystem;

namespace {

FileStamp
stampOf(const struct stat &info)
{
    return FileStamp{static_cast<uint64_t>(info.st_dev),
                     static_cast<uint64_t>(info.st_ino),
                     static_cast<int64_t>(info.st_size),
                     static_cast<int64_t>(info.st_mtim.tv_sec) *
                             1000000000 +
                         info.st_mtim.tv_nsec};
}

} // namespace

std::optional<FileStamp>
stampFile(const std::string &path)
{
    struct stat info;
    if (::stat(path.c_str(), &info) != 0)
        return std::nullopt;
    return stampOf(info);
}

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream contents;
    contents << in.rdbuf();
    if (in.bad())
        return std::nullopt;
    return contents.str();
}

std::optional<FirstLine>
readFirstLine(const std::string &path)
{
    // One descriptor for the stamp and the bytes, so both are of one
    // version of the file; no stream, since a cold index listing opens
    // every record file.
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return std::nullopt;
    std::optional<FirstLine> first;
    struct stat info;
    if (::fstat(fd, &info) == 0) {
        std::string line;
        char buffer[4096];
        ssize_t got = 0;
        bool any = false;
        while ((got = ::read(fd, buffer, sizeof buffer)) > 0) {
            any = true;
            auto size = static_cast<size_t>(got);
            auto *end = static_cast<const char *>(
                std::memchr(buffer, '\n', size));
            line.append(buffer, end ? static_cast<size_t>(end - buffer)
                                    : size);
            if (end)
                break;
        }
        if (any && got >= 0)
            first = FirstLine{std::move(line), stampOf(info)};
    }
    ::close(fd);
    return first;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return lines;
}

void
writeFileAtomically(const std::string &root, const std::string &path,
                    const std::string &contents)
{
    fs::path target(path);
    std::error_code ec;
    fs::create_directories(target.parent_path(), ec);
    fs::path tmpDir = fs::path(root) / "tmp";
    fs::create_directories(tmpDir, ec);

    // Whichever of two racing renames lands last wins; writers of one
    // path write identical bytes (a record is a pure function of its
    // key).
    static std::atomic<uint64_t> counter{0};
    fs::path tmp = tmpDir / (target.filename().string() + "." +
                             std::to_string(::getpid()) + "." +
                             std::to_string(counter.fetch_add(1)) +
                             ".tmp");
    std::string failure;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out << contents;
        out.flush();
        if (!out)
            failure = "cannot write " + tmp.string();
    }
    if (failure.empty()) {
        fs::rename(tmp, target, ec);
        if (ec)
            failure = "cannot move " + tmp.string() + " to " + path +
                      ": " + ec.message();
    }
    // Callers may survive the throw (the daemon does), so a failed
    // write must not leave its staged file behind.
    if (!failure.empty()) {
        fs::remove(tmp, ec);
        fatal("result store: ", failure);
    }
}

} // namespace etc::store
