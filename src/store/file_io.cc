#include "store/file_io.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "support/logging.hh"

namespace etc::store {

namespace fs = std::filesystem;

std::optional<FileStamp>
stampFile(const std::string &path)
{
    struct stat info;
    if (::stat(path.c_str(), &info) != 0)
        return std::nullopt;
    return FileStamp{static_cast<uint64_t>(info.st_dev),
                     static_cast<uint64_t>(info.st_ino),
                     static_cast<int64_t>(info.st_size),
                     static_cast<int64_t>(info.st_mtim.tv_sec) *
                             1000000000 +
                         info.st_mtim.tv_nsec};
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
    // key, a manifest of the store's contents).
    static std::atomic<uint64_t> counter{0};
    fs::path tmp = tmpDir / (target.filename().string() + "." +
                             std::to_string(::getpid()) + "." +
                             std::to_string(counter.fetch_add(1)) +
                             ".tmp");
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out << contents;
        out.flush();
        if (!out)
            fatal("result store: cannot write ", tmp.string());
    }
    fs::rename(tmp, target, ec);
    if (ec)
        fatal("result store: cannot move ", tmp.string(), " to ", path,
              ": ", ec.message());
}

bool
appendLine(const std::string &path, const std::string &line)
{
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    int fd = ::open(path.c_str(),
                    O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0)
        return false;
    ssize_t written = ::write(fd, line.data(), line.size());
    ::close(fd);
    return written == static_cast<ssize_t>(line.size());
}

void
truncateFile(const std::string &path)
{
    std::ofstream truncate(path, std::ios::binary | std::ios::trunc);
}

} // namespace etc::store
