/**
 * @file
 * FileStamp: the identity of one version of a file on disk.
 *
 * The store's writers never edit a file in place: records are staged
 * in tmp/ and renamed into place (a new inode), the index journal only
 * grows by O_APPEND (a new size), and compaction renames a fresh
 * manifest over the old one. So (device, inode, size, mtime) changes
 * whenever what a reader decoded from the file could have changed,
 * and a long-lived reader (the daemon's index and record memo) re-reads
 * a file only when its stamp differs from the one taken before its
 * last read. Taking the stamp before the read means a write that races
 * the read is picked up by the next call, never lost.
 */

#ifndef ETC_STORE_FILE_STAMP_HH
#define ETC_STORE_FILE_STAMP_HH

#include <sys/stat.h>

#include <cstdint>
#include <optional>
#include <string>

namespace etc::store {

struct FileStamp
{
    uint64_t device = 0;
    uint64_t inode = 0;
    int64_t size = 0;
    int64_t mtimeNs = 0;

    bool operator==(const FileStamp &) const = default;
};

/** @return the stamp of @p path, or nullopt when it does not exist
 *  (or cannot be stat'ed). */
inline std::optional<FileStamp>
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

} // namespace etc::store

#endif // ETC_STORE_FILE_STAMP_HH
