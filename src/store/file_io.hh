/**
 * @file
 * The result store's file I/O: the one module under src/store/ that
 * opens, reads, writes or truncates a file (CI fails on file streams
 * or raw open()/write() anywhere else in src/store/).
 *
 * No file is edited in place: records and the index manifest are
 * staged under <root>/tmp/ (pid + counter names, so racing processes
 * never share one) and renamed into place; a journal entry is one
 * O_APPEND write(), so racing appenders never interleave; compaction
 * truncates the journal. Nothing calls fsync(): a rename survives a
 * crash of the writer, not a power loss of the host.
 *
 * So a file's FileStamp changes whenever what a reader decoded from it
 * could have changed, and a long-lived reader (the daemon's index and
 * record memo) re-reads a file only when its stamp differs from the one
 * taken before its last read (before, so a racing write is picked up by
 * the next call, never lost).
 *
 * Nothing here counts bytes: ResultStore counts its record I/O itself.
 */

#ifndef ETC_STORE_FILE_IO_HH
#define ETC_STORE_FILE_IO_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace etc::store {

/** The identity of one version of a file on disk. */
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
std::optional<FileStamp> stampFile(const std::string &path);

/** @return the whole file, or nullopt if it does not exist or cannot
 *  be read. */
std::optional<std::string> readFile(const std::string &path);

/** Split @p text at '\n': a final newline ends the last line, and a
 *  last line without one is kept. */
std::vector<std::string> splitLines(const std::string &text);

/** Write @p contents to @p path (creating its directory): stage it in
 *  <root>/tmp/, then rename it into place. fatal() on failure. */
void writeFileAtomically(const std::string &root, const std::string &path,
                         const std::string &contents);

/** Append @p line to @p path (creating both) in one O_APPEND write().
 *  @return false when the file cannot be opened or the write is short */
bool appendLine(const std::string &path, const std::string &line);

/** Empty @p path, creating it if absent (its directory must exist). */
void truncateFile(const std::string &path);

} // namespace etc::store

#endif // ETC_STORE_FILE_IO_HH
