/**
 * @file
 * The archive index: every complete cell of a result store, by
 * fingerprint.
 *
 * The content-addressed store answers "give me cell <fingerprint>" in
 * one file read, but answers "what do we have for workload X?" only by
 * decoding records. The index maps every complete cell's fingerprint
 * back to its full CellKey (workload x policy x errors x seed x trials
 * x program hash), so query engines and coverage reports enumerate the
 * archive without reading record bodies.
 *
 * It keeps no files of its own: <root>/cells/ is the index. load()
 * lists that directory and decodes the header line of each record file
 * it has not listed before (decodeCellRecordKey()); a file whose header
 * key does not hash to its file name is skipped with a warning, once
 * per version (FileStamp) of the file. So a record renamed into cells/
 * is indexed by the next load(), whatever became of its writer after
 * the rename. The shard files under <root>/shards/ are the one record
 * of partial cells, and health() and audit() count them there.
 *
 * audit() (`etc_lab reindex`) decodes every record file in full and
 * reports corrupt records and orphaned shards; with quarantine it
 * moves the corrupt files under <root>/index/quarantine/, mirroring
 * their store-relative paths. That is the only write under
 * <root>/index/. Archives written before the index read cells/ may
 * hold index/journal.jsonl and index/manifest.jsonl; nothing reads
 * them.
 *
 * Like every record surface, corruption is reported and tolerated,
 * never fatal.
 */

#ifndef ETC_STORE_INDEX_HH
#define ETC_STORE_INDEX_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "store/file_io.hh"
#include "store/record.hh"

namespace etc::store {

/**
 * How close to the wall clock a directory's mtime makes a listing of
 * it racy (git's racily-clean rule). Kernels without multigrain
 * timestamps (before Linux 6.13) advance a directory's mtime once per
 * jiffy (up to 10 ms), so a cell renamed into cells/ in the same tick
 * as a listing leaves the directory's stamp unchanged. A listing taken
 * while the mtime is within this window of the clock is therefore
 * taken again by the next load(). A second is a hundred jiffies at
 * HZ=100: clock slew and the lag of the kernel's coarse clock stay
 * inside it, and a second of re-listing after each write costs one
 * readdir per load().
 */
constexpr std::chrono::nanoseconds RACY_WINDOW = std::chrono::seconds(1);

/** Index health for /v1/healthz and `etc_lab stats`. */
struct IndexHealth
{
    uint64_t cells = 0;          //!< complete cells indexed
    /** Partial cells: shard directories of unindexed cells that
     *  hold at least one file. */
    uint64_t shardSets = 0;
    uint64_t shardRanges = 0;    //!< shard files across those sets
    /** Shard directories whose fingerprint already has a complete
     *  cell (leftovers of an interrupted promotion). */
    uint64_t orphanedShards = 0;
};

/** What a full-scan audit found (counts plus offending paths). */
struct AuditReport
{
    uint64_t cells = 0;     //!< decodable cell records
    uint64_t shardSets = 0; //!< partial cells with a decodable shard
    std::vector<std::string> orphanedShards; //!< shard files shadowed
                                             //!< by a complete cell
    std::vector<std::string> corruptRecords; //!< undecodable files
    uint64_t quarantined = 0; //!< corrupt files moved aside
};

/**
 * The index over one store root. Instances are snapshots: load() lists
 * cells/; call it again to refresh. A refresh lists the directory again
 * only when its FileStamp changed since the last listing or that
 * listing was racy (RACY_WINDOW), and decodes only the headers of
 * files it has not listed before, or skipped in another version, so a
 * long-lived instance (the daemon's) costs one stat() per request over
 * a settled archive. Not internally synchronized -- use one instance
 * per thread, like ResultStore.
 */
class StoreIndex
{
  public:
    explicit StoreIndex(std::string root);

    const std::string &root() const { return root_; }

    /** List cells/ (see the class comment). Never throws. */
    void load();

    /** Indexed cells by fingerprint, in sorted order (after load()). */
    const std::map<std::string, CellKey> &entries() const
    {
        return entries_;
    }

    /** @return true if @p fingerprint has a cell indexed. */
    bool hasCell(const std::string &fingerprint) const;

    /** Health snapshot: the shard counts and orphans come from a fresh
     *  scan of shards/ (directory entries only, nothing decoded). */
    IndexHealth health() const;

    /**
     * Decode every record file under cells/ and shards/ in full.
     * Partial cells are counted, and valid shard files whose cell is
     * complete are reported as orphans and left in place. Corrupt
     * record files of either kind are reported and, when
     * @p quarantine is set, moved under index/quarantine/ (mirroring
     * their store-relative path). The loaded entries are untouched.
     */
    AuditReport audit(bool quarantine = false) const;

  private:
    std::string root_;
    std::map<std::string, CellKey> entries_;

    /** The stamp of cells/ taken before the last listing, and whether
     *  that listing was racy. */
    bool loaded_ = false;
    bool racy_ = false;
    std::optional<FileStamp> stamp_;

    /** The files of cells/ the last listing skipped, by name, with the
     *  stamp of the version it decoded (and warned about). */
    std::map<std::string, FileStamp> skipped_;
};

} // namespace etc::store

#endif // ETC_STORE_INDEX_HH
