/**
 * @file
 * Content-addressed on-disk cache of campaign results.
 *
 * Layout under the root directory:
 *
 *   <root>/cells/<fingerprint>.jsonl          complete cell records
 *   <root>/shards/<fingerprint>/<lo>-<hi>.jsonl   partial shards
 *   <root>/tmp/                                staging for atomic writes
 *   <root>/index/quarantine/                   corrupt records moved
 *                                              aside by `etc_lab reindex`
 *
 * The files are the whole state: the archive index (index.hh) lists
 * cells/, and the files under shards/ are the one record of partial
 * cells. Every record write -- storeCell(), storeShard(), the
 * lease-checked ingestRecord() and so promoteShards() -- goes through
 * one private path that stages and counts it, and all file access
 * goes through file_io.hh, so a record renamed into place is all a
 * write leaves.
 *
 * Records are addressed by the CellKey fingerprint, so equal work is
 * deduplicated across runs, drivers, and machines sharing a cache
 * directory. Writes land in tmp/ and are renamed into place, so a
 * killed campaign never leaves a half-written record where a reader
 * could find it; whatever shards were completed before the kill are
 * intact and a later run resumes from them.
 *
 * Corrupt, truncated, or schema-mismatched entries are reported via
 * warn() and treated as cache misses (the cell is recomputed); they
 * never crash and never serve wrong data, because every record carries
 * its full key and is validated against the requested one on load.
 *
 * Concurrent writers: any number of processes (or threads, each with
 * its own ResultStore instance) may race on the same cell. Every
 * write stages into a unique tmp/ file (pid + per-process counter)
 * and rename()s it into place, so readers only ever observe a
 * complete record, and -- because a cell is a pure function of its
 * key -- every racing writer produces identical bytes: whichever
 * rename lands last simply replaces the record with itself. A single
 * ResultStore *instance* is not internally synchronized (its record
 * memo is a plain field); give each thread its own instance over the
 * shared root, exactly as separate processes would. Traffic is counted
 * process-wide, in the etc_store_* metrics.
 *
 * Record memo: an instance keeps the cell records it decoded, by
 * fingerprint, with the record file's FileStamp taken before the read
 * (file_io.hh). A later load of the same cell stats the file and
 * decodes it again only when the stamp changed, so a long-lived reader
 * (the daemon) serves an unchanged archive from memory and still sees
 * every record any process writes. A missing or unreadable file is
 * never memoized: it misses, and warns, on every call. The memo holds
 * at most CELL_MEMO_CAP records and is cleared when full.
 */

#ifndef ETC_STORE_RESULT_STORE_HH
#define ETC_STORE_RESULT_STORE_HH

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/file_io.hh"
#include "store/record.hh"

namespace etc::store {

/** Most decoded cell records one ResultStore keeps (see the file
 *  comment); the memo is cleared when it is full. */
constexpr size_t CELL_MEMO_CAP = 1024;

class ResultStore
{
  public:
    /** Open (creating lazily on first write) the cache at @p root. */
    explicit ResultStore(std::string root);

    const std::string &root() const { return root_; }

    /** @return true if a complete record for @p key exists. */
    bool hasCell(const CellKey &key) const;

    /**
     * Load the complete cell record for @p key (through the record
     * memo: the file is decoded again only when its stamp changed).
     *
     * @return the stored summary, or nullopt if absent or unreadable
     *         (unreadable entries warn and count as misses).
     */
    std::optional<core::CellSummary> loadCell(const CellKey &key);

    /** Persist a complete cell record (atomic rename into place; safe
     *  against concurrent writers of the key, see the file comment). */
    void storeCell(const CellKey &key,
                   const core::CellSummary &summary);

    /** @return true if the shard [lo, hi) of @p key is stored. */
    bool hasShard(const CellKey &key, unsigned lo, unsigned hi) const;

    /** Persist one shard record (atomic rename into place; same
     *  concurrent-writer guarantee as storeCell()). */
    void storeShard(const CellKey &key, unsigned lo, unsigned hi,
                    const core::CellSummary &summary);

    /**
     * Load every readable shard of @p key, sorted by trial range.
     * Unreadable shard files warn and are skipped.
     */
    std::vector<ShardRecord> loadShards(const CellKey &key);

    /** Delete all shards of @p key (after promotion to a cell). */
    void dropShards(const CellKey &key);

    /**
     * Promote shard records of @p key to its complete cell record:
     * keep a prefix tiling of @p shards (selectPrefixTiling()), merge
     * it over [0, key.trials), store the cell, and drop every shard
     * file of the key. This is the one shard-to-cell path: `etc_lab
     * run` and the daemon's lease promotion both end here.
     *
     * @return the merged (and now stored) cell summary
     * @throws StoreFormatError when the tiling leaves gaps; nothing
     *         is written or dropped then
     */
    core::CellSummary promoteShards(const CellKey &key,
                                    std::vector<ShardRecord> shards);

    /**
     * Ingest the record a lease completion carries (POST
     * /v1/leases/<id>/complete): decode and fully validate @p text as
     * the complete cell record of @p key, or as its shard record over
     * exactly [lo, hi), then write the received bytes verbatim to the
     * record's content-addressed path. Verbatim, because a cell is a
     * pure function of its key: the worker's bytes are identical to
     * what a local run would have written, so raced ingests and local
     * computes overwrite each other with themselves. Nothing is
     * written when the cell record is already stored: it holds these
     * very bytes, or supersedes the shard, which would only orphan a
     * file next to it.
     *
     * @throws StoreFormatError on a malformed, truncated or
     *         unrecognized record, or one of another cell or stripe
     *         (nothing is written then).
     */
    void ingestRecord(const std::string &text, const CellKey &key,
                      unsigned lo, unsigned hi);

    /**
     * The one cell-record read, behind loadCell() and every reader that
     * knows only the on-disk fingerprint (the query engine, the
     * campaign service's GET /v1/cells/<key>): the record at
     * @p fingerprint from the memo while its file's stamp is
     * unchanged, else read, decoded and memoized. When @p expected is
     * non-null the record's key must equal it. Counts a cache hit or
     * miss; an absent or unreadable record returns null (unreadable
     * ones warn).
     *
     * @return the record, valid until the next call on this store
     */
    const CellRecord *readCell(const std::string &fingerprint,
                               const CellKey *expected);

    /** @return true if a complete record exists at @p fingerprint
     *  (existence only -- no decode; callers validate the hex). */
    bool hasCellByFingerprint(const std::string &fingerprint) const;

  private:
    std::string cellPath(const std::string &fingerprint) const;
    std::string shardDir(const CellKey &key) const;
    std::string shardPath(const CellKey &key, unsigned lo,
                          unsigned hi) const;

    /**
     * The one record write: stage @p text and rename it into place as
     * the shard [lo, hi) of @p key, or as its cell record when @p hi
     * is 0 (a shard range is never empty), then count it.
     */
    void writeRecord(const CellKey &key, unsigned lo, unsigned hi,
                     const std::string &text);

    struct MemoEntry
    {
        FileStamp stamp;
        CellRecord record;
    };

    std::string root_;
    std::unordered_map<std::string, MemoEntry> memo_;
};

} // namespace etc::store

#endif // ETC_STORE_RESULT_STORE_HH
