/**
 * @file
 * Persistent secondary index over the result store.
 *
 * The content-addressed store answers "give me cell <fingerprint>" in
 * one file read, but answers "what do we have for workload X?" only by
 * scanning and decoding every record. The index inverts that: a small
 * sidecar under <root>/index/ maps every complete cell's fingerprint
 * back to its full CellKey (workload x policy x errors x seed x trials
 * x program hash), so query engines and coverage reports enumerate the
 * archive without touching record bodies. It indexes cells only: the
 * shard files under <root>/shards/ are the one record of partial
 * cells, and health() and rebuild() count them there.
 *
 * Layout:
 *
 *   <root>/index/journal.jsonl    append-only cell entries
 *   <root>/index/manifest.jsonl   compacted snapshot (sorted, sealed)
 *   <root>/index/quarantine/      corrupt records moved by rebuild
 *
 * ResultStore appends one self-checksummed line to the journal per
 * cell-record write -- a single O_APPEND write(), so any number of
 * processes or threads may race on the same journal and readers at
 * worst skip a torn final line. Readers fold the journal over the
 * manifest; compact() folds everything into a fresh manifest and
 * truncates the journal. Archives written before the index dropped
 * shard state may also hold "shard" and "drop-shards" journal lines
 * and "shards" manifest lines; load() skips them. Every read, append,
 * staged write and truncation goes through file_io.hh; this file only
 * seals, parses and folds lines.
 *
 * Determinism contract: the manifest encoding carries no timestamps,
 * entries sort by fingerprint, and a cell line is journaled exactly
 * when a cell record lands in cells/, so an incrementally maintained
 * index and a from-scratch rebuild() produce byte-identical manifests
 * (pinned by index_test.cc). compact() and rebuild() must not race
 * concurrent writers (appends between snapshot and journal truncation
 * would be lost); the daemon and query paths only ever load().
 *
 * Like every record surface, corruption is reported and tolerated,
 * never fatal: torn journal lines are skipped and counted, a corrupt
 * manifest is ignored (rebuild() restores it), and rebuild() reports
 * -- and optionally quarantines -- undecodable record files instead
 * of crashing.
 */

#ifndef ETC_STORE_INDEX_HH
#define ETC_STORE_INDEX_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "store/file_io.hh"
#include "store/record.hh"

namespace etc::store {

/** Index health for /v1/healthz and `etc_lab stats`. */
struct IndexHealth
{
    uint64_t cells = 0;          //!< complete cells indexed
    /** Partial cells: shard directories of unindexed cells that
     *  hold at least one file. */
    uint64_t shardSets = 0;
    uint64_t shardRanges = 0;    //!< shard files across those sets
    uint64_t journalEntries = 0; //!< cell lines folded over the manifest
    uint64_t journalCorrupt = 0; //!< torn/garbled journal lines
    bool manifestPresent = false;
    /** Shard directories whose fingerprint already has a complete
     *  cell (leftovers of an interrupted promotion). */
    uint64_t orphanedShards = 0;
};

/** What a full-scan rebuild found (counts plus offending paths). */
struct RebuildReport
{
    uint64_t cells = 0;
    uint64_t shardSets = 0; //!< partial cells with a decodable shard
    std::vector<std::string> orphanedShards; //!< shard files shadowed
                                             //!< by a complete cell
    std::vector<std::string> corruptRecords; //!< undecodable files
    uint64_t quarantined = 0; //!< corrupt files moved aside
};

/**
 * The secondary index over one store root. Instances are snapshots:
 * load() reads manifest + journal; call it again to refresh. A
 * refresh re-reads both files only when either one's FileStamp
 * changed since the last read (file_io.hh), so a long-lived
 * instance (the daemon's) costs two stat() calls per request over an
 * unchanged archive. Not internally synchronized -- use one instance
 * per thread, like ResultStore.
 */
class StoreIndex
{
  public:
    explicit StoreIndex(std::string root);

    const std::string &root() const { return root_; }

    /**
     * The writer side (stateless, any thread or process): journal the
     * cell record of @p key as one self-checksummed O_APPEND line.
     * Never throws -- an unwritable journal warns and the index goes
     * stale until the next rebuild (the store itself stays correct
     * regardless).
     */
    static void journalCell(const std::string &root, const CellKey &key);

    /**
     * Read manifest + journal into memory (see the file comment). On an
     * instance that has loaded before, returns at once when neither
     * file's stamp changed since that read.
     */
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
     * Fold the loaded state into a fresh manifest (atomic rename) and
     * truncate the journal. Callers must guarantee no concurrent
     * writers (see the file comment).
     */
    void compact();

    /**
     * Rebuild from a full scan of cells/, replacing the loaded state,
     * then compact(). shards/ is scanned only for the report: partial
     * cells are counted, and valid shard files whose cell is already
     * complete are reported as orphans and left in place. Corrupt
     * record files of either kind are reported and, when
     * @p quarantine is set, moved under index/quarantine/ (mirroring
     * their store-relative path). Same no-concurrent-writers contract
     * as compact().
     */
    RebuildReport rebuild(bool quarantine = false);

    /** The canonical manifest bytes of the loaded state. */
    std::string encodeManifest() const;

  private:
    void setGauges() const;

    std::string root_;
    std::map<std::string, CellKey> entries_;
    uint64_t journalEntries_ = 0;
    uint64_t journalCorrupt_ = 0;
    bool manifestPresent_ = false;

    /** The files' stamps taken before the last load()'s read. */
    bool loaded_ = false;
    std::optional<FileStamp> manifestStamp_;
    std::optional<FileStamp> journalStamp_;
};

} // namespace etc::store

#endif // ETC_STORE_INDEX_HH
