/**
 * @file
 * Persistent secondary index over the result store.
 *
 * The content-addressed store answers "give me cell <fingerprint>" in
 * one file read, but answers "what do we have for workload X?" only by
 * scanning and decoding every record. The index inverts that: a small
 * sidecar under <root>/index/ maps every stored fingerprint back to
 * its full CellKey (workload x policy x errors x seed x trials x
 * program hash) plus its completeness state, so query engines and
 * coverage reports enumerate the archive without touching record
 * bodies.
 *
 * Layout:
 *
 *   <root>/index/journal.jsonl    append-only write-ahead entries
 *   <root>/index/manifest.jsonl   compacted snapshot (sorted, sealed)
 *   <root>/index/quarantine/      corrupt records moved by rebuild
 *
 * Writers (ResultStore::storeCell/storeShard/dropShards) append one
 * self-checksummed line to the journal per mutation -- a single
 * O_APPEND write(), so any number of processes or threads may race on
 * the same journal and readers at worst skip a torn final line.
 * Readers fold the journal over the manifest; compact() folds
 * everything into a fresh manifest and truncates the journal.
 *
 * Determinism contract: the manifest encoding carries no timestamps,
 * entries sort by fingerprint, and the fold rules mirror what a full
 * rescan of cells/ and shards/ observes, so an incrementally
 * maintained index and a from-scratch rebuild() produce byte-identical
 * manifests (pinned by index_test.cc). compact() and rebuild() must
 * not race concurrent writers (appends between snapshot and journal
 * truncation would be lost); the daemon and query paths only ever
 * load().
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
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "store/file_stamp.hh"
#include "store/record.hh"

namespace etc::store {

/** One indexed fingerprint: its key and completeness state. */
struct IndexEntry
{
    CellKey key;
    bool complete = false; //!< a full cell record exists
    /** Shard trial ranges [lo, hi) on disk (empty when complete). */
    std::set<std::pair<unsigned, unsigned>> shardRanges;
};

/** Index health for /v1/healthz and `etc_lab stats`. */
struct IndexHealth
{
    uint64_t cells = 0;          //!< complete cells indexed
    uint64_t shardSets = 0;      //!< partial (shard-only) cells
    uint64_t shardRanges = 0;    //!< shard ranges across all sets
    uint64_t journalEntries = 0; //!< entries folded over the manifest
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
    uint64_t shardSets = 0;
    std::vector<std::string> orphanedShards; //!< shard files shadowed
                                             //!< by a complete cell
    std::vector<std::string> corruptRecords; //!< undecodable files
    uint64_t quarantined = 0; //!< corrupt files moved aside
};

/**
 * The secondary index over one store root. Instances are snapshots:
 * load() reads manifest + journal; call it again to refresh. A
 * refresh re-reads both files only when either one's FileStamp
 * changed since the last read (file_stamp.hh), so a long-lived
 * instance (the daemon's) costs two stat() calls per request over an
 * unchanged archive. Not internally synchronized -- use one instance
 * per thread, like ResultStore.
 */
class StoreIndex
{
  public:
    explicit StoreIndex(std::string root);

    const std::string &root() const { return root_; }

    /// @name Writer side (stateless, any thread/process)
    /// One self-checksummed O_APPEND line per call; never throws --
    /// an unwritable journal warns and the index goes stale until the
    /// next rebuild (the store itself stays correct regardless).
    /// @{
    static void journalCell(const std::string &root, const CellKey &key);
    static void journalShard(const std::string &root, const CellKey &key,
                             unsigned lo, unsigned hi);
    static void journalDropShards(const std::string &root,
                                  const CellKey &key);
    /// @}

    /**
     * Read manifest + journal into memory (fold rules above). On an
     * instance that has loaded before, returns at once when neither
     * file's stamp changed since that read.
     */
    void load();

    /** Indexed fingerprints in sorted order (after load()). */
    const std::map<std::string, IndexEntry> &entries() const
    {
        return entries_;
    }

    /** @return true if @p fingerprint has a complete cell indexed. */
    bool hasCell(const std::string &fingerprint) const;

    /** Health snapshot (orphanedShards is a fresh directory scan). */
    IndexHealth health() const;

    /**
     * Fold the loaded state into a fresh manifest (atomic rename) and
     * truncate the journal. Callers must guarantee no concurrent
     * writers (see the file comment).
     */
    void compact();

    /**
     * Rebuild from a full scan of cells/ and shards/, replacing the
     * loaded state, then compact(). Corrupt record files are reported
     * and, when @p quarantine is set, moved under index/quarantine/
     * (mirroring their store-relative path); valid shard files whose
     * cell is already complete are reported as orphans and left in
     * place. Same no-concurrent-writers contract as compact().
     */
    RebuildReport rebuild(bool quarantine = false);

    /** The canonical manifest bytes of the loaded state. */
    std::string encodeManifest() const;

  private:
    void setGauges() const;

    std::string root_;
    std::map<std::string, IndexEntry> entries_;
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
