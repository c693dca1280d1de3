/**
 * @file
 * Versioned JSONL codec for persisted campaign results.
 *
 * A record file is a sequence of single-line JSON objects, every line
 * carrying the schema version:
 *
 *   {"schema":1,"kind":"cell","fingerprint":...,"key":{...}}       header
 *   {"schema":1,"kind":"summary","trials":...,"completed":...}     tallies
 *   {"schema":1,"kind":"fidelity","bits":...,"acceptable":...}     per trial
 *   {"schema":1,"kind":"end","lines":N}                            trailer
 *
 * Shard records ("kind":"shard") additionally carry the half-open
 * trial range [lo, hi) they cover. Fidelity values are stored as
 * IEEE-754 bit patterns (plus a human-readable mirror), so a decoded
 * summary renders figures bit-identically to the in-memory one.
 *
 * The key object's "mode" member carries the injection policy name;
 * non-legacy policies add a "policy" member with the descriptor hash.
 * Records written before the policy layer have neither hash nor
 * non-legacy names, so they decode unchanged (the hash member is
 * optional on read).
 *
 * The trailer makes truncation detectable: a file that was cut off
 * mid-write is missing its "end" line (or has a wrong line count) and
 * is rejected with StoreFormatError -- corrupt or truncated cache
 * entries are reported and recomputed, never crash and never silently
 * alias a different cell.
 */

#ifndef ETC_STORE_RECORD_HH
#define ETC_STORE_RECORD_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "core/study.hh"
#include "store/cell_key.hh"

namespace etc::store {

/** The record schema this build reads and writes. */
constexpr unsigned SCHEMA_VERSION = 1;

/**
 * Thrown when a record is malformed, truncated, from an unsupported
 * schema version, or does not match the requested key.
 */
class StoreFormatError : public std::runtime_error
{
  public:
    explicit StoreFormatError(const std::string &msg)
        : std::runtime_error("result-store schema v" +
                             std::to_string(SCHEMA_VERSION) + ": " + msg)
    {}
};

/** One persisted shard: a cell's results over trials [lo, hi). */
struct ShardRecord
{
    CellKey key;
    unsigned lo = 0;
    unsigned hi = 0;
    core::CellSummary summary;
};

/** One decoded complete cell record: its key plus summary. */
struct CellRecord
{
    CellKey key;
    core::CellSummary summary;
};

/** @return the memory-model name used in keys. */
const char *memoryModelName(sim::MemoryModel model);

class JsonValue;

/**
 * Encode @p key as the record header's single-line key object (the
 * "mode"/"policy" member layout documented above).
 */
std::string encodeCellKeyObject(const CellKey &key);

/** Decode a key object; throws JsonError on missing/mistyped members
 *  and std::invalid_argument on malformed hex literals. */
CellKey decodeCellKeyObject(const JsonValue &object);

/** Encode a complete cell record (JSONL text, newline-terminated). */
std::string encodeCellRecord(const CellKey &key,
                             const core::CellSummary &summary);

/** Encode a shard record covering trials [lo, hi). */
std::string encodeShardRecord(const CellKey &key, unsigned lo,
                              unsigned hi,
                              const core::CellSummary &summary);

/**
 * Decode a cell record.
 *
 * @param text     the record file's contents
 * @param expected if non-null, the record's key must match it
 * @throws StoreFormatError on any malformation, truncation, schema
 *         mismatch, or key mismatch
 */
core::CellSummary decodeCellRecord(const std::string &text,
                                   const CellKey *expected);

/**
 * Decode a cell record keeping its stored key (for callers that only
 * know the on-disk fingerprint, e.g. the campaign service's
 * GET /v1/cells/<key>); same validation as decodeCellRecord().
 */
CellRecord decodeCellRecordWithKey(const std::string &text,
                                   const CellKey *expected);

/**
 * Decode the key of a cell record from its header line alone (the
 * record file's first line, without its newline): a "cell" header of
 * this schema whose fingerprint member is its key's. Nothing past the
 * header is read or checked -- this is how the archive index
 * (index.hh) lists cells; readers decode the whole record.
 *
 * @throws StoreFormatError on any malformation
 */
CellKey decodeCellRecordKey(const std::string &headerLine);

/** Decode a shard record; same validation as decodeCellRecord(). */
ShardRecord decodeShardRecord(const std::string &text,
                              const CellKey *expected);

/**
 * Merge shard summaries into the summary of trials [lo, hi).
 *
 * Requires the shards to tile [lo, hi) exactly (contiguous,
 * non-overlapping, complete); throws StoreFormatError otherwise.
 * Counters sum exactly and fidelity vectors concatenate in trial
 * order, so the merged summary is bit-identical to the summary of an
 * uninterrupted run over the range.
 */
core::CellSummary mergeShardSummaries(const CellKey &key,
                                      std::vector<ShardRecord> shards,
                                      unsigned lo, unsigned hi);

/** mergeShardSummaries() over the whole cell, [0, key.trials). */
core::CellSummary mergeShardSummaries(const CellKey &key,
                                      std::vector<ShardRecord> shards);

} // namespace etc::store

#endif // ETC_STORE_RECORD_HH
