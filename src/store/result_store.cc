#include "store/result_store.hh"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "store/json.hh"
#include "support/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace etc::store {

namespace fs = std::filesystem;

namespace {

/** Process-wide store metrics (/v1/metricz, the benchmark's probe).
 *  The byte counters count record I/O only, never the index's
 *  listing or audit. */
struct StoreMetrics
{
    telemetry::Counter &cellHits = telemetry::counter(
        "etc_store_cache_hits_total",
        "Cell records served from the result store");
    telemetry::Counter &cellMisses = telemetry::counter(
        "etc_store_cache_misses_total",
        "Cell lookups that missed the result store");
    telemetry::Counter &cellsStored = telemetry::counter(
        "etc_store_cells_stored_total",
        "Cell records written to the result store");
    telemetry::Counter &shardsLoaded = telemetry::counter(
        "etc_store_shards_loaded_total",
        "Shard records read back from the result store");
    telemetry::Counter &shardsStored = telemetry::counter(
        "etc_store_shards_stored_total",
        "Shard records written to the result store");
    telemetry::Counter &bytesRead = telemetry::counter(
        "etc_store_bytes_read_total",
        "Bytes read from result-store files");
    telemetry::Counter &bytesWritten = telemetry::counter(
        "etc_store_bytes_written_total",
        "Bytes written to result-store files");
    telemetry::Counter &corruptRecords = telemetry::counter(
        "etc_store_corrupt_records_total",
        "Records rejected by the corruption-detecting codec");
};

StoreMetrics &
storeMetrics()
{
    static StoreMetrics metrics;
    return metrics;
}

/**
 * Reduce shard records to a maximal prefix-tiling subset: sorted by
 * range, dropping shards that overlap the already-covered prefix
 * (leftovers of an incompatible split). The result may still have
 * gaps.
 */
std::vector<ShardRecord>
selectPrefixTiling(std::vector<ShardRecord> shards)
{
    std::sort(shards.begin(), shards.end(),
              [](const ShardRecord &a, const ShardRecord &b) {
                  return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
              });
    std::vector<ShardRecord> kept;
    unsigned covered = 0;
    for (auto &shard : shards) {
        if (shard.lo < covered)
            continue;
        covered = shard.hi;
        kept.push_back(std::move(shard));
    }
    return kept;
}

} // namespace

ResultStore::ResultStore(std::string root) : root_(std::move(root))
{
    if (root_.empty())
        fatal("ResultStore: empty cache directory");
}

std::string
ResultStore::cellPath(const std::string &fingerprint) const
{
    return (fs::path(root_) / "cells" / (fingerprint + ".jsonl"))
        .string();
}

std::string
ResultStore::shardDir(const CellKey &key) const
{
    return (fs::path(root_) / "shards" / key.fingerprint()).string();
}

std::string
ResultStore::shardPath(const CellKey &key, unsigned lo, unsigned hi) const
{
    return (fs::path(shardDir(key)) /
            (std::to_string(lo) + "-" + std::to_string(hi) + ".jsonl"))
        .string();
}

void
ResultStore::writeRecord(const CellKey &key, unsigned lo, unsigned hi,
                         const std::string &text)
{
    bool shard = hi != 0;
    telemetry::TraceSpan span("store", shard ? "shard-write" : "cell-write");
    if (span.active())
        span.setArgs("{\"cell\":\"" + key.fingerprint() + "\"" +
                     (shard ? ",\"lo\":" + std::to_string(lo) +
                                  ",\"hi\":" + std::to_string(hi)
                            : "") +
                     "}");
    writeFileAtomically(root_,
                        shard ? shardPath(key, lo, hi)
                              : cellPath(key.fingerprint()),
                        text);
    storeMetrics().bytesWritten.add(text.size());
    (shard ? storeMetrics().shardsStored : storeMetrics().cellsStored).add();
}

bool
ResultStore::hasCell(const CellKey &key) const
{
    return hasCellByFingerprint(key.fingerprint());
}

const CellRecord *
ResultStore::readCell(const std::string &fingerprint,
                      const CellKey *expected)
{
    std::string path = cellPath(fingerprint);
    auto miss = [&](const char *unreadable) -> const CellRecord * {
        if (unreadable) {
            warn("result store: ignoring unreadable cell record ", path,
                 ": ", unreadable);
            storeMetrics().corruptRecords.add();
        }
        storeMetrics().cellMisses.add();
        return nullptr;
    };

    // Stamp before reading: a record renamed into place while the
    // read below runs has a new stamp, so the next call reads again.
    auto stamp = stampFile(path);
    auto it = memo_.find(fingerprint);
    if (it != memo_.end() && (!stamp || it->second.stamp != *stamp)) {
        memo_.erase(it);
        it = memo_.end();
    }
    if (!stamp)
        return miss(nullptr);
    if (it == memo_.end()) {
        auto contents = readFile(path);
        if (!contents)
            return miss(nullptr);
        storeMetrics().bytesRead.add(contents->size());
        CellRecord record;
        try {
            record = decodeCellRecordWithKey(*contents, nullptr);
            if (record.key.fingerprint() != fingerprint)
                throw StoreFormatError(
                    "record fingerprint does not match its file name");
        } catch (const StoreFormatError &error) {
            return miss(error.what());
        }
        if (memo_.size() >= CELL_MEMO_CAP)
            memo_.clear();
        it = memo_.emplace(fingerprint,
                           MemoEntry{*stamp, std::move(record)})
                 .first;
    }
    const CellRecord &record = it->second.record;
    if (expected && !(record.key == *expected))
        return miss(StoreFormatError("record key mismatch: stored " +
                                     record.key.canonical() +
                                     ", requested " +
                                     expected->canonical())
                        .what());
    storeMetrics().cellHits.add();
    return &record;
}

std::optional<core::CellSummary>
ResultStore::loadCell(const CellKey &key)
{
    if (const CellRecord *record = readCell(key.fingerprint(), &key))
        return record->summary;
    return std::nullopt;
}

void
ResultStore::storeCell(const CellKey &key,
                       const core::CellSummary &summary)
{
    writeRecord(key, 0, 0, encodeCellRecord(key, summary));
}

bool
ResultStore::hasCellByFingerprint(
    const std::string &fingerprint) const
{
    std::error_code ec;
    return fs::exists(cellPath(fingerprint), ec);
}

bool
ResultStore::hasShard(const CellKey &key, unsigned lo, unsigned hi) const
{
    std::error_code ec;
    return fs::exists(shardPath(key, lo, hi), ec);
}

void
ResultStore::storeShard(const CellKey &key, unsigned lo, unsigned hi,
                        const core::CellSummary &summary)
{
    writeRecord(key, lo, hi, encodeShardRecord(key, lo, hi, summary));
}

std::vector<ShardRecord>
ResultStore::loadShards(const CellKey &key)
{
    std::vector<ShardRecord> shards;
    std::error_code ec;
    fs::directory_iterator it(shardDir(key), ec);
    if (ec)
        return shards;
    for (const auto &entry : it) {
        if (!entry.is_regular_file(ec))
            continue;
        auto contents = readFile(entry.path());
        if (!contents)
            continue;
        storeMetrics().bytesRead.add(contents->size());
        try {
            shards.push_back(decodeShardRecord(*contents, &key));
            storeMetrics().shardsLoaded.add();
        } catch (const StoreFormatError &error) {
            warn("result store: ignoring unreadable shard ",
                 entry.path().string(), ": ", error.what());
            storeMetrics().corruptRecords.add();
        }
    }
    std::sort(shards.begin(), shards.end(),
              [](const ShardRecord &a, const ShardRecord &b) {
                  return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
              });
    return shards;
}

ResultStore::IngestOutcome
ResultStore::ingestRecord(const std::string &text)
{
    // Peek the header's kind before dispatching to the strict
    // decoder, so a cell pushed to a shard path (or vice versa) gets
    // a precise error instead of a kind-mismatch from the wrong
    // decoder.
    std::string kind;
    try {
        size_t newline = text.find('\n');
        auto header = parseJson(text.substr(
            0, newline == std::string::npos ? text.size() : newline));
        kind = header.at("kind").asString();
    } catch (const JsonError &error) {
        throw StoreFormatError(
            std::string("unreadable record header: ") + error.what());
    }

    IngestOutcome outcome;
    if (kind == "shard") {
        ShardRecord record = decodeShardRecord(text, nullptr);
        outcome.key = std::move(record.key);
        outcome.lo = record.lo;
        outcome.hi = record.hi;
    } else if (kind == "cell") {
        outcome.cellRecord = true;
        outcome.key = decodeCellRecordWithKey(text, nullptr).key;
    } else {
        throw StoreFormatError("cannot ingest record kind '" + kind +
                               "' (expected shard or cell)");
    }
    // A stored cell holds these very bytes already, or supersedes
    // this shard, which would only orphan a file next to it.
    if (!hasCell(outcome.key)) {
        writeRecord(outcome.key, outcome.lo, outcome.hi, text);
        outcome.stored = true;
    }
    return outcome;
}

void
ResultStore::dropShards(const CellKey &key)
{
    std::error_code ec;
    fs::remove_all(shardDir(key), ec);
}

core::CellSummary
ResultStore::promoteShards(const CellKey &key,
                           std::vector<ShardRecord> shards)
{
    telemetry::TraceSpan span("store", "promote");
    if (span.active())
        span.setArgs("{\"cell\":\"" + key.fingerprint() + "\"}");
    auto summary =
        mergeShardSummaries(key, selectPrefixTiling(std::move(shards)));
    storeCell(key, summary);
    dropShards(key);
    return summary;
}

} // namespace etc::store
