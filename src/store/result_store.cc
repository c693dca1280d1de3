#include "store/result_store.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "store/index.hh"
#include "store/json.hh"
#include "support/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace etc::store {

namespace fs = std::filesystem;

namespace {

/** Process-wide store metrics; per-instance Stats stay authoritative
 *  for orchestration decisions, these feed /v1/metricz. */
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

/** Read a whole file; nullopt if it does not exist or is unreadable. */
std::optional<std::string>
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream contents;
    contents << in.rdbuf();
    if (in.bad())
        return std::nullopt;
    std::string result = contents.str();
    storeMetrics().bytesRead.add(result.size());
    return result;
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

void
ResultStore::writeAtomically(const std::string &path,
                             const std::string &contents)
{
    fs::path target(path);
    std::error_code ec;
    fs::create_directories(target.parent_path(), ec);
    fs::path tmpDir = fs::path(root_) / "tmp";
    fs::create_directories(tmpDir, ec);

    // Unique staging name (pid + per-process counter): concurrent
    // processes sharing a cache must never stage into the same file,
    // and rename() makes whichever finishes last win -- both write
    // identical bytes for the same key anyway.
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
    storeMetrics().bytesWritten.add(contents.size());
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
        ++stats_.cellMisses;
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
        auto contents = slurp(path);
        if (!contents)
            return miss(nullptr);
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
    ++stats_.cellHits;
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
    writeAtomically(cellPath(key.fingerprint()),
                    encodeCellRecord(key, summary));
    ++stats_.cellsStored;
    storeMetrics().cellsStored.add();
    StoreIndex::journalCell(root_, key);
}

std::optional<CellRecord>
ResultStore::loadCellByFingerprint(const std::string &fingerprint)
{
    if (const CellRecord *record = readCell(fingerprint, nullptr))
        return *record;
    return std::nullopt;
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
    fs::path path = fs::path(shardDir(key)) /
                    (std::to_string(lo) + "-" + std::to_string(hi) +
                     ".jsonl");
    return fs::exists(path, ec);
}

void
ResultStore::storeShard(const CellKey &key, unsigned lo, unsigned hi,
                        const core::CellSummary &summary)
{
    telemetry::TraceSpan span("store", "shard-write");
    if (span.active())
        span.setArgs("{\"cell\":\"" + key.fingerprint() +
                     "\",\"lo\":" + std::to_string(lo) +
                     ",\"hi\":" + std::to_string(hi) + "}");
    fs::path path = fs::path(shardDir(key)) /
                    (std::to_string(lo) + "-" + std::to_string(hi) +
                     ".jsonl");
    writeAtomically(path.string(), encodeShardRecord(key, lo, hi,
                                                     summary));
    ++stats_.shardsStored;
    storeMetrics().shardsStored.add();
    StoreIndex::journalShard(root_, key, lo, hi);
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
        auto contents = slurp(entry.path());
        if (!contents)
            continue;
        try {
            shards.push_back(decodeShardRecord(*contents, &key));
            ++stats_.shardsLoaded;
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
        outcome.key = record.key;
        outcome.lo = record.lo;
        outcome.hi = record.hi;
        if (hasCell(record.key))
            return outcome; // promoted already; skip the orphan
        fs::path path = fs::path(shardDir(record.key)) /
                        (std::to_string(record.lo) + "-" +
                         std::to_string(record.hi) + ".jsonl");
        writeAtomically(path.string(), text);
        ++stats_.shardsStored;
        storeMetrics().shardsStored.add();
        StoreIndex::journalShard(root_, record.key, record.lo,
                                 record.hi);
        outcome.stored = true;
        return outcome;
    }
    if (kind == "cell") {
        CellRecord record = decodeCellRecordWithKey(text, nullptr);
        outcome.cellRecord = true;
        outcome.key = record.key;
        if (hasCell(record.key))
            return outcome; // identical bytes are already in place
        writeAtomically(cellPath(record.key.fingerprint()), text);
        ++stats_.cellsStored;
        storeMetrics().cellsStored.add();
        StoreIndex::journalCell(root_, record.key);
        outcome.stored = true;
        return outcome;
    }
    throw StoreFormatError("cannot ingest record kind '" + kind +
                           "' (expected shard or cell)");
}

void
ResultStore::dropShards(const CellKey &key)
{
    std::error_code ec;
    fs::remove_all(shardDir(key), ec);
    StoreIndex::journalDropShards(root_, key);
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
