#include "store/index.hh"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <system_error>

#include "store/json.hh"
#include "support/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace etc::store {

namespace fs = std::filesystem;

namespace {

struct IndexMetrics
{
    telemetry::Gauge &cells = telemetry::gauge(
        "etc_index_cells",
        "Complete cells tracked by the secondary index");
    telemetry::Gauge &shardSets = telemetry::gauge(
        "etc_index_shard_sets",
        "Partial (shard-only) cells tracked by the secondary index");
    telemetry::Gauge &journalEntries = telemetry::gauge(
        "etc_index_journal_entries",
        "Index journal entries folded over the manifest (staleness)");
    telemetry::Counter &journalAppends = telemetry::counter(
        "etc_index_journal_appends_total",
        "Lines appended to the index journal");
    telemetry::Counter &journalCorrupt = telemetry::counter(
        "etc_index_journal_corrupt_total",
        "Torn or garbled index journal lines skipped");
    telemetry::Histogram &lookupSeconds = telemetry::histogram(
        "etc_index_lookup_seconds",
        "Wall time to read the index (manifest + journal fold); "
        "loads that find both files unchanged are not timed",
        {0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5});
    telemetry::Histogram &scanSeconds = telemetry::histogram(
        "etc_index_scan_seconds",
        "Wall time for a full-scan index rebuild",
        {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30, 120});
};

IndexMetrics &
indexMetrics()
{
    static IndexMetrics metrics;
    return metrics;
}

fs::path
indexDir(const std::string &root)
{
    return fs::path(root) / "index";
}

fs::path
journalPath(const std::string &root)
{
    return indexDir(root) / "journal.jsonl";
}

fs::path
manifestPath(const std::string &root)
{
    return indexDir(root) / "manifest.jsonl";
}

/**
 * Seal @p body (a complete single-line object) by splicing in a
 * trailing "fnv" member computed over the unsealed bytes, and append
 * it to the journal in one O_APPEND write() so concurrent writers
 * never interleave within a line. Never throws: an unwritable journal
 * warns once per call and leaves the index stale (rebuildable).
 */
void
appendJournalLine(const std::string &root, std::string body)
{
    uint64_t checksum = fnv1a(body.data(), body.size());
    body.resize(body.size() - 1); // strip the closing brace
    body += ",\"fnv\":" + jsonQuote(hexU64(checksum)) + "}\n";

    std::error_code ec;
    fs::create_directories(indexDir(root), ec);
    int fd = ::open(journalPath(root).c_str(),
                    O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) {
        warn("store index: cannot append to ",
             journalPath(root).string());
        return;
    }
    ssize_t written = ::write(fd, body.data(), body.size());
    ::close(fd);
    if (written != static_cast<ssize_t>(body.size()))
        warn("store index: short journal append to ",
             journalPath(root).string());
    else
        indexMetrics().journalAppends.add();
}

/**
 * Verify and parse one sealed line (journal entry). Returns false on
 * any malformation -- a torn tail line, garbage, or a checksum
 * mismatch -- without throwing.
 */
bool
unsealLine(const std::string &line, JsonValue &out)
{
    size_t pos = line.rfind(",\"fnv\":\"");
    if (pos == std::string::npos)
        return false;
    std::string body = line.substr(0, pos) + "}";
    try {
        JsonValue value = parseJson(line);
        if (value.at("schema").asU64() != SCHEMA_VERSION)
            return false;
        if (parseHexU64(value.at("fnv").asString()) !=
            fnv1a(body.data(), body.size()))
            return false;
        out = std::move(value);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

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

/** Same staging idiom as ResultStore::writeAtomically. */
void
writeAtomically(const std::string &root, const fs::path &target,
                const std::string &contents)
{
    std::error_code ec;
    fs::create_directories(target.parent_path(), ec);
    fs::path tmpDir = fs::path(root) / "tmp";
    fs::create_directories(tmpDir, ec);
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
            fatal("store index: cannot write ", tmp.string());
    }
    fs::rename(tmp, target, ec);
    if (ec)
        fatal("store index: cannot move ", tmp.string(), " to ",
              target.string(), ": ", ec.message());
}

} // namespace

StoreIndex::StoreIndex(std::string root) : root_(std::move(root))
{
    if (root_.empty())
        fatal("StoreIndex: empty cache directory");
}

void
StoreIndex::journalCell(const std::string &root, const CellKey &key)
{
    JsonObjectWriter writer;
    writer.field("schema", uint64_t{SCHEMA_VERSION})
        .field("kind", "cell")
        .field("fingerprint", key.fingerprint())
        .rawField("key", encodeCellKeyObject(key));
    appendJournalLine(root, writer.str());
}

void
StoreIndex::journalShard(const std::string &root, const CellKey &key,
                         unsigned lo, unsigned hi)
{
    JsonObjectWriter writer;
    writer.field("schema", uint64_t{SCHEMA_VERSION})
        .field("kind", "shard")
        .field("fingerprint", key.fingerprint())
        .field("lo", uint64_t{lo})
        .field("hi", uint64_t{hi})
        .rawField("key", encodeCellKeyObject(key));
    appendJournalLine(root, writer.str());
}

void
StoreIndex::journalDropShards(const std::string &root,
                              const CellKey &key)
{
    JsonObjectWriter writer;
    writer.field("schema", uint64_t{SCHEMA_VERSION})
        .field("kind", "drop-shards")
        .field("fingerprint", key.fingerprint());
    appendJournalLine(root, writer.str());
}

void
StoreIndex::load()
{
    // Stamp before reading: a write racing the read below changes a
    // stamp after it was taken, so the next load() reads again.
    auto manifestStamp = stampFile(manifestPath(root_).string());
    auto journalStamp = stampFile(journalPath(root_).string());
    if (loaded_ && manifestStamp == manifestStamp_ &&
        journalStamp == journalStamp_)
        return;
    loaded_ = true;
    manifestStamp_ = manifestStamp;
    journalStamp_ = journalStamp;

    telemetry::TraceSpan span("index", "load");
    auto start = std::chrono::steady_clock::now();

    entries_.clear();
    journalEntries_ = 0;
    journalCorrupt_ = 0;
    manifestPresent_ = false;

    // Manifest first: the compacted base. A corrupt manifest is
    // dropped wholesale (a partial base could never match a rebuild);
    // the journal alone may still recover recent writes, and
    // rebuild() restores the rest.
    if (auto contents = slurp(manifestPath(root_))) {
        try {
            std::vector<std::string> lines = splitLines(*contents);
            if (lines.empty())
                throw StoreFormatError("empty manifest");
            JsonValue trailer = parseJson(lines.back());
            if (trailer.at("schema").asU64() != SCHEMA_VERSION ||
                trailer.at("kind").asString() != "end" ||
                trailer.at("lines").asU64() != lines.size() - 1)
                throw StoreFormatError("bad manifest trailer");
            size_t bodySize =
                contents->size() - (lines.back().size() + 1);
            if (parseHexU64(trailer.at("fnv").asString()) !=
                fnv1a(contents->data(), bodySize))
                throw StoreFormatError("manifest checksum mismatch");
            for (size_t i = 0; i + 1 < lines.size(); ++i) {
                JsonValue line = parseJson(lines[i]);
                if (line.at("schema").asU64() != SCHEMA_VERSION)
                    throw StoreFormatError("manifest schema mismatch");
                std::string kind = line.at("kind").asString();
                if (kind == "index")
                    continue; // header: counts are derivable
                IndexEntry entry;
                entry.key = decodeCellKeyObject(line.at("key"));
                if (kind == "cell") {
                    entry.complete = true;
                } else if (kind == "shards") {
                    for (const JsonValue &range :
                         line.at("ranges").elements)
                        entry.shardRanges.emplace(
                            range.elements.at(0).asU32(),
                            range.elements.at(1).asU32());
                } else {
                    throw StoreFormatError(
                        "unknown manifest entry kind " + kind);
                }
                entries_[line.at("fingerprint").asString()] =
                    std::move(entry);
            }
            manifestPresent_ = true;
        } catch (const std::exception &error) {
            warn("store index: ignoring corrupt manifest ",
                 manifestPath(root_).string(), ": ", error.what());
            entries_.clear();
        }
    }

    // Fold the journal on top. These rules mirror what a rescan of
    // the store observes, keeping incremental == rebuild:
    //   cell        -> complete entry; any shard ranges are gone
    //   shard       -> range added unless the cell is complete
    //   drop-shards -> a shard-only entry disappears entirely
    if (auto contents = slurp(journalPath(root_))) {
        for (const std::string &line : splitLines(*contents)) {
            if (line.empty())
                continue;
            JsonValue value;
            if (!unsealLine(line, value)) {
                ++journalCorrupt_;
                indexMetrics().journalCorrupt.add();
                continue;
            }
            try {
                ++journalEntries_;
                std::string kind = value.at("kind").asString();
                std::string fingerprint =
                    value.at("fingerprint").asString();
                if (kind == "cell") {
                    IndexEntry &entry = entries_[fingerprint];
                    entry.key = decodeCellKeyObject(value.at("key"));
                    entry.complete = true;
                    entry.shardRanges.clear();
                } else if (kind == "shard") {
                    IndexEntry &entry = entries_[fingerprint];
                    if (!entry.complete) {
                        entry.key =
                            decodeCellKeyObject(value.at("key"));
                        entry.shardRanges.emplace(
                            value.at("lo").asU32(),
                            value.at("hi").asU32());
                    }
                } else if (kind == "drop-shards") {
                    auto it = entries_.find(fingerprint);
                    if (it != entries_.end() && !it->second.complete)
                        entries_.erase(it);
                } else {
                    --journalEntries_;
                    ++journalCorrupt_;
                    indexMetrics().journalCorrupt.add();
                }
            } catch (const std::exception &) {
                --journalEntries_;
                ++journalCorrupt_;
                indexMetrics().journalCorrupt.add();
            }
        }
    }

    setGauges();
    indexMetrics().lookupSeconds.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
}

bool
StoreIndex::hasCell(const std::string &fingerprint) const
{
    auto it = entries_.find(fingerprint);
    return it != entries_.end() && it->second.complete;
}

IndexHealth
StoreIndex::health() const
{
    IndexHealth health;
    for (const auto &[fingerprint, entry] : entries_) {
        if (entry.complete)
            ++health.cells;
        else
            ++health.shardSets;
        health.shardRanges += entry.shardRanges.size();
    }
    health.journalEntries = journalEntries_;
    health.journalCorrupt = journalCorrupt_;
    health.manifestPresent = manifestPresent_;

    std::error_code ec;
    fs::directory_iterator it(fs::path(root_) / "shards", ec);
    if (!ec) {
        for (const auto &dir : it) {
            if (!dir.is_directory(ec))
                continue;
            if (hasCell(dir.path().filename().string()))
                ++health.orphanedShards;
        }
    }
    return health;
}

std::string
StoreIndex::encodeManifest() const
{
    uint64_t cells = 0, shardSets = 0;
    for (const auto &[fingerprint, entry] : entries_) {
        (void)fingerprint;
        entry.complete ? ++cells : ++shardSets;
    }

    std::string body;
    {
        JsonObjectWriter header;
        header.field("schema", uint64_t{SCHEMA_VERSION})
            .field("kind", "index")
            .field("cells", cells)
            .field("shardSets", shardSets);
        body = header.str() + "\n";
    }
    uint64_t lines = 1;
    for (const auto &[fingerprint, entry] : entries_) {
        JsonObjectWriter writer;
        writer.field("schema", uint64_t{SCHEMA_VERSION})
            .field("kind", entry.complete ? "cell" : "shards")
            .field("fingerprint", fingerprint);
        if (!entry.complete) {
            std::string ranges = "[";
            for (const auto &[lo, hi] : entry.shardRanges) {
                if (ranges.size() > 1)
                    ranges += ',';
                ranges += '[';
                ranges += std::to_string(lo);
                ranges += ',';
                ranges += std::to_string(hi);
                ranges += ']';
            }
            ranges += "]";
            writer.rawField("ranges", ranges);
        }
        writer.rawField("key", encodeCellKeyObject(entry.key));
        body += writer.str() + "\n";
        ++lines;
    }
    JsonObjectWriter trailer;
    trailer.field("schema", uint64_t{SCHEMA_VERSION})
        .field("kind", "end")
        .field("lines", lines)
        .field("fnv", hexU64(fnv1a(body.data(), body.size())));
    body += trailer.str() + "\n";
    return body;
}

void
StoreIndex::compact()
{
    telemetry::TraceSpan span("index", "compact");
    writeAtomically(root_, manifestPath(root_), encodeManifest());
    std::error_code ec;
    fs::create_directories(indexDir(root_), ec);
    std::ofstream truncate(journalPath(root_),
                           std::ios::binary | std::ios::trunc);
    journalEntries_ = 0;
    journalCorrupt_ = 0;
    manifestPresent_ = true;
    setGauges();
}

RebuildReport
StoreIndex::rebuild(bool quarantine)
{
    telemetry::TraceSpan span("index", "rebuild");
    auto start = std::chrono::steady_clock::now();

    RebuildReport report;
    entries_.clear();
    journalEntries_ = 0;
    journalCorrupt_ = 0;

    auto quarantineFile = [&](const fs::path &path,
                              const fs::path &relative) {
        report.corruptRecords.push_back(path.string());
        if (!quarantine)
            return;
        fs::path target = indexDir(root_) / "quarantine" / relative;
        std::error_code ec;
        fs::create_directories(target.parent_path(), ec);
        fs::rename(path, target, ec);
        if (ec)
            warn("store index: cannot quarantine ", path.string(),
                 ": ", ec.message());
        else
            ++report.quarantined;
    };

    std::error_code ec;
    fs::directory_iterator cellIt(fs::path(root_) / "cells", ec);
    if (!ec) {
        for (const auto &file : cellIt) {
            if (!file.is_regular_file(ec))
                continue;
            auto contents = slurp(file.path());
            if (!contents)
                continue;
            try {
                CellRecord record =
                    decodeCellRecordWithKey(*contents, nullptr);
                std::string fingerprint = record.key.fingerprint();
                if (fingerprint + ".jsonl" !=
                    file.path().filename().string())
                    throw StoreFormatError("record fingerprint does "
                                           "not match its file name");
                IndexEntry &entry = entries_[fingerprint];
                entry.key = std::move(record.key);
                entry.complete = true;
            } catch (const StoreFormatError &) {
                quarantineFile(file.path(),
                               fs::path("cells") /
                                   file.path().filename());
            }
        }
    }

    fs::directory_iterator shardIt(fs::path(root_) / "shards", ec);
    if (!ec) {
        for (const auto &dir : shardIt) {
            if (!dir.is_directory(ec))
                continue;
            std::string fingerprint = dir.path().filename().string();
            bool shadowed = hasCell(fingerprint);
            fs::directory_iterator fileIt(dir.path(), ec);
            if (ec)
                continue;
            for (const auto &file : fileIt) {
                if (!file.is_regular_file(ec))
                    continue;
                auto contents = slurp(file.path());
                if (!contents)
                    continue;
                try {
                    ShardRecord shard =
                        decodeShardRecord(*contents, nullptr);
                    if (shard.key.fingerprint() != fingerprint)
                        throw StoreFormatError(
                            "shard key does not match its directory");
                    if (shadowed) {
                        // Valid but already superseded by a complete
                        // cell: an interrupted promotion's leftovers.
                        report.orphanedShards.push_back(
                            file.path().string());
                        continue;
                    }
                    IndexEntry &entry = entries_[fingerprint];
                    entry.key = std::move(shard.key);
                    entry.shardRanges.emplace(shard.lo, shard.hi);
                } catch (const StoreFormatError &) {
                    quarantineFile(file.path(),
                                   fs::path("shards") / fingerprint /
                                       file.path().filename());
                }
            }
        }
    }

    for (const auto &[fingerprint, entry] : entries_) {
        (void)fingerprint;
        entry.complete ? ++report.cells : ++report.shardSets;
    }
    compact();
    indexMetrics().scanSeconds.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    return report;
}

void
StoreIndex::setGauges() const
{
    int64_t cells = 0, shardSets = 0;
    for (const auto &[fingerprint, entry] : entries_) {
        (void)fingerprint;
        entry.complete ? ++cells : ++shardSets;
    }
    indexMetrics().cells.set(cells);
    indexMetrics().shardSets.set(shardSets);
    indexMetrics().journalEntries.set(
        static_cast<int64_t>(journalEntries_));
}

} // namespace etc::store
