#include "store/index.hh"

#include <chrono>
#include <filesystem>
#include <optional>
#include <system_error>

#include "store/file_io.hh"
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
    // No args: the append nests in the store/cell-write span that
    // names its cell.
    telemetry::TraceSpan span("index", "journal-append");
    uint64_t checksum = fnv1a(body.data(), body.size());
    body.resize(body.size() - 1); // strip the closing brace
    body += ",\"fnv\":" + jsonQuote(hexU64(checksum)) + "}\n";

    if (appendLine(journalPath(root).string(), body))
        indexMetrics().journalAppends.add();
    else
        warn("store index: cannot append to ",
             journalPath(root).string());
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
    // rebuild() restores the rest. The header's counts are derivable,
    // and an older archive's "shards" lines describe shard files,
    // which shards/ itself records.
    if (auto contents = readFile(manifestPath(root_))) {
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
                if (kind == "cell")
                    entries_[line.at("fingerprint").asString()] =
                        decodeCellKeyObject(line.at("key"));
                else if (kind != "index" && kind != "shards")
                    throw StoreFormatError(
                        "unknown manifest entry kind " + kind);
            }
            manifestPresent_ = true;
        } catch (const std::exception &error) {
            warn("store index: ignoring corrupt manifest ",
                 manifestPath(root_).string(), ": ", error.what());
            entries_.clear();
        }
    }

    // Fold the journal on top: each cell line indexes its cell. An
    // older archive's "shard" and "drop-shards" lines are skipped, as
    // its manifest's "shards" lines are; any other line is corrupt.
    if (auto contents = readFile(journalPath(root_))) {
        for (const std::string &line : splitLines(*contents)) {
            if (line.empty())
                continue;
            try {
                JsonValue value;
                if (!unsealLine(line, value))
                    throw StoreFormatError("torn or garbled line");
                std::string kind = value.at("kind").asString();
                if (kind == "cell") {
                    entries_[value.at("fingerprint").asString()] =
                        decodeCellKeyObject(value.at("key"));
                    ++journalEntries_;
                } else if (kind != "shard" && kind != "drop-shards") {
                    throw StoreFormatError("unknown journal entry kind " +
                                           kind);
                }
            } catch (const std::exception &) {
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
    return entries_.count(fingerprint) != 0;
}

IndexHealth
StoreIndex::health() const
{
    IndexHealth health;
    health.cells = entries_.size();
    health.journalEntries = journalEntries_;
    health.journalCorrupt = journalCorrupt_;
    health.manifestPresent = manifestPresent_;

    // A shard directory beside an indexed cell is an orphan; any other
    // is a partial cell with one range per shard file.
    std::error_code ec;
    fs::directory_iterator it(fs::path(root_) / "shards", ec);
    if (!ec) {
        for (const auto &dir : it) {
            if (!dir.is_directory(ec))
                continue;
            if (hasCell(dir.path().filename().string())) {
                ++health.orphanedShards;
                continue;
            }
            uint64_t files = 0;
            fs::directory_iterator shards(dir.path(), ec);
            if (!ec)
                for (const auto &file : shards)
                    files += file.is_regular_file(ec);
            health.shardSets += files != 0;
            health.shardRanges += files;
        }
    }
    return health;
}

std::string
StoreIndex::encodeManifest() const
{
    JsonObjectWriter header;
    header.field("schema", uint64_t{SCHEMA_VERSION})
        .field("kind", "index")
        .field("cells", uint64_t{entries_.size()});
    std::string body = header.str() + "\n";
    for (const auto &[fingerprint, key] : entries_) {
        JsonObjectWriter writer;
        writer.field("schema", uint64_t{SCHEMA_VERSION})
            .field("kind", "cell")
            .field("fingerprint", fingerprint)
            .rawField("key", encodeCellKeyObject(key));
        body += writer.str() + "\n";
    }
    JsonObjectWriter trailer;
    trailer.field("schema", uint64_t{SCHEMA_VERSION})
        .field("kind", "end")
        .field("lines", uint64_t{entries_.size() + 1})
        .field("fnv", hexU64(fnv1a(body.data(), body.size())));
    return body + trailer.str() + "\n";
}

void
StoreIndex::compact()
{
    telemetry::TraceSpan span("index", "compact");
    writeFileAtomically(root_, manifestPath(root_), encodeManifest());
    truncateFile(journalPath(root_));
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

    // Decode every regular file in the store directory @p relative; an
    // undecodable one is reported and, with @p quarantine, moved to the
    // same relative path under index/quarantine/.
    auto scan = [&](const fs::path &relative, const auto &decode) {
        std::error_code ec;
        fs::directory_iterator it(fs::path(root_) / relative, ec);
        if (ec)
            return;
        for (const auto &file : it) {
            if (!file.is_regular_file(ec))
                continue;
            auto contents = readFile(file.path());
            if (!contents)
                continue;
            try {
                decode(file.path(), *contents);
            } catch (const StoreFormatError &) {
                report.corruptRecords.push_back(file.path().string());
                if (!quarantine)
                    continue;
                fs::path target = indexDir(root_) / "quarantine" /
                                  relative / file.path().filename();
                fs::create_directories(target.parent_path(), ec);
                fs::rename(file.path(), target, ec);
                if (ec)
                    warn("store index: cannot quarantine ",
                         file.path().string(), ": ", ec.message());
                else
                    ++report.quarantined;
            }
        }
    };

    scan("cells", [&](const fs::path &path, const std::string &contents) {
        CellRecord record = decodeCellRecordWithKey(contents, nullptr);
        std::string fingerprint = record.key.fingerprint();
        if (fingerprint + ".jsonl" != path.filename().string())
            throw StoreFormatError(
                "record fingerprint does not match its file name");
        entries_[fingerprint] = std::move(record.key);
    });
    report.cells = entries_.size();

    // shards/ holds no index state: it is scanned for the report only.
    std::error_code ec;
    fs::directory_iterator shardIt(fs::path(root_) / "shards", ec);
    if (!ec) {
        for (const auto &dir : shardIt) {
            if (!dir.is_directory(ec))
                continue;
            std::string fingerprint = dir.path().filename().string();
            bool shadowed = hasCell(fingerprint), partial = false;
            scan(fs::path("shards") / fingerprint,
                 [&](const fs::path &path, const std::string &contents) {
                     if (decodeShardRecord(contents, nullptr)
                             .key.fingerprint() != fingerprint)
                         throw StoreFormatError(
                             "shard key does not match its directory");
                     // A valid shard beside a complete cell is an
                     // interrupted promotion's leftover.
                     if (shadowed)
                         report.orphanedShards.push_back(path.string());
                     else
                         partial = true;
                 });
            report.shardSets += partial;
        }
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
    indexMetrics().cells.set(static_cast<int64_t>(entries_.size()));
    indexMetrics().journalEntries.set(
        static_cast<int64_t>(journalEntries_));
}

} // namespace etc::store
