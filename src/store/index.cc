#include "store/index.hh"

#include <chrono>
#include <filesystem>
#include <set>
#include <system_error>

#include "store/file_io.hh"
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
    telemetry::Histogram &lookupSeconds = telemetry::histogram(
        "etc_index_lookup_seconds",
        "Wall time to list cells/ and decode the headers of new "
        "records; loads that find the directory settled and unchanged "
        "are not timed",
        {0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5});
    telemetry::Histogram &scanSeconds = telemetry::histogram(
        "etc_index_scan_seconds",
        "Wall time for a full-scan audit (etc_lab reindex)",
        {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30, 120});
};

IndexMetrics &
indexMetrics()
{
    static IndexMetrics metrics;
    return metrics;
}

} // namespace

StoreIndex::StoreIndex(std::string root) : root_(std::move(root))
{
    if (root_.empty())
        fatal("StoreIndex: empty cache directory");
}

void
StoreIndex::load()
{
    // The clock before the stamp, and the stamp before the listing: a
    // cell renamed in after the stamp either moves it or finds this
    // listing racy, and either way the next load() lists again.
    auto now = std::chrono::system_clock::now().time_since_epoch();
    fs::path dir = fs::path(root_) / "cells";
    auto stamp = stampFile(dir.string());
    if (loaded_ && stamp == stamp_ && !racy_)
        return;
    loaded_ = true;
    stamp_ = stamp;
    racy_ = stamp && now - std::chrono::nanoseconds(stamp->mtimeNs) <
                         RACY_WINDOW;

    telemetry::TraceSpan span("index", "load");
    auto start = std::chrono::steady_clock::now();

    // A file listed before keeps its entry: its name is the hash of
    // the key its header holds. A file skipped before stays skipped,
    // unread past its first line, while its stamp holds. Any other
    // file's header is decoded.
    std::map<std::string, CellKey> listed;
    std::map<std::string, FileStamp> skipped;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        const fs::path &path = it->path();
        auto known = entries_.find(path.stem().string());
        if (known != entries_.end() && path.extension() == ".jsonl") {
            listed.insert(entries_.extract(known));
            continue;
        }
        std::error_code typeError;
        if (!it->is_regular_file(typeError))
            continue;
        auto header = readFirstLine(path.string());
        if (!header)
            continue; // removed since the listing, or empty
        std::string name = path.filename().string();
        auto seen = skipped_.find(name);
        if (seen != skipped_.end() && seen->second == header->stamp) {
            skipped.insert(skipped_.extract(seen));
            continue;
        }
        try {
            CellKey key = decodeCellRecordKey(header->line);
            std::string fingerprint = key.fingerprint();
            if (fingerprint + ".jsonl" != name)
                throw StoreFormatError(
                    "record key does not hash to its file name");
            listed.emplace(std::move(fingerprint), std::move(key));
        } catch (const StoreFormatError &error) {
            warn("store index: skipping ", path.string(), ": ",
                 error.what());
            skipped.emplace(std::move(name), header->stamp);
        }
    }
    entries_ = std::move(listed);
    skipped_ = std::move(skipped);

    indexMetrics().cells.set(static_cast<int64_t>(entries_.size()));
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

AuditReport
StoreIndex::audit(bool quarantine) const
{
    telemetry::TraceSpan span("index", "audit");
    auto start = std::chrono::steady_clock::now();

    AuditReport report;
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
                fs::path target = fs::path(root_) / "index" /
                                  "quarantine" / relative /
                                  file.path().filename();
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

    std::set<std::string> cells;
    scan("cells", [&](const fs::path &path, const std::string &contents) {
        std::string fingerprint =
            decodeCellRecordWithKey(contents, nullptr).key.fingerprint();
        if (fingerprint + ".jsonl" != path.filename().string())
            throw StoreFormatError(
                "record fingerprint does not match its file name");
        cells.insert(std::move(fingerprint));
    });
    report.cells = cells.size();

    std::error_code ec;
    fs::directory_iterator shardIt(fs::path(root_) / "shards", ec);
    if (!ec) {
        for (const auto &dir : shardIt) {
            if (!dir.is_directory(ec))
                continue;
            std::string fingerprint = dir.path().filename().string();
            bool shadowed = cells.count(fingerprint) != 0, partial = false;
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
    indexMetrics().scanSeconds.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    return report;
}

} // namespace etc::store
