/**
 * @file
 * Archive-index contract tests: load() lists exactly the record files
 * in cells/ whose header key hashes to their name -- however they got
 * there, and whatever an older archive's index files say -- a
 * long-lived index sees every change, including one made in the same
 * mtime tick as its last listing, lists nothing again over a settled
 * directory and warns about a skipped file once per version; a record
 * whose header fingerprint is not its key's is refused and skipped;
 * seeded byte mutations of a record never make load() throw or list a
 * file under a key that does not hash to its name; partial and
 * orphaned shard directories are counted from disk, and the audit
 * reports (and quarantines) corrupt records. Writers racing a reader
 * leave every cell listed (the TSan CI job runs this binary).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <thread>
#include <tuple>

#include "store/cell_key.hh"
#include "store/index.hh"
#include "store/result_store.hh"
#include "telemetry/metrics.hh"

namespace {

using namespace etc;
using namespace etc::store;

namespace fs = std::filesystem;

CellKey
sampleKey(const std::string &workload, const std::string &policy,
          unsigned errors, unsigned trials = 8)
{
    CellKey key;
    key.workload = workload;
    key.policy = policy;
    key.errors = errors;
    key.trials = trials;
    key.seed = 0xbe7cull;
    key.budgetFactor = 10.0;
    key.memoryModel = "lenient";
    key.programHash = "0xdeadbeefcafef00d";
    return key;
}

core::CellSummary
sampleSummary(unsigned trials = 8)
{
    core::CellSummary summary;
    summary.errors = 5;
    summary.policy = "protected";
    summary.trials = trials;
    summary.completed = trials > 3 ? trials - 3 : 0;
    summary.crashed = trials > 3 ? 2 : 0;
    summary.timedOut = trials > 3 ? 1 : 0;
    summary.totalInstructions = 123456789012345ull;
    summary.wallSeconds = 1.25;
    for (unsigned i = 0; i < summary.completed; ++i) {
        workloads::FidelityScore score;
        switch (i % 4) {
          case 0: score.value = 31.4159; break;
          case 1: score.value = -0.0; break;
          case 2: score.value = std::numeric_limits<double>::infinity();
                  break;
          case 3: score.value = 5e-324; break;
        }
        score.acceptable = i % 2 == 0;
        score.unit = "dB";
        summary.fidelities.push_back(score);
    }
    return summary;
}

std::string
recordName(const CellKey &key)
{
    return key.fingerprint() + ".jsonl";
}

/** Move cells/'s mtime 2 x RACY_WINDOW into the past: the directory
 *  is settled, so a listing of it is not racy. */
void
settle(const fs::path &root)
{
    fs::path cells = root / "cells";
    if (fs::exists(cells))
        fs::last_write_time(cells,
                            fs::last_write_time(cells) - 2 * RACY_WINDOW);
}

class StoreIndexTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = fs::temp_directory_path() /
                ("etc_index_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
        fs::remove_all(root_);
    }

    void TearDown() override { fs::remove_all(root_); }

    std::filesystem::path root_;
};

// An index kept across store writes (shard -> shard -> promote ->
// drop, plus a partial cell left as shards) lists what a fresh index
// and a full-scan audit find, and no write touches index/.
TEST_F(StoreIndexTest, IncrementalMatchesRebuild)
{
    ResultStore cache(root_.string());
    StoreIndex incremental(root_.string());
    incremental.load();

    // Cell A: sharded, merged, promoted, shards dropped.
    CellKey a = sampleKey("gsm", "protected", 5, 20);
    auto shard = sampleSummary(10);
    cache.storeShard(a, 0, 10, shard);
    incremental.load();
    cache.storeShard(a, 10, 20, shard);
    cache.storeCell(a, sampleSummary(20));
    incremental.load();
    cache.dropShards(a);

    // Cell B: complete in one write.
    CellKey b = sampleKey("gsm", "unprotected", 5, 20);
    cache.storeCell(b, sampleSummary(20));

    // Cell C: still partial -- shards only.
    CellKey c = sampleKey("adpcm", "protected", 3, 20);
    cache.storeShard(c, 0, 10, shard);

    // C is no entry: its shard file is the one record of it, and
    // health() reads it from disk.
    incremental.load();
    EXPECT_EQ(incremental.entries().size(), 2u);
    EXPECT_TRUE(incremental.hasCell(a.fingerprint()));
    EXPECT_TRUE(incremental.hasCell(b.fingerprint()));
    EXPECT_FALSE(incremental.hasCell(c.fingerprint()));
    auto health = incremental.health();
    EXPECT_EQ(health.cells, 2u);
    EXPECT_EQ(health.shardSets, 1u);
    EXPECT_EQ(health.shardRanges, 1u);
    EXPECT_EQ(health.orphanedShards, 0u);

    StoreIndex fresh(root_.string());
    fresh.load();
    EXPECT_EQ(fresh.entries(), incremental.entries());
    auto report = fresh.audit();
    EXPECT_EQ(report.cells, 2u);
    EXPECT_EQ(report.shardSets, 1u);
    EXPECT_TRUE(report.orphanedShards.empty());
    EXPECT_TRUE(report.corruptRecords.empty());
    EXPECT_EQ(fresh.entries(), incremental.entries());
    EXPECT_FALSE(fs::exists(root_ / "index"));
}

// Files in cells/ that are not a cell record named by its key's hash
// -- garbage, a truncated header, an empty file, a shard record, a
// valid record under another cell's name -- are skipped, never fatal.
TEST_F(StoreIndexTest, MisnamedOrGarbledCellFilesAreSkipped)
{
    ResultStore cache(root_.string());
    CellKey good = sampleKey("gsm", "protected", 5);
    cache.storeCell(good, sampleSummary());
    std::string record = encodeCellRecord(good, sampleSummary());
    CellKey stray = sampleKey("gsm", "protected", 6);
    CellKey other = sampleKey("gsm", "protected", 7);

    fs::path cells = root_ / "cells";
    std::ofstream(cells / "00112233445566ff.jsonl") << "not json\n";
    std::ofstream(cells / "0011223344556600.jsonl")
        << record.substr(0, record.find('\n') / 2);
    std::ofstream(cells / "0011223344556611.jsonl");
    std::ofstream(cells / recordName(other))
        << encodeCellRecord(stray, sampleSummary());
    std::ofstream(cells / "0011223344556622.jsonl")
        << encodeShardRecord(good, 0, 4, sampleSummary(4));
    fs::create_directory(cells / "0011223344556633.jsonl");

    StoreIndex index(root_.string());
    ASSERT_NO_THROW(index.load());
    ASSERT_EQ(index.entries().size(), 1u);
    EXPECT_EQ(index.entries().at(good.fingerprint()), good);
    EXPECT_EQ(index.health().cells, 1u);
}

// A record under its key's file name whose header names another
// fingerprint than its key's is refused by loadCell() and skipped by
// the index. Its key hashes to the file name and its checksum is
// resealed, so only the header's own fingerprint check catches it.
TEST_F(StoreIndexTest, HeaderFingerprintOtherThanItsKeysIsRefused)
{
    CellKey key = sampleKey("gsm", "protected", 5);
    CellKey other = sampleKey("gsm", "protected", 6);
    // The trailer's checksum covers every line before it.
    auto reseal = [](std::string record) {
        size_t trailer = record.rfind('\n', record.size() - 2) + 1;
        size_t fnv = record.find("\"fnv\":\"", trailer) + 7;
        record.replace(fnv, record.find('"', fnv) - fnv,
                       hexU64(fnv1a(record.data(), trailer)));
        return record;
    };
    const std::string valid = encodeCellRecord(key, sampleSummary());
    ASSERT_EQ(reseal(valid), valid);
    std::string record = valid;
    size_t at = record.find("\"fingerprint\":\"" + key.fingerprint());
    ASSERT_LT(at, record.find('\n'));
    record.replace(at + 15, key.fingerprint().size(), other.fingerprint());
    fs::create_directories(root_ / "cells");
    std::ofstream(root_ / "cells" / recordName(key), std::ios::binary)
        << reseal(record);

    ResultStore cache(root_.string());
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(cache.loadCell(key).has_value());
    StoreIndex index(root_.string());
    index.load();
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "header fingerprint does not match its key"),
              std::string::npos);
    EXPECT_TRUE(index.entries().empty());

    // The valid record under the same name is served and listed.
    std::ofstream(root_ / "cells" / recordName(key),
                  std::ios::binary | std::ios::trunc)
        << valid;
    EXPECT_TRUE(ResultStore(root_.string()).loadCell(key).has_value());
    StoreIndex fresh(root_.string());
    fresh.load();
    EXPECT_TRUE(fresh.hasCell(key.fingerprint()));
}

// A record renamed into cells/ right after a load() is listed by the
// next one: the directory's stamp moves, and where a coarse mtime
// clock would leave it unchanged (simulated by restoring the mtime
// with the entry count kept) the last listing was racy.
TEST_F(StoreIndexTest, ACellWrittenRightAfterALoadIsListedNext)
{
    ResultStore cache(root_.string());
    CellKey a = sampleKey("gsm", "protected", 1);
    CellKey b = sampleKey("gsm", "protected", 2);
    CellKey c = sampleKey("gsm", "protected", 3);
    cache.storeCell(a, sampleSummary());

    StoreIndex index(root_.string());
    index.load();
    cache.storeCell(b, sampleSummary());
    index.load();
    EXPECT_TRUE(index.hasCell(b.fingerprint()));

    fs::path cells = root_ / "cells";
    auto stamped = stampFile(cells.string());
    auto mtime = fs::last_write_time(cells);
    fs::remove(cells / recordName(a));
    cache.storeCell(c, sampleSummary());
    fs::last_write_time(cells, mtime);
    ASSERT_EQ(stampFile(cells.string()), stamped);
    index.load();
    EXPECT_TRUE(index.hasCell(c.fingerprint()));
    EXPECT_FALSE(index.hasCell(a.fingerprint()));
    EXPECT_EQ(index.entries().size(), 2u);
}

TEST_F(StoreIndexTest, RebuildQuarantinesCorruptRecords)
{
    ResultStore cache(root_.string());
    CellKey good = sampleKey("gsm", "protected", 5, 20);
    cache.storeCell(good, sampleSummary(20));
    CellKey partial = sampleKey("adpcm", "protected", 3, 20);
    cache.storeShard(partial, 0, 10, sampleSummary(10));

    // A garbage cell file and a truncated shard file.
    std::string badCell = "00112233445566ff.jsonl";
    { std::ofstream(root_ / "cells" / badCell) << "not json at all\n"; }
    auto shardDir = root_ / "shards" / partial.fingerprint();
    std::string truncated;
    {
        std::ifstream in(shardDir / "0-10.jsonl");
        std::getline(in, truncated);
    }
    { std::ofstream(shardDir / "10-20.jsonl")
          << truncated.substr(0, truncated.size() / 2); }

    StoreIndex index(root_.string());
    index.load();
    auto report = index.audit(/*quarantine=*/true);
    EXPECT_EQ(report.cells, 1u);
    EXPECT_EQ(report.shardSets, 1u);
    ASSERT_EQ(report.corruptRecords.size(), 2u);
    EXPECT_EQ(report.quarantined, 2u);

    // The corrupt files moved under index/quarantine/, mirroring
    // their store-relative paths; the good records stayed put, and
    // nothing else was written under index/.
    EXPECT_FALSE(fs::exists(root_ / "cells" / badCell));
    EXPECT_FALSE(fs::exists(shardDir / "10-20.jsonl"));
    EXPECT_TRUE(
        fs::exists(root_ / "index" / "quarantine" / "cells" / badCell));
    EXPECT_TRUE(fs::exists(root_ / "index" / "quarantine" / "shards" /
                           partial.fingerprint() / "10-20.jsonl"));
    EXPECT_TRUE(fs::exists(root_ / "cells" / recordName(good)));
    EXPECT_TRUE(fs::exists(shardDir / "0-10.jsonl"));
    std::vector<std::string> underIndex;
    for (const auto &entry : fs::directory_iterator(root_ / "index"))
        underIndex.push_back(entry.path().filename().string());
    EXPECT_EQ(underIndex, std::vector<std::string>{"quarantine"});

    // Without the flag the same corruption is only reported.
    { std::ofstream(root_ / "cells" / badCell) << "still not json\n"; }
    auto report2 = index.audit(/*quarantine=*/false);
    EXPECT_EQ(report2.corruptRecords.size(), 1u);
    EXPECT_EQ(report2.quarantined, 0u);
    EXPECT_TRUE(fs::exists(root_ / "cells" / badCell));
}

TEST_F(StoreIndexTest, RebuildReportsOrphanedShards)
{
    ResultStore cache(root_.string());
    CellKey key = sampleKey("gsm", "protected", 5, 20);
    cache.storeShard(key, 0, 10, sampleSummary(10));
    cache.storeCell(key, sampleSummary(20));
    // The cell is complete but dropShards() never ran (interrupted
    // promotion): the shard directory is an orphan, reported and left
    // in place.
    StoreIndex index(root_.string());
    index.load();
    EXPECT_EQ(index.health().orphanedShards, 1u);

    auto report = index.audit();
    EXPECT_EQ(report.cells, 1u);
    EXPECT_EQ(report.shardSets, 0u);
    ASSERT_EQ(report.orphanedShards.size(), 1u);
    EXPECT_NE(report.orphanedShards[0].find(key.fingerprint()),
              std::string::npos);
    EXPECT_TRUE(fs::exists(root_ / "shards" / key.fingerprint() /
                           "0-10.jsonl"));
}

/** @p body sealed as an older archive's journal line: a trailing
 *  "fnv" member over the unsealed bytes. */
std::string
sealed(const std::string &body)
{
    return body.substr(0, body.size() - 1) + ",\"fnv\":\"" +
           hexU64(fnv1a(body.data(), body.size())) + "\"}\n";
}

// An archive written while the index kept its own files holds
// index/manifest.jsonl and index/journal.jsonl, with "shard",
// "drop-shards" and "shards" lines, a torn line and cells that are no
// longer (or never were) in cells/. The listing is exactly cells/,
// and the old files are left as they were.
TEST_F(StoreIndexTest, OldShardLinesLoadClean)
{
    CellKey compacted = sampleKey("gsm", "protected", 5, 20);
    CellKey partial = sampleKey("gsm", "unprotected", 5, 20);
    CellKey promoted = sampleKey("adpcm", "protected", 3, 20);
    CellKey striped = sampleKey("adpcm", "unprotected", 3, 20);
    CellKey unjournaled = sampleKey("art", "protected", 1, 20);
    auto line = [](const char *kind, const CellKey &key,
                   const std::string &extra) {
        return std::string("{\"schema\":1,\"kind\":\"") + kind +
               "\",\"fingerprint\":\"" + key.fingerprint() + "\"" +
               extra + ",\"key\":" + encodeCellKeyObject(key) + "}";
    };

    fs::create_directories(root_ / "index");
    std::string manifest =
        "{\"schema\":1,\"kind\":\"index\",\"cells\":1,"
        "\"shardSets\":1}\n" +
        line("cell", compacted, "") + "\n" +
        line("shards", partial, ",\"ranges\":[[0,10]]") + "\n";
    manifest += "{\"schema\":1,\"kind\":\"end\",\"lines\":3,"
                "\"fnv\":\"" +
                hexU64(fnv1a(manifest.data(), manifest.size())) + "\"}\n";
    std::string journal =
        sealed(line("shard", promoted, ",\"lo\":0,\"hi\":10")) +
        sealed(line("shard", promoted, ",\"lo\":10,\"hi\":20")) +
        sealed(line("cell", promoted, "")) +
        sealed("{\"schema\":1,\"kind\":\"drop-shards\","
               "\"fingerprint\":\"" +
               promoted.fingerprint() + "\"}") +
        sealed(line("shard", striped, ",\"lo\":0,\"hi\":10")) +
        "{\"schema\":1,\"kind\":\"cell\",\"fing";
    std::ofstream(root_ / "index" / "manifest.jsonl") << manifest;
    std::ofstream(root_ / "index" / "journal.jsonl") << journal;

    // cells/ holds promoted and a cell no journal line names;
    // compacted's record is gone.
    ResultStore cache(root_.string());
    cache.storeCell(promoted, sampleSummary(20));
    cache.storeCell(unjournaled, sampleSummary(20));

    StoreIndex index(root_.string());
    index.load();
    ASSERT_EQ(index.entries().size(), 2u);
    EXPECT_EQ(index.entries().at(promoted.fingerprint()), promoted);
    EXPECT_EQ(index.entries().at(unjournaled.fingerprint()), unjournaled);
    EXPECT_EQ(index.health().cells, 2u);
    EXPECT_EQ(index.audit().cells, 2u);

    EXPECT_EQ(readFile((root_ / "index" / "manifest.jsonl").string()),
              manifest);
    EXPECT_EQ(readFile((root_ / "index" / "journal.jsonl").string()),
              journal);
}

std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>
healthFields(const IndexHealth &health)
{
    return {health.cells, health.shardSets, health.shardRanges,
            health.orphanedShards};
}

// A long-lived index (the daemon's) refreshed after every kind of
// archive change agrees with a fresh instance's listing, and once
// cells/ has settled (its mtime older than RACY_WINDOW) a refresh
// lists nothing: etc_index_lookup_seconds does not tick.
TEST_F(StoreIndexTest, LongLivedIndexSeesEveryChange)
{
    ResultStore cache(root_.string());
    StoreIndex live(root_.string());
    live.load(); // registers the index metrics with their buckets
    telemetry::Histogram &listings =
        telemetry::histogram("etc_index_lookup_seconds", "", {});
    auto expectFresh = [&](const std::string &step) {
        live.load();
        StoreIndex fresh(root_.string());
        fresh.load();
        EXPECT_EQ(live.entries(), fresh.entries()) << step;
        EXPECT_EQ(healthFields(live.health()),
                  healthFields(fresh.health()))
            << step;

        settle(root_);
        live.load();
        uint64_t before = listings.count();
        live.load();
        EXPECT_EQ(listings.count(), before) << step;
        EXPECT_EQ(live.entries(), fresh.entries()) << step;
    };

    expectFresh("empty store");
    CellKey a = sampleKey("gsm", "protected", 5, 20);
    cache.storeCell(a, sampleSummary(20));
    expectFresh("storeCell");
    CellKey b = sampleKey("adpcm", "protected", 3, 20);
    cache.storeShard(b, 0, 10, sampleSummary(10));
    expectFresh("storeShard");
    cache.dropShards(b);
    expectFresh("dropShards");
    CellKey c = sampleKey("adpcm", "protected", 4, 20);
    fs::path staged = root_ / "tmp" / "renamed";
    std::ofstream(staged) << encodeCellRecord(c, sampleSummary(20));
    fs::rename(staged, root_ / "cells" / recordName(c));
    expectFresh("record renamed in");
    EXPECT_TRUE(live.hasCell(c.fingerprint()));
    // A skipped file warns once per version and index: here once by
    // the live index and once by the fresh one, although the live one
    // lists cells/ twice in the step.
    fs::path garbage = root_ / "cells" / "00112233445566ff.jsonl";
    auto warningsIn = [&](const std::string &step) {
        ::testing::internal::CaptureStderr();
        expectFresh(step);
        std::string err = ::testing::internal::GetCapturedStderr();
        size_t count = 0;
        for (size_t at = 0;
             (at = err.find("skipping " + garbage.string(), at)) !=
             std::string::npos;
             ++at)
            ++count;
        return count;
    };
    std::ofstream(garbage) << "junk\n";
    EXPECT_EQ(warningsIn("garbage file"), 2u);
    EXPECT_EQ(live.entries().size(), 2u);
    std::ofstream(staged) << "other junk\n";
    fs::rename(staged, garbage);
    EXPECT_EQ(warningsIn("garbage file replaced"), 2u);
    EXPECT_EQ(live.entries().size(), 2u);
    EXPECT_EQ(StoreIndex(root_.string()).audit(true).quarantined, 1u);
    expectFresh("audit quarantined the garbage");
    fs::remove(root_ / "cells" / recordName(a));
    expectFresh("record removed");
    EXPECT_EQ(live.entries().size(), 1u);
    cache.storeShard(b, 0, 10, sampleSummary(10));
    expectFresh("partial cell");
    EXPECT_EQ(live.health().shardSets, 1u);
    fs::remove_all(root_ / "cells");
    expectFresh("cells/ deleted");
    EXPECT_TRUE(live.entries().empty());
    cache.storeCell(a, sampleSummary(20));
    expectFresh("cells/ recreated");
    EXPECT_EQ(live.entries().size(), 1u);
}

// Seeded byte mutations (flip, insert, delete, duplicate) of a valid
// record in cells/, mostly of its header line: load() never throws,
// lists the file only under the key whose hash is its name, and lists
// it whenever the header line survived intact.
TEST_F(StoreIndexTest, MutatedCellFilesNeverThrowAndListOnlyTheirKey)
{
    CellKey key = sampleKey("gsm", "protected", 5, 20);
    const std::string record = encodeCellRecord(key, sampleSummary(20));
    const std::string header = record.substr(0, record.find('\n'));
    fs::path path = root_ / "cells" / recordName(key);
    fs::create_directories(path.parent_path());

    std::mt19937_64 rng(20061025);
    auto pick = [&](size_t n) {
        return static_cast<size_t>(rng() % std::max<size_t>(n, 1));
    };
    auto mutate = [&](std::string text) {
        // Three in four edits land in the header line.
        for (size_t edits = 1 + pick(4); edits > 0; --edits) {
            size_t span = pick(4) ? header.size() + 1 : text.size();
            size_t at = pick(std::min(span, text.size()) + 1);
            switch (pick(4)) {
              case 0: // flip one bit
                if (at < text.size())
                    text[at] = static_cast<char>(text[at] ^ (1 << pick(8)));
                break;
              case 1: // insert a byte
                text.insert(at, 1, static_cast<char>(pick(256)));
                break;
              case 2: // delete a run
                if (at < text.size())
                    text.erase(at, 1 + pick(8));
                break;
              default: // duplicate a run
                if (at < text.size())
                    text.insert(pick(text.size() + 1),
                                text.substr(at, 1 + pick(16)));
                break;
            }
        }
        return text;
    };

    constexpr int MUTATIONS = 1500;
    unsigned listed = 0, intact = 0;
    for (int i = 0; i < MUTATIONS; ++i) {
        std::string mutated = mutate(record);
        std::ofstream(path, std::ios::binary | std::ios::trunc) << mutated;
        StoreIndex index(root_.string());
        ASSERT_NO_THROW(index.load()) << "mutation " << i;
        for (const auto &[fingerprint, listedKey] : index.entries()) {
            ++listed;
            ASSERT_EQ(fingerprint, key.fingerprint()) << "mutation " << i;
            ASSERT_EQ(listedKey, key) << "mutation " << i << ": " << mutated;
        }
        if (mutated.substr(0, mutated.find('\n')) == header) {
            ++intact;
            ASSERT_TRUE(index.hasCell(key.fingerprint()))
                << "mutation " << i << ": " << mutated;
        }
    }
    // Both outcomes occur, so the run exercised both paths.
    EXPECT_GT(intact, 0u);
    EXPECT_LT(listed, static_cast<unsigned>(MUTATIONS));
}

// Writers racing a reader: each writer thread stores through its own
// ResultStore (shard, cell, shard drop) while a reader's long-lived
// index keeps loading. Every listing holds only well-keyed cells, and
// the reader's final load() lists every cell. The TSan CI job runs
// this test to pin the data-race contract.
TEST_F(StoreIndexTest, ConcurrentWritersRaceAReadersLoad)
{
    constexpr int WRITERS = 4;
    constexpr int CELLS_PER_WRITER = 24;
    std::atomic<bool> go{false};
    std::atomic<int> writing{WRITERS};
    std::vector<std::thread> threads;
    for (int w = 0; w < WRITERS; ++w)
        threads.emplace_back([&, w] {
            ResultStore cache(root_.string());
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < CELLS_PER_WRITER; ++i) {
                CellKey key = sampleKey("gsm", "protected",
                                        1 + (unsigned)i, 20);
                key.seed = 0x1000u + (uint64_t)w;
                auto shard = sampleSummary(10);
                cache.storeShard(key, 0, 10, shard);
                cache.storeCell(key, sampleSummary(20));
                cache.dropShards(key);
            }
            --writing;
        });

    StoreIndex reader(root_.string());
    go = true;
    size_t listings = 0, miskeyed = 0;
    while (writing.load() > 0) {
        reader.load();
        ++listings;
        for (const auto &[fingerprint, key] : reader.entries())
            miskeyed += key.fingerprint() != fingerprint;
    }
    for (auto &t : threads)
        t.join();

    reader.load();
    EXPECT_GT(listings, 0u);
    EXPECT_EQ(miskeyed, 0u);
    EXPECT_EQ(reader.entries().size(),
              (size_t)WRITERS * CELLS_PER_WRITER);
    EXPECT_EQ(reader.audit().cells, (uint64_t)WRITERS * CELLS_PER_WRITER);
    EXPECT_FALSE(fs::exists(root_ / "index"));
}

} // namespace
