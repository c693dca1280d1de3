/**
 * @file
 * Secondary-index contract tests: incremental maintenance (journal
 * appends from cell-record writes) folds to the byte-identical
 * manifest a from-scratch rebuild produces, partial and orphaned
 * shard directories are counted from disk, torn journal lines and
 * corrupt record files are counted/quarantined instead of crashing,
 * an older archive's shard lines load clean, and concurrent writers
 * keep the journal decodable (the TSan CI job runs this binary).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
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

    std::string
    manifestOf(StoreIndex &index)
    {
        index.load();
        return index.encodeManifest();
    }

    std::filesystem::path root_;
};

// The core determinism contract: an index maintained incrementally by
// store writes (shard -> shard -> promote -> drop, plus a partial
// cell left as shards) must encode the byte-identical manifest a
// full-scan rebuild produces -- queries may trust either path.
TEST_F(StoreIndexTest, IncrementalMatchesRebuild)
{
    ResultStore cache(root_.string());

    // Cell A: sharded, merged, promoted, shards dropped.
    CellKey a = sampleKey("gsm", "protected", 5, 20);
    auto shard = sampleSummary(10);
    cache.storeShard(a, 0, 10, shard);
    cache.storeShard(a, 10, 20, shard);
    cache.storeCell(a, sampleSummary(20));
    cache.dropShards(a);

    // Cell B: complete in one write.
    CellKey b = sampleKey("gsm", "unprotected", 5, 20);
    cache.storeCell(b, sampleSummary(20));

    // Cell C: still partial -- shards only.
    CellKey c = sampleKey("adpcm", "protected", 3, 20);
    cache.storeShard(c, 0, 10, shard);

    // C is no entry: its shard file is the one record of it, and
    // health() reads it from disk.
    StoreIndex incremental(root_.string());
    std::string viaJournal = manifestOf(incremental);
    EXPECT_EQ(incremental.entries().size(), 2u);
    EXPECT_TRUE(incremental.hasCell(a.fingerprint()));
    EXPECT_TRUE(incremental.hasCell(b.fingerprint()));
    EXPECT_FALSE(incremental.hasCell(c.fingerprint()));
    auto health = incremental.health();
    EXPECT_EQ(health.cells, 2u);
    EXPECT_EQ(health.shardSets, 1u);
    EXPECT_EQ(health.shardRanges, 1u);
    EXPECT_EQ(health.orphanedShards, 0u);

    StoreIndex rebuilt(root_.string());
    rebuilt.load();
    auto report = rebuilt.rebuild();
    EXPECT_EQ(report.cells, 2u);
    EXPECT_EQ(report.shardSets, 1u);
    EXPECT_TRUE(report.orphanedShards.empty());
    EXPECT_TRUE(report.corruptRecords.empty());
    EXPECT_EQ(manifestOf(rebuilt), viaJournal);

    // Compacting the incremental index must be a fixed point: the
    // reloaded state encodes the same bytes again.
    incremental.load();
    incremental.compact();
    StoreIndex reloaded(root_.string());
    EXPECT_EQ(manifestOf(reloaded), viaJournal);
    EXPECT_TRUE(reloaded.health().manifestPresent);
    EXPECT_EQ(reloaded.health().journalEntries, 0u);
}

TEST_F(StoreIndexTest, TornJournalLineIsCountedNotFatal)
{
    ResultStore cache(root_.string());
    cache.storeCell(sampleKey("gsm", "protected", 5), sampleSummary());

    // A torn/garbled final line (no checksum seal) and a sealed line
    // whose body was tampered with must both be skipped and counted.
    {
        std::ofstream journal(root_ / "index" / "journal.jsonl",
                              std::ios::app);
        journal << "{\"schema\":1,\"kind\":\"cell\",\"fing";
        journal << '\n';
        journal << "{\"schema\":1,\"kind\":\"cell\",\"tampered\":true,"
                   "\"fnv\":\"0x0\"}\n";
    }

    StoreIndex index(root_.string());
    index.load();
    EXPECT_EQ(index.entries().size(), 1u);
    EXPECT_EQ(index.health().journalCorrupt, 2u);
    EXPECT_EQ(index.health().cells, 1u);
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
    auto report = index.rebuild(/*quarantine=*/true);
    EXPECT_EQ(report.cells, 1u);
    EXPECT_EQ(report.shardSets, 1u);
    ASSERT_EQ(report.corruptRecords.size(), 2u);
    EXPECT_EQ(report.quarantined, 2u);

    // The corrupt files moved under index/quarantine/, mirroring
    // their store-relative paths; the good records stayed put.
    EXPECT_FALSE(fs::exists(root_ / "cells" / badCell));
    EXPECT_FALSE(fs::exists(shardDir / "10-20.jsonl"));
    EXPECT_TRUE(
        fs::exists(root_ / "index" / "quarantine" / "cells" / badCell));
    EXPECT_TRUE(fs::exists(root_ / "index" / "quarantine" / "shards" /
                           partial.fingerprint() / "10-20.jsonl"));
    EXPECT_TRUE(fs::exists(root_ / "cells" /
                           (good.fingerprint() + ".jsonl")));
    EXPECT_TRUE(fs::exists(shardDir / "0-10.jsonl"));

    // Without the flag the same corruption is only reported.
    { std::ofstream(root_ / "cells" / badCell) << "still not json\n"; }
    auto report2 = index.rebuild(/*quarantine=*/false);
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

    auto report = index.rebuild();
    EXPECT_EQ(report.cells, 1u);
    EXPECT_EQ(report.shardSets, 0u);
    ASSERT_EQ(report.orphanedShards.size(), 1u);
    EXPECT_NE(report.orphanedShards[0].find(key.fingerprint()),
              std::string::npos);
    EXPECT_TRUE(fs::exists(root_ / "shards" / key.fingerprint() /
                           "0-10.jsonl"));
}

/** @p body sealed as a journal line: a trailing "fnv" member over
 *  the unsealed bytes. */
std::string
sealed(const std::string &body)
{
    return body.substr(0, body.size() - 1) + ",\"fnv\":\"" +
           hexU64(fnv1a(body.data(), body.size())) + "\"}\n";
}

// An archive written while the index still mirrored shard state holds
// "shard" and "drop-shards" journal lines and "shards" manifest
// lines: they are skipped, not counted as corrupt, and their cells
// load. Any other unknown kind is still corrupt.
TEST_F(StoreIndexTest, OldShardLinesLoadClean)
{
    CellKey compacted = sampleKey("gsm", "protected", 5, 20);
    CellKey partial = sampleKey("gsm", "unprotected", 5, 20);
    CellKey promoted = sampleKey("adpcm", "protected", 3, 20);
    CellKey striped = sampleKey("adpcm", "unprotected", 3, 20);
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
    std::ofstream(root_ / "index" / "manifest.jsonl") << manifest;
    std::ofstream(root_ / "index" / "journal.jsonl")
        << sealed(line("shard", promoted, ",\"lo\":0,\"hi\":10"))
        << sealed(line("shard", promoted, ",\"lo\":10,\"hi\":20"))
        << sealed(line("cell", promoted, ""))
        << sealed("{\"schema\":1,\"kind\":\"drop-shards\","
                  "\"fingerprint\":\"" +
                  promoted.fingerprint() + "\"}")
        << sealed(line("shard", striped, ",\"lo\":0,\"hi\":10"));

    StoreIndex index(root_.string());
    index.load();
    auto health = index.health();
    EXPECT_TRUE(health.manifestPresent);
    EXPECT_EQ(health.journalCorrupt, 0u);
    EXPECT_EQ(health.journalEntries, 1u);
    EXPECT_EQ(health.cells, 2u);
    ASSERT_EQ(index.entries().size(), 2u);
    EXPECT_EQ(index.entries().at(compacted.fingerprint()), compacted);
    EXPECT_EQ(index.entries().at(promoted.fingerprint()), promoted);

    std::ofstream(root_ / "index" / "journal.jsonl", std::ios::app)
        << sealed(line("bogus", striped, ""));
    index.load();
    EXPECT_EQ(index.health().journalCorrupt, 1u);
    EXPECT_EQ(index.entries().size(), 2u);
}

std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, bool,
           uint64_t>
healthFields(const IndexHealth &health)
{
    return {health.cells,          health.shardSets,
            health.shardRanges,    health.journalEntries,
            health.journalCorrupt, health.manifestPresent,
            health.orphanedShards};
}

// A long-lived index (the daemon's) refreshed after every kind of
// archive change agrees with a fresh instance's read, and a refresh
// over unchanged files reads nothing.
TEST_F(StoreIndexTest, LongLivedIndexSeesEveryChange)
{
    ResultStore cache(root_.string());
    StoreIndex live(root_.string());
    live.load(); // registers the index metrics with their buckets
    telemetry::Histogram &reads =
        telemetry::histogram("etc_index_lookup_seconds", "", {});
    telemetry::Counter &corrupt =
        telemetry::counter("etc_index_journal_corrupt_total", "");
    auto expectFresh = [&](const std::string &step) {
        live.load();
        StoreIndex fresh(root_.string());
        fresh.load();
        EXPECT_EQ(live.encodeManifest(), fresh.encodeManifest()) << step;
        EXPECT_EQ(healthFields(live.health()),
                  healthFields(fresh.health()))
            << step;

        uint64_t readsBefore = reads.count();
        uint64_t corruptBefore = corrupt.value();
        live.load();
        EXPECT_EQ(reads.count(), readsBefore) << step;
        EXPECT_EQ(corrupt.value(), corruptBefore) << step;
        EXPECT_EQ(live.encodeManifest(), fresh.encodeManifest()) << step;
    };
    auto appendJournal = [&](const std::string &text) {
        std::ofstream(root_ / "index" / "journal.jsonl", std::ios::app)
            << text;
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
    appendJournal("{\"schema\":1,\"kind\":\"cell\",\"fing");
    expectFresh("torn line");
    appendJournal("\n{\"schema\":1,\"kind\":\"cell\",\"tampered\":true,"
                  "\"fnv\":\"0x0\"}\n");
    expectFresh("garbled sealed line");
    EXPECT_EQ(live.health().journalCorrupt, 2u);
    {
        StoreIndex compactor(root_.string());
        compactor.load();
        compactor.compact();
    }
    expectFresh("compact");
    EXPECT_EQ(live.health().journalEntries, 0u);
    cache.storeShard(b, 0, 10, sampleSummary(10));
    StoreIndex(root_.string()).rebuild();
    expectFresh("rebuild");
    EXPECT_EQ(live.entries().size(), 1u);
    EXPECT_EQ(live.health().shardSets, 1u);
    fs::remove_all(root_ / "index");
    expectFresh("index deleted");
    EXPECT_TRUE(live.entries().empty());
    EXPECT_FALSE(live.health().manifestPresent);
}

// Many threads appending through their own ResultStore instances must
// leave a fully decodable journal (each entry is one O_APPEND write).
// The TSan CI job runs this test to pin the data-race contract.
TEST_F(StoreIndexTest, ConcurrentWritersKeepJournalDecodable)
{
    constexpr int WRITERS = 4;
    constexpr int CELLS_PER_WRITER = 24;
    std::atomic<bool> go{false};
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
        });
    go = true;
    for (auto &t : threads)
        t.join();

    StoreIndex index(root_.string());
    index.load();
    EXPECT_EQ(index.health().journalCorrupt, 0u);
    EXPECT_EQ(index.entries().size(),
              (size_t)WRITERS * CELLS_PER_WRITER);
    // One journal line per cell: its shard write and drop journal
    // nothing.
    std::ifstream journal(root_ / "index" / "journal.jsonl");
    size_t lines = 0;
    for (std::string line; std::getline(journal, line);)
        ++lines;
    EXPECT_EQ(lines, (size_t)WRITERS * CELLS_PER_WRITER);

    // And the incremental result still matches a rebuild.
    std::string viaJournal = index.encodeManifest();
    auto report = index.rebuild();
    EXPECT_EQ(report.cells, (uint64_t)WRITERS * CELLS_PER_WRITER);
    index.load();
    EXPECT_EQ(index.encodeManifest(), viaJournal);
}

} // namespace
