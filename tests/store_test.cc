/**
 * @file
 * Result-store contract tests: canonical cell keys, JSONL record
 * round-trips (bit-exact, including doubles via their IEEE-754 bit
 * patterns), rejection of truncated/corrupt/version-skewed records
 * with a versioned StoreFormatError (never a crash), and the on-disk
 * ResultStore cell/shard lifecycle.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <thread>

#include "store/cell_key.hh"
#include "store/index.hh"
#include "store/json.hh"
#include "store/record.hh"
#include "store/result_store.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace {

using namespace etc;
using namespace etc::store;

CellKey
sampleKey(unsigned trials = 8)
{
    CellKey key;
    key.workload = "gsm";
    key.policy = "protected";
    key.errors = 5;
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
    summary.completed = trials - 3;
    summary.crashed = 2;
    summary.timedOut = 1;
    summary.totalInstructions = 123456789012345ull;
    summary.wallSeconds = 1.25;
    for (unsigned i = 0; i < summary.completed; ++i) {
        workloads::FidelityScore score;
        // Exercise awkward doubles: negatives, subnormals, inf, NaN.
        switch (i % 5) {
          case 0: score.value = 31.4159; break;
          case 1: score.value = -0.0; break;
          case 2: score.value = std::numeric_limits<double>::infinity();
                  break;
          case 3: score.value = std::nan(""); break;
          case 4: score.value = 5e-324; break;
        }
        score.acceptable = i % 2 == 0;
        score.unit = "dB \"quoted\"\nunit";
        summary.fidelities.push_back(score);
    }
    return summary;
}

void
expectSummariesIdentical(const core::CellSummary &a,
                         const core::CellSummary &b)
{
    EXPECT_EQ(a.errors, b.errors);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.trialsPruned, b.trialsPruned);
    EXPECT_EQ(doubleBits(a.wallSeconds), doubleBits(b.wallSeconds));
    ASSERT_EQ(a.fidelities.size(), b.fidelities.size());
    for (size_t i = 0; i < a.fidelities.size(); ++i) {
        EXPECT_EQ(doubleBits(a.fidelities[i].value),
                  doubleBits(b.fidelities[i].value))
            << "fidelity " << i;
        EXPECT_EQ(a.fidelities[i].acceptable, b.fidelities[i].acceptable);
        EXPECT_EQ(a.fidelities[i].unit, b.fidelities[i].unit);
    }
}

// ---- keys -----------------------------------------------------------------

TEST(CellKeyTest, CanonicalFormCoversEveryField)
{
    CellKey key = sampleKey();
    std::string canonical = key.canonical();
    for (const char *piece :
         {"workload=gsm", "mode=protected", "errors=5", "trials=8",
          "seed=0xbe7c", "memory_model=lenient",
          "program=0xdeadbeefcafef00d", "schema=1"})
        EXPECT_NE(canonical.find(piece), std::string::npos) << piece;

    // Any field change must change the identity and the fingerprint.
    for (auto mutate : std::vector<std::function<void(CellKey &)>>{
             [](CellKey &k) { k.workload = "art"; },
             [](CellKey &k) { k.policy = "unprotected"; },
             [](CellKey &k) { k.errors += 1; },
             [](CellKey &k) { k.trials += 1; },
             [](CellKey &k) { k.seed += 1; },
             [](CellKey &k) { k.budgetFactor += 0.5; },
             [](CellKey &k) { k.memoryModel = "strict"; },
             [](CellKey &k) { k.programHash = "0x1"; },
             [](CellKey &k) { k.policyHash = "0xdeadbeef"; }}) {
        CellKey other = sampleKey();
        mutate(other);
        EXPECT_FALSE(other == key);
        EXPECT_NE(other.fingerprint(), key.fingerprint());
    }
}

TEST(CellKeyTest, FingerprintIsStableHex16)
{
    CellKey key = sampleKey();
    std::string fp = key.fingerprint();
    EXPECT_EQ(fp.size(), 16u);
    EXPECT_EQ(fp.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_EQ(fp, sampleKey().fingerprint());
}

TEST(CellKeyTest, HexRoundTrip)
{
    for (uint64_t v : {0ull, 1ull, 0xbe7cull, ~0ull, 1ull << 63})
        EXPECT_EQ(parseHexU64(hexU64(v)), v);
    EXPECT_THROW(parseHexU64("123"), std::invalid_argument);
    EXPECT_THROW(parseHexU64("0x"), std::invalid_argument);
    EXPECT_THROW(parseHexU64("0xg"), std::invalid_argument);
    EXPECT_THROW(parseHexU64("0x12345678901234567"),
                 std::invalid_argument);
}

TEST(CellKeyTest, DoubleBitsRoundTripIncludingNan)
{
    for (double v : {0.0, -0.0, 10.0, -1.5e300, 5e-324,
                     std::numeric_limits<double>::infinity()})
        EXPECT_EQ(doubleBits(doubleFromBits(doubleBits(v))),
                  doubleBits(v));
    double nan = std::nan("");
    EXPECT_EQ(doubleBits(doubleFromBits(doubleBits(nan))),
              doubleBits(nan));
}

// ---- record round-trips ---------------------------------------------------

TEST(RecordCodecTest, CellRoundTripIsBitExact)
{
    CellKey key = sampleKey();
    auto summary = sampleSummary();
    std::string text = encodeCellRecord(key, summary);
    auto decoded = decodeCellRecord(text, &key);
    expectSummariesIdentical(summary, decoded);
    // Encoding is deterministic: re-encoding the decode is identical.
    EXPECT_EQ(encodeCellRecord(key, decoded), text);
}

TEST(RecordCodecTest, ShardRoundTripIsBitExact)
{
    CellKey key = sampleKey(20);
    auto summary = sampleSummary();
    std::string text = encodeShardRecord(key, 4, 12, summary);
    auto decoded = decodeShardRecord(text, &key);
    EXPECT_EQ(decoded.lo, 4u);
    EXPECT_EQ(decoded.hi, 12u);
    EXPECT_TRUE(decoded.key == key);
    expectSummariesIdentical(summary, decoded.summary);
}

TEST(RecordCodecTest, EmptyCellRoundTrips)
{
    CellKey key = sampleKey(3);
    core::CellSummary summary;
    summary.errors = key.errors;
    summary.policy = "protected";
    summary.trials = 3;
    summary.crashed = 3; // nothing completed: no fidelity lines
    auto decoded = decodeCellRecord(encodeCellRecord(key, summary), &key);
    expectSummariesIdentical(summary, decoded);
}

TEST(RecordCodecTest, TrialsPrunedIsOptionalAndRoundTrips)
{
    // trials_pruned is emitted only when nonzero, so prune-off records
    // stay byte-identical to pre-prune ones; a nonzero count survives
    // the roundtrip and deterministic re-encode.
    CellKey key = sampleKey();
    auto summary = sampleSummary();
    std::string withoutField = encodeCellRecord(key, summary);
    EXPECT_EQ(withoutField.find("trials_pruned"), std::string::npos);

    summary.trialsPruned = 7;
    std::string text = encodeCellRecord(key, summary);
    EXPECT_NE(text.find("\"trials_pruned\":7"), std::string::npos);
    auto decoded = decodeCellRecord(text, &key);
    expectSummariesIdentical(summary, decoded);
    EXPECT_EQ(encodeCellRecord(key, decoded), text);

    // Shard records carry the count too (shard merges sum it).
    CellKey shardKey = sampleKey(20);
    auto shard = decodeShardRecord(
        encodeShardRecord(shardKey, 4, 12, summary), &shardKey);
    EXPECT_EQ(shard.summary.trialsPruned, 7u);
}

TEST(RecordCodecTest, KeyMismatchIsRejected)
{
    CellKey key = sampleKey();
    std::string text = encodeCellRecord(key, sampleSummary());
    CellKey other = sampleKey();
    other.seed ^= 1;
    EXPECT_THROW(decodeCellRecord(text, &other), StoreFormatError);
    // Without an expectation the same record is fine.
    EXPECT_NO_THROW(decodeCellRecord(text, nullptr));
}

TEST(RecordCodecTest, WrongSchemaVersionIsRejectedWithVersionedError)
{
    CellKey key = sampleKey();
    std::string text = encodeCellRecord(key, sampleSummary());
    auto pos = text.find("\"schema\":1");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 10, "\"schema\":9");
    try {
        decodeCellRecord(text, &key);
        FAIL() << "schema 9 record was accepted";
    } catch (const StoreFormatError &error) {
        EXPECT_NE(std::string(error.what()).find("schema"),
                  std::string::npos);
        EXPECT_NE(std::string(error.what()).find("9"),
                  std::string::npos);
    }
}

TEST(RecordCodecTest, EveryTruncationIsRejectedNeverCrashes)
{
    CellKey key = sampleKey();
    std::string text = encodeCellRecord(key, sampleSummary());
    // Every proper prefix must decode to an error, not a summary and
    // not a crash. (Prefixes that end mid-line lack the trailer;
    // prefixes on line boundaries lack lines.)
    for (size_t len = 0; len < text.size(); ++len) {
        std::string prefix = text.substr(0, len);
        EXPECT_THROW(decodeCellRecord(prefix, &key), StoreFormatError)
            << "prefix of length " << len << " was accepted";
    }
}

TEST(RecordCodecTest, RandomCorruptionIsRejectedOrEquivalent)
{
    CellKey key = sampleKey();
    std::string text = encodeCellRecord(key, sampleSummary());
    auto reference = decodeCellRecord(text, &key);
    Rng rng(0xf022);
    for (int round = 0; round < 2000; ++round) {
        std::string corrupt = text;
        size_t pos = rng.below(corrupt.size());
        char replacement =
            static_cast<char>(' ' + rng.below(95)); // printable ASCII
        if (replacement == corrupt[pos])
            continue; // not a corruption
        corrupt[pos] = replacement;
        try {
            decodeCellRecord(corrupt, &key);
            // The trailer checksum must catch every byte substitution
            // -- even ones inside string payloads that would parse as
            // valid JSON with silently different contents.
            ADD_FAILURE() << "corruption at pos " << pos << " ('"
                          << replacement << "') was accepted";
        } catch (const StoreFormatError &) {
            // rejected cleanly: the desired outcome
        } catch (const JsonError &) {
            FAIL() << "JsonError escaped the codec at pos " << pos;
        }
    }
    // The pristine text still decodes, of course.
    expectSummariesIdentical(reference, decodeCellRecord(text, &key));
}

TEST(RecordCodecTest, GarbageInputsAreRejected)
{
    CellKey key = sampleKey();
    for (const char *text :
         {"", "\n", "not json\n", "{}\n{}\n{}\n", "[1,2,3]\n",
          "{\"schema\":1}\n{\"schema\":1}\n{\"schema\":1}\n",
          "{\"schema\":true,\"kind\":\"cell\"}\na\nb\n"})
        EXPECT_THROW(decodeCellRecord(text, &key), StoreFormatError)
            << "accepted: " << text;
}

// ---- shard merge ----------------------------------------------------------

TEST(RecordCodecTest, MergeShardSummariesRequiresExactTiling)
{
    CellKey key = sampleKey(10);

    auto shard = [&](unsigned lo, unsigned hi) {
        ShardRecord record;
        record.key = key;
        record.lo = lo;
        record.hi = hi;
        record.summary.trials = hi - lo;
        record.summary.completed = hi - lo;
        for (unsigned i = lo; i < hi; ++i) {
            workloads::FidelityScore score;
            score.value = i; // trial-identifying
            record.summary.fidelities.push_back(score);
        }
        record.summary.totalInstructions = uint64_t{hi} - lo;
        return record;
    };

    // Out-of-order input merges fine and keeps trial order.
    auto merged = mergeShardSummaries(
        key, {shard(7, 10), shard(0, 4), shard(4, 7)});
    EXPECT_EQ(merged.trials, 10u);
    EXPECT_EQ(merged.completed, 10u);
    ASSERT_EQ(merged.fidelities.size(), 10u);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(merged.fidelities[i].value, double(i));

    EXPECT_THROW(mergeShardSummaries(key, {shard(0, 4)}),
                 StoreFormatError); // gap at the tail
    EXPECT_THROW(mergeShardSummaries(key, {shard(0, 4), shard(5, 10)}),
                 StoreFormatError); // gap in the middle
    EXPECT_THROW(mergeShardSummaries(key, {shard(0, 6), shard(4, 10)}),
                 StoreFormatError); // overlap
    EXPECT_THROW(mergeShardSummaries(key, {}), StoreFormatError);

    // A sub-range merges the same way: a stripe from its pieces.
    auto stripe = mergeShardSummaries(key, {shard(7, 10), shard(4, 7)},
                                      4, 10);
    EXPECT_EQ(stripe.trials, 6u);
    ASSERT_EQ(stripe.fidelities.size(), 6u);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(stripe.fidelities[i].value, double(4 + i));
    EXPECT_THROW(mergeShardSummaries(key, {shard(4, 7)}, 4, 10),
                 StoreFormatError);
    EXPECT_THROW(mergeShardSummaries(key, {shard(0, 4)}, 4, 10),
                 StoreFormatError);
}

// ---- on-disk store --------------------------------------------------------

uint64_t
counterValue(const char *name)
{
    return telemetry::counter(name, "").value();
}

/** The lines of @p path (none when it does not exist). */
std::vector<std::string>
fileLines(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

class ResultStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = std::filesystem::temp_directory_path() /
                ("etc_store_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
        std::filesystem::remove_all(root_);
    }

    void TearDown() override { std::filesystem::remove_all(root_); }

    std::filesystem::path root_;
};

TEST_F(ResultStoreTest, CellLifecycle)
{
    ResultStore cache(root_.string());
    CellKey key = sampleKey();
    EXPECT_FALSE(cache.hasCell(key));
    EXPECT_FALSE(cache.loadCell(key).has_value());

    auto summary = sampleSummary();
    cache.storeCell(key, summary);
    EXPECT_TRUE(cache.hasCell(key));
    auto loaded = cache.loadCell(key);
    ASSERT_TRUE(loaded.has_value());
    expectSummariesIdentical(summary, *loaded);

    // A second store instance sees the same record (persistence).
    ResultStore other(root_.string());
    uint64_t hits = counterValue("etc_store_cache_hits_total");
    ASSERT_TRUE(other.loadCell(key).has_value());
    EXPECT_EQ(counterValue("etc_store_cache_hits_total"), hits + 1);
}

TEST_F(ResultStoreTest, ShardLifecycle)
{
    ResultStore cache(root_.string());
    CellKey key = sampleKey(20);
    EXPECT_TRUE(cache.loadShards(key).empty());
    EXPECT_FALSE(cache.hasShard(key, 0, 10));

    auto summary = sampleSummary();
    summary.trials = 10;
    summary.completed = 7;
    summary.crashed = 2;
    summary.timedOut = 1;
    summary.fidelities.resize(7);
    cache.storeShard(key, 10, 20, summary);
    cache.storeShard(key, 0, 10, summary);
    EXPECT_TRUE(cache.hasShard(key, 0, 10));

    auto shards = cache.loadShards(key);
    ASSERT_EQ(shards.size(), 2u);
    EXPECT_EQ(shards[0].lo, 0u); // sorted by range
    EXPECT_EQ(shards[1].lo, 10u);

    cache.dropShards(key);
    EXPECT_TRUE(cache.loadShards(key).empty());
}

TEST_F(ResultStoreTest, PromoteShardsStoresTheCellAndDropsShards)
{
    ResultStore cache(root_.string());
    CellKey key = sampleKey(20);
    auto shardOf = [&](unsigned lo, unsigned hi) {
        auto summary = sampleSummary();
        summary.trials = hi - lo;
        summary.completed = hi - lo;
        summary.crashed = 0;
        summary.timedOut = 0;
        summary.fidelities.resize(hi - lo);
        cache.storeShard(key, lo, hi, summary);
    };

    // A gap leaves everything in place.
    shardOf(0, 10);
    EXPECT_THROW(cache.promoteShards(key, cache.loadShards(key)),
                 StoreFormatError);
    EXPECT_FALSE(cache.hasCell(key));
    EXPECT_TRUE(cache.hasShard(key, 0, 10));

    // A leftover of another split is skipped; the tiling promotes.
    shardOf(5, 15);
    shardOf(10, 20);
    auto promoted = cache.promoteShards(key, cache.loadShards(key));
    EXPECT_EQ(promoted.trials, 20u);
    EXPECT_EQ(promoted.completed, 20u);
    auto stored = cache.loadCell(key);
    ASSERT_TRUE(stored.has_value());
    expectSummariesIdentical(promoted, *stored);
    EXPECT_TRUE(cache.loadShards(key).empty());
}

TEST_F(ResultStoreTest, CorruptCellIsAMissNotACrash)
{
    ResultStore cache(root_.string());
    CellKey key = sampleKey();
    cache.storeCell(key, sampleSummary());

    // Truncate the record mid-file.
    auto path = root_ / "cells" / (key.fingerprint() + ".jsonl");
    auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size / 2);

    uint64_t misses = counterValue("etc_store_cache_misses_total");
    EXPECT_FALSE(cache.loadCell(key).has_value());
    EXPECT_EQ(counterValue("etc_store_cache_misses_total"), misses + 1);
}

TEST_F(ResultStoreTest, ForeignKeyInCellFileIsRejected)
{
    ResultStore cache(root_.string());
    CellKey key = sampleKey();
    CellKey other = sampleKey();
    other.errors += 1;

    // Plant another cell's (valid) record at this key's address, as a
    // fingerprint collision / copy-paste accident would.
    auto dir = root_ / "cells";
    std::filesystem::create_directories(dir);
    std::ofstream out(dir / (key.fingerprint() + ".jsonl"),
                      std::ios::binary);
    auto summary = sampleSummary();
    summary.errors = other.errors;
    out << encodeCellRecord(other, summary);
    out.close();

    EXPECT_FALSE(cache.loadCell(key).has_value());
}

TEST_F(ResultStoreTest, CorruptShardIsSkippedOthersSurvive)
{
    ResultStore cache(root_.string());
    CellKey key = sampleKey(20);
    auto summary = sampleSummary();
    summary.trials = 10;
    summary.completed = 10;
    summary.crashed = 0;
    summary.timedOut = 0;
    summary.fidelities.resize(10);
    cache.storeShard(key, 0, 10, summary);
    cache.storeShard(key, 10, 20, summary);

    auto path =
        root_ / "shards" / key.fingerprint() / "0-10.jsonl";
    ASSERT_TRUE(std::filesystem::exists(path));
    std::ofstream(path, std::ios::binary) << "junk";

    auto shards = cache.loadShards(key);
    ASSERT_EQ(shards.size(), 1u);
    EXPECT_EQ(shards[0].lo, 10u);
}

TEST_F(ResultStoreTest, LoadCellByFingerprintReturnsKeyAndSummary)
{
    ResultStore cache(root_.string());
    CellKey key = sampleKey();
    auto summary = sampleSummary();
    cache.storeCell(key, summary);

    const CellRecord *record = cache.readCell(key.fingerprint(), nullptr);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->key.canonical(), key.canonical());
    expectSummariesIdentical(record->summary, summary);

    EXPECT_EQ(cache.readCell("0000000000000000", nullptr), nullptr);
}

// The record memo: a repeated load of an unchanged record reads no
// bytes but still counts a hit, and a record another writer replaces
// or deletes behind the memo is seen on the next load.
TEST_F(ResultStoreTest, RecordMemoFollowsTheFileOnDisk)
{
    uint64_t misses = counterValue("etc_store_cache_misses_total");
    ResultStore cache(root_.string());
    CellKey key = sampleKey();
    auto first = sampleSummary();
    cache.storeCell(key, first);
    ASSERT_TRUE(cache.loadCell(key).has_value());

    uint64_t bytes = counterValue("etc_store_bytes_read_total");
    uint64_t hits = counterValue("etc_store_cache_hits_total");
    auto again = cache.loadCell(key);
    ASSERT_TRUE(again.has_value());
    expectSummariesIdentical(first, *again);
    EXPECT_EQ(counterValue("etc_store_bytes_read_total"), bytes);
    EXPECT_EQ(counterValue("etc_store_cache_hits_total"), hits + 1);
    const CellRecord *byFingerprint =
        cache.readCell(key.fingerprint(), nullptr);
    ASSERT_NE(byFingerprint, nullptr);
    EXPECT_EQ(byFingerprint->key.canonical(), key.canonical());
    EXPECT_EQ(counterValue("etc_store_bytes_read_total"), bytes);

    // Another writer stores a different summary under the same key.
    auto second = sampleSummary();
    second.completed -= 1;
    second.crashed += 1;
    second.fidelities.pop_back();
    ResultStore(root_.string()).storeCell(key, second);
    auto reread = cache.loadCell(key);
    ASSERT_TRUE(reread.has_value());
    expectSummariesIdentical(second, *reread);
    EXPECT_GT(counterValue("etc_store_bytes_read_total"), bytes);

    // A deleted record misses, through either lookup.
    std::filesystem::remove(root_ / "cells" /
                            (key.fingerprint() + ".jsonl"));
    EXPECT_FALSE(cache.loadCell(key).has_value());
    EXPECT_EQ(cache.readCell(key.fingerprint(), nullptr), nullptr);
    EXPECT_EQ(counterValue("etc_store_cache_misses_total"), misses + 2);
}

// A corrupt record is never memoized: it warns and misses on every
// load, and the valid record that replaces it is served again.
TEST_F(ResultStoreTest, CorruptRecordIsNeverMemoized)
{
    ResultStore cache(root_.string());
    CellKey key = sampleKey();
    auto summary = sampleSummary();
    cache.storeCell(key, summary);
    ASSERT_TRUE(cache.loadCell(key).has_value());

    auto path = root_ / "cells" / (key.fingerprint() + ".jsonl");
    std::ofstream(path, std::ios::binary | std::ios::trunc) << "junk\n";
    uint64_t corrupt = counterValue("etc_store_corrupt_records_total");
    for (int i = 0; i < 3; ++i) {
        ::testing::internal::CaptureStderr();
        EXPECT_FALSE(cache.loadCell(key).has_value());
        EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                      "ignoring unreadable cell record"),
                  std::string::npos)
            << "load " << i;
    }
    EXPECT_EQ(counterValue("etc_store_corrupt_records_total"),
              corrupt + 3);

    cache.storeCell(key, summary);
    auto restored = cache.loadCell(key);
    ASSERT_TRUE(restored.has_value());
    expectSummariesIdentical(summary, *restored);
}

// More distinct records than the memo holds: it is cleared when full,
// and every load still returns its own record.
TEST_F(ResultStoreTest, RecordMemoPastItsCapKeepsEveryAnswer)
{
    uint64_t hits = counterValue("etc_store_cache_hits_total");
    uint64_t misses = counterValue("etc_store_cache_misses_total");
    ResultStore cache(root_.string());
    std::vector<CellKey> keys;
    for (unsigned i = 0; i < CELL_MEMO_CAP + 8; ++i) {
        CellKey key = sampleKey(4);
        key.errors = i;
        auto summary = sampleSummary(4);
        summary.totalInstructions = i;
        cache.storeCell(key, summary);
        keys.push_back(key);
    }
    for (int pass = 0; pass < 2; ++pass)
        for (unsigned i = 0; i < keys.size(); ++i) {
            auto loaded = cache.loadCell(keys[i]);
            ASSERT_TRUE(loaded.has_value()) << i;
            EXPECT_EQ(loaded->totalInstructions, i);
        }
    EXPECT_EQ(counterValue("etc_store_cache_hits_total"),
              hits + 2 * keys.size());
    EXPECT_EQ(counterValue("etc_store_cache_misses_total"), misses);
}

// A traced storeCell emits one store/cell-write span naming its cell,
// and no index span; an untraced one emits none.
TEST_F(ResultStoreTest, CellWriteIsTraced)
{
    auto tracePath = root_.string() + ".trace.jsonl";
    ResultStore cache(root_.string());
    CellKey traced = sampleKey();
    telemetry::Tracer::instance().open(tracePath);
    cache.storeCell(traced, sampleSummary());
    telemetry::Tracer::instance().close();
    CellKey untraced = sampleKey();
    untraced.errors += 1;
    cache.storeCell(untraced, sampleSummary());

    unsigned cellWrites = 0, indexSpans = 0;
    for (const std::string &line : fileLines(tracePath)) {
        if (line.find("\"cat\":\"store\",\"name\":\"cell-write\"") !=
            std::string::npos) {
            ++cellWrites;
            EXPECT_NE(line.find(traced.fingerprint()), std::string::npos);
        }
        indexSpans += line.find("\"cat\":\"index\"") != std::string::npos;
    }
    EXPECT_EQ(cellWrites, 1u);
    EXPECT_EQ(indexSpans, 0u);
    std::filesystem::remove(tracePath);
}

// Every write kind takes the one staged write path and keeps its byte
// accounting: tmp/ is left empty, etc_store_bytes_written_total rises
// by exactly the bytes of the record files written, the index's own
// reads (load, audit) move neither byte counter, and nothing is
// written under index/.
TEST_F(ResultStoreTest, EveryWriteKindStagesAndCountsRecordBytesOnly)
{
    ResultStore cache(root_.string());
    uint64_t read = counterValue("etc_store_bytes_read_total");
    uint64_t written = counterValue("etc_store_bytes_written_total");
    uint64_t recordBytes = 0;

    CellKey stored = sampleKey(8);
    auto summary = sampleSummary(8);
    cache.storeCell(stored, summary);
    recordBytes += encodeCellRecord(stored, summary).size();

    CellKey sharded = sampleKey(16);
    std::string firstShard = encodeShardRecord(sharded, 0, 8, summary);
    cache.storeShard(sharded, 0, 8, summary);
    std::string pushedShard = encodeShardRecord(sharded, 8, 16, summary);
    EXPECT_TRUE(cache.ingestRecord(pushedShard).stored);
    recordBytes += firstShard.size() + pushedShard.size();

    CellKey pushed = sampleKey(8);
    pushed.errors += 1;
    std::string pushedCell = encodeCellRecord(pushed, summary);
    EXPECT_TRUE(cache.ingestRecord(pushedCell).stored);
    EXPECT_FALSE(cache.ingestRecord(pushedCell).stored); // in place
    recordBytes += pushedCell.size();

    auto shards = cache.loadShards(sharded);
    ASSERT_EQ(shards.size(), 2u);
    EXPECT_EQ(counterValue("etc_store_bytes_read_total"),
              read + firstShard.size() + pushedShard.size());
    auto promoted = cache.promoteShards(sharded, std::move(shards));
    recordBytes += encodeCellRecord(sharded, promoted).size();
    EXPECT_EQ(counterValue("etc_store_bytes_written_total"),
              written + recordBytes);

    read = counterValue("etc_store_bytes_read_total");
    {
        StoreIndex index(root_.string());
        index.load();
        EXPECT_EQ(index.entries().size(), 3u);
        auto report = index.audit();
        EXPECT_EQ(report.cells, 3u);
        EXPECT_EQ(report.shardSets, 0u);
    }
    EXPECT_EQ(counterValue("etc_store_bytes_read_total"), read);
    EXPECT_EQ(counterValue("etc_store_bytes_written_total"),
              written + recordBytes);
    EXPECT_TRUE(std::filesystem::is_empty(root_ / "tmp"));
    EXPECT_FALSE(std::filesystem::exists(root_ / "index"));
}

// A write that fails -- here, a directory sits at the cell's path, so
// the rename cannot land -- throws and leaves no staged file in tmp/:
// the daemon survives the throw, so leftovers would pile up.
TEST_F(ResultStoreTest, AFailedWriteLeavesNoStagedFile)
{
    ResultStore cache(root_.string());
    CellKey key = sampleKey();
    std::filesystem::create_directories(root_ / "cells" /
                                        (key.fingerprint() + ".jsonl"));
    EXPECT_THROW(cache.storeCell(key, sampleSummary()), FatalError);
    EXPECT_TRUE(std::filesystem::is_empty(root_ / "tmp"));
}

// The store's concurrent-writer contract: two writers racing on the
// same cell -- modeling two processes, so each thread gets its own
// ResultStore instance over the shared root -- stage into unique tmp
// files and atomically rename into place, and because a cell is a
// pure function of its key they write identical bytes. A concurrent
// reader must therefore never see a torn or partial record: every
// load either misses (before the first rename lands) or decodes to
// the one true summary.
TEST_F(ResultStoreTest, RacingWritersResolveToOneIdenticalRecord)
{
    CellKey key = sampleKey();
    auto summary = sampleSummary();

    constexpr int WRITES_PER_WRITER = 60;
    std::atomic<bool> go{false};
    std::atomic<int> writersRunning{2};
    auto writer = [&] {
        ResultStore cache(root_.string());
        while (!go.load())
            std::this_thread::yield();
        for (int i = 0; i < WRITES_PER_WRITER; ++i)
            cache.storeCell(key, summary);
        --writersRunning;
    };

    std::atomic<bool> sawTornRecord{false};
    auto reader = [&] {
        ResultStore cache(root_.string());
        while (!go.load())
            std::this_thread::yield();
        // Keep reading until both writers finish (not a fixed probe
        // count: on a loaded machine the reader could spin through
        // any budget before the first rename lands). Before the
        // first successful load a miss is legitimate; after one, the
        // path permanently holds a complete record (rename replaces
        // it atomically), so any later miss or mismatching decode
        // means a torn record was visible.
        bool seen = false;
        while (writersRunning.load() > 0) {
            auto loaded = cache.loadCell(key);
            if (!loaded) {
                if (seen)
                    sawTornRecord = true;
                std::this_thread::yield();
                continue;
            }
            seen = true;
            if (loaded->trials != summary.trials ||
                loaded->fidelities.size() !=
                    summary.fidelities.size())
                sawTornRecord = true;
        }
    };

    std::thread writerA(writer), writerB(writer), readerThread(reader);
    go = true;
    writerA.join();
    writerB.join();
    readerThread.join();

    EXPECT_FALSE(sawTornRecord.load());

    ResultStore cache(root_.string());
    auto survivor = cache.loadCell(key);
    ASSERT_TRUE(survivor.has_value());
    expectSummariesIdentical(*survivor, summary);
    // Nothing left staged: every tmp file was renamed into place.
    size_t staged = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator(root_ / "tmp"))
        ++staged;
    EXPECT_EQ(staged, 0u);
}

// ---- json primitives ------------------------------------------------------

TEST(JsonTest, ParsesTheCodecSubset)
{
    auto value = parseJson(
        "{\"a\":1,\"b\":\"x\\n\\\"y\",\"c\":true,\"d\":[1,2],"
        "\"e\":{\"f\":18446744073709551615}}");
    EXPECT_EQ(value.at("a").asU64(), 1u);
    EXPECT_EQ(value.at("b").asString(), "x\n\"y");
    EXPECT_TRUE(value.at("c").asBool());
    EXPECT_EQ(value.at("d").elements.size(), 2u);
    EXPECT_EQ(value.at("e").at("f").asU64(), ~0ull);
}

TEST(JsonTest, RejectsMalformedInput)
{
    for (const char *text :
         {"{", "}", "{\"a\"}", "{\"a\":}", "{\"a\":1,}", "tru",
          "\"unterminated", "{\"a\":1}x", "01x", "{\"a\":--1}",
          "{\"a\":1e}", "\"bad\\escape\"", "{\"a\":18446744073709551616}"})
        EXPECT_THROW(
            {
                auto v = parseJson(text);
                // force evaluation for the number-overflow case
                if (v.isObject())
                    v.at("a").asU64();
            },
            JsonError)
            << "accepted: " << text;
}

TEST(JsonTest, NestingDepthIsCappedAtTheBoundary)
{
    auto nested = [](size_t depth, const char *open, const char *close) {
        std::string text;
        for (size_t i = 0; i < depth; ++i)
            text += open;
        text += "1";
        for (size_t i = 0; i < depth; ++i)
            text += close;
        return text;
    };
    EXPECT_NO_THROW(parseJson(nested(JSON_MAX_DEPTH, "[", "]")));
    EXPECT_NO_THROW(parseJson(nested(JSON_MAX_DEPTH, "{\"a\":", "}")));
    EXPECT_THROW(parseJson(nested(JSON_MAX_DEPTH + 1, "[", "]")), JsonError);
    EXPECT_THROW(parseJson(nested(JSON_MAX_DEPTH + 1, "{\"a\":", "}")),
                 JsonError);
    // Depth counts open containers, not containers seen: siblings at
    // the boundary parse.
    EXPECT_NO_THROW(parseJson("[" + nested(JSON_MAX_DEPTH - 1, "[", "]") +
                              "," + nested(JSON_MAX_DEPTH - 1, "[", "]") +
                              "]"));
}

TEST(JsonTest, QuoteRoundTripsThroughParse)
{
    std::string nasty = "a\"b\\c\nd\te\rf\x01g";
    auto value = parseJson(jsonQuote(nasty));
    EXPECT_EQ(value.asString(), nasty);
}

} // namespace
