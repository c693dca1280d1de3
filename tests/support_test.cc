/**
 * @file
 * Unit tests for the support layer: RNG, bit utilities, tables,
 * charts, logging.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "support/bits.hh"
#include "support/chart.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/table.hh"

namespace {

using namespace etc;

// ---- Rng --------------------------------------------------------------

TEST(RngTest, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next64() == b.next64())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange)
{
    Rng rng(7);
    for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull,
                           0xffffffffull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(RngTest, BelowZeroPanics)
{
    Rng rng(7);
    EXPECT_THROW(rng.below(0), PanicError);
}

TEST(RngTest, RangeInclusive)
{
    Rng rng(9);
    std::set<int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit with 500 draws
}

TEST(RngTest, RangeEmptyPanics)
{
    Rng rng(9);
    EXPECT_THROW(rng.range(5, 4), PanicError);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 2000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 2000.0, 0.5, 0.05);
}

TEST(RngTest, SampleDistinctProperties)
{
    Rng rng(13);
    for (uint64_t n : {1ull, 5ull, 100ull, 10000ull}) {
        for (uint64_t k : {0ull, 1ull, 3ull, 50ull}) {
            auto sample = rng.sampleDistinct(n, k);
            EXPECT_EQ(sample.size(), std::min(n, k));
            std::set<uint64_t> unique(sample.begin(), sample.end());
            EXPECT_EQ(unique.size(), sample.size()) << "duplicates";
            EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
            for (uint64_t v : sample)
                EXPECT_LT(v, n);
        }
    }
}

TEST(RngTest, SampleDistinctAllWhenKExceedsN)
{
    Rng rng(17);
    auto sample = rng.sampleDistinct(5, 50);
    ASSERT_EQ(sample.size(), 5u);
    for (uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(sample[i], i);
}

TEST(RngTest, SampleDistinctEmptyUniverse)
{
    Rng rng(19);
    EXPECT_TRUE(rng.sampleDistinct(0, 10).empty());
}

TEST(RngTest, DrawsArePinned)
{
    // Literal draws, so a change to the sampler that moves any accept/
    // reject decision or returned value fails here rather than only as
    // changed figure bytes. One generator runs through every bound, so
    // the value after them also pins how many draws were rejected.
    Rng rng(0x5eed);
    const std::vector<std::pair<uint64_t, std::vector<uint64_t>>> below = {
        {1, {0, 0, 0, 0, 0, 0}},
        {2, {0, 0, 0, 0, 0, 0}},
        {3, {2, 1, 2, 2, 0, 1}},
        {32, {0x1c, 0x12, 0x5, 0xb, 0x1c, 0x1b}},
        {(1ull << 32) + 1,
         {0xbacc0132, 0xc759e58, 0x48588022, 0x44be6c5c, 0x9506d6ae,
          0xbb084776}},
        {(1ull << 63) + 1,
         {0x2b06e963a3dd337dull, 0x1c5ed8bd8b8bed73ull,
          0x4cf37341a67dbdfeull, 0x737375b6b47f4d36ull,
          0x41d88cd25222d651ull, 0x514e69f965d0a6b9ull}},
        {~0ull,
         {0xf9ea203f78175869ull, 0xe987b805da556782ull,
          0x5b825cc04a2e7cdeull, 0x915fb63a060e49a8ull,
          0x48864d37345bd09dull, 0x31f382d79549a268ull}},
    };
    for (const auto &[bound, values] : below)
        for (uint64_t value : values)
            EXPECT_EQ(rng.below(bound), value) << "bound " << bound;
    EXPECT_EQ(rng.next64(), 0xc0152d3746ebfad3ull);

    // sampleDistinct: the small cases literally, a fig1-sized draw
    // (2,300 of 609,840 sites) by size and FNV-1a hash.
    auto fnv = [](const std::vector<uint64_t> &values) {
        uint64_t hash = 0xcbf29ce484222325ull;
        for (uint64_t value : values) {
            hash ^= value;
            hash *= 0x100000001b3ull;
        }
        return hash;
    };
    Rng sampler(0xd15c);
    EXPECT_EQ(sampler.sampleDistinct(1, 1), (std::vector<uint64_t>{0}));
    EXPECT_EQ(sampler.sampleDistinct(10, 9),
              (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 7, 8, 9}));
    EXPECT_EQ(sampler.sampleDistinct(10, 10),
              (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
    auto large = sampler.sampleDistinct(609840, 2300);
    EXPECT_EQ(large.size(), 2300u);
    EXPECT_EQ(fnv(large), 0x72a21b8fc66f5440ull);
    EXPECT_EQ(sampler.next64(), 0x6545fb7146a5f755ull);
}

TEST(RngTest, SplitProducesIndependentStream)
{
    Rng parent(23);
    Rng child = parent.split();
    // The child must not replay the parent's stream.
    Rng parentCopy(23);
    parentCopy.split();
    EXPECT_EQ(parentCopy.next64(), parent.next64());
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (child.next64() == parent.next64())
            ++same;
    EXPECT_LT(same, 2);
}

// ---- bit utilities ------------------------------------------------------

class FlipBitTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FlipBitTest, FlipIsInvolution)
{
    unsigned bit = GetParam();
    uint32_t value = 0xdeadbeef;
    uint32_t flipped = flipBit(value, bit);
    EXPECT_NE(flipped, value);
    EXPECT_EQ(flipBit(flipped, bit), value);
    EXPECT_EQ(flipped ^ value, uint32_t{1} << bit);
}

INSTANTIATE_TEST_SUITE_P(AllBits, FlipBitTest,
                         ::testing::Range(0u, 32u));

TEST(BitsTest, FlipBitOutOfRangePanics)
{
    EXPECT_THROW(flipBit(0, 32), PanicError);
}

TEST(BitsTest, BitsFieldExtract)
{
    EXPECT_EQ(bitsField(0xabcd1234, 0, 4), 0x4u);
    EXPECT_EQ(bitsField(0xabcd1234, 8, 8), 0x12u);
    EXPECT_EQ(bitsField(0xabcd1234, 28, 4), 0xau);
    EXPECT_EQ(bitsField(0xffffffff, 0, 32), 0xffffffffu);
}

TEST(BitsTest, InsertFieldRoundTrip)
{
    uint32_t word = 0;
    word = insertField(word, 4, 8, 0x5a);
    EXPECT_EQ(bitsField(word, 4, 8), 0x5au);
    word = insertField(word, 4, 8, 0x01);
    EXPECT_EQ(bitsField(word, 4, 8), 0x01u);
}

TEST(BitsTest, InsertFieldOverflowPanics)
{
    EXPECT_THROW(insertField(0, 0, 4, 0x10), PanicError);
}

TEST(BitsTest, SignExtend)
{
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0xffffffff, 32), -1);
    EXPECT_EQ(signExtend(0x1, 1), -1);
    EXPECT_EQ(signExtend(0x0, 1), 0);
}

// ---- tables -------------------------------------------------------------

TEST(TableTest, AlignsColumns)
{
    Table t({"Name", "Value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream oss;
    t.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("Name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
    EXPECT_EQ(t.columnCount(), 2u);
}

TEST(TableTest, RowArityMismatchPanics)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(TableTest, EmptyHeaderPanics)
{
    EXPECT_THROW(Table({}), PanicError);
}

TEST(TableTest, CsvQuotesSpecials)
{
    Table t({"a", "b"});
    t.addRow({"plain", "with,comma"});
    t.addRow({"quote\"inside", "line\nbreak"});
    std::ostringstream oss;
    t.printCsv(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(TableTest, Formatters)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
    EXPECT_EQ(formatPercent(0.125, 1), "12.5%");
    EXPECT_EQ(formatPercent(1.0, 0), "100%");
}

// ---- chart ---------------------------------------------------------------

TEST(ChartTest, RendersSeriesAndThreshold)
{
    AsciiChart chart("Demo", "x", "y", 32, 10);
    Series s;
    s.name = "line";
    s.marker = '*';
    s.xs = {0, 1, 2, 3};
    s.ys = {0, 1, 4, 9};
    chart.addSeries(s);
    chart.setThreshold(5.0, "limit");
    std::ostringstream oss;
    chart.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("Demo"), std::string::npos);
    EXPECT_NE(out.find("line"), std::string::npos);
    EXPECT_NE(out.find("limit"), std::string::npos);
    EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(ChartTest, EmptyChartSaysNoData)
{
    AsciiChart chart("Empty", "x", "y");
    std::ostringstream oss;
    chart.print(oss);
    EXPECT_NE(oss.str().find("(no data)"), std::string::npos);
}

TEST(ChartTest, MismatchedSeriesPanics)
{
    AsciiChart chart("Bad", "x", "y");
    Series s;
    s.xs = {1, 2};
    s.ys = {1};
    EXPECT_THROW(chart.addSeries(s), PanicError);
}

// ---- logging ---------------------------------------------------------------

TEST(LoggingTest, PanicAndFatalThrow)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
    EXPECT_THROW(fatal("bad config: ", "x"), FatalError);
    try {
        panic("value=", 7);
    } catch (const PanicError &err) {
        EXPECT_NE(std::string(err.what()).find("value=7"),
                  std::string::npos);
    }
}

TEST(LoggingTest, QuietToggle)
{
    setQuiet(true);
    EXPECT_TRUE(isQuiet());
    setQuiet(false);
    EXPECT_FALSE(isQuiet());
}

} // namespace
