/**
 * @file
 * Shared checks of the sharding contract: a CampaignRunner::runRange()
 * shard is exactly its slice of the whole cell, outcome by outcome,
 * and its tallies count exactly those outcomes. The result store
 * concatenates shard summaries in trial order, so this is what makes
 * a sharded cell bit-identical to a monolithic one; the summary-level
 * check holds stripe summaries to that concatenation.
 */

#ifndef ETC_TESTS_SHARD_SLICE_HH
#define ETC_TESTS_SHARD_SLICE_HH

#include <gtest/gtest.h>

#include <vector>

#include "core/study.hh"
#include "fault/campaign.hh"
#include "store/cell_key.hh"

inline void
expectShardIsSliceOf(const etc::fault::CampaignResult &whole,
                     const etc::fault::CampaignResult &shard)
{
    ASSERT_EQ(shard.outcomes.size(), shard.trials);
    ASSERT_LE(shard.firstTrial + shard.trials, whole.outcomes.size());
    unsigned completed = 0, timedOut = 0;
    for (size_t i = 0; i < shard.outcomes.size(); ++i) {
        uint64_t trial = shard.firstTrial + i;
        const auto &expected = whole.outcomes[trial];
        const auto &actual = shard.outcomes[i];
        EXPECT_EQ(actual.run.status, expected.run.status)
            << "trial " << trial;
        EXPECT_EQ(actual.run.instructions, expected.run.instructions)
            << "trial " << trial;
        EXPECT_EQ(actual.injected, expected.injected)
            << "trial " << trial;
        EXPECT_EQ(actual.output, expected.output) << "trial " << trial;
        completed += actual.run.status == etc::sim::RunStatus::Completed;
        timedOut += actual.run.status == etc::sim::RunStatus::Timeout;
    }
    EXPECT_EQ(shard.completed, completed);
    EXPECT_EQ(shard.timedOut, timedOut);
    EXPECT_EQ(shard.crashed, shard.trials - completed - timedOut);
}

/**
 * Stripe summaries that tile a cell in trial order are its slices:
 * each stripe's fidelities are its run of the cell's, bit for bit, and
 * the stripes' tallies sum to the cell's.
 */
inline void
expectStripesTileCell(const etc::core::CellSummary &cell,
                      const std::vector<etc::core::CellSummary> &stripes)
{
    unsigned trials = 0, completed = 0, crashed = 0, timedOut = 0;
    uint64_t instructions = 0;
    size_t next = 0;
    for (const auto &stripe : stripes) {
        ASSERT_EQ(stripe.fidelities.size(), stripe.completed);
        ASSERT_LE(next + stripe.completed, cell.fidelities.size());
        for (const auto &score : stripe.fidelities) {
            const auto &expected = cell.fidelities[next++];
            EXPECT_EQ(etc::store::doubleBits(score.value),
                      etc::store::doubleBits(expected.value))
                << "fidelity " << next - 1;
            EXPECT_EQ(score.acceptable, expected.acceptable);
        }
        trials += stripe.trials;
        completed += stripe.completed;
        crashed += stripe.crashed;
        timedOut += stripe.timedOut;
        instructions += stripe.totalInstructions;
    }
    EXPECT_EQ(next, cell.fidelities.size());
    EXPECT_EQ(trials, cell.trials);
    EXPECT_EQ(completed, cell.completed);
    EXPECT_EQ(crashed, cell.crashed);
    EXPECT_EQ(timedOut, cell.timedOut);
    EXPECT_EQ(instructions, cell.totalInstructions);
}

#endif // ETC_TESTS_SHARD_SLICE_HH
