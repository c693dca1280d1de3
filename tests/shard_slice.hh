/**
 * @file
 * Shared check of the sharding contract: a CampaignRunner::runRange()
 * shard is exactly its slice of the whole cell, outcome by outcome,
 * and its tallies count exactly those outcomes. The result store
 * concatenates shard summaries in trial order, so this is what makes
 * a sharded cell bit-identical to a monolithic one.
 */

#ifndef ETC_TESTS_SHARD_SLICE_HH
#define ETC_TESTS_SHARD_SLICE_HH

#include <gtest/gtest.h>

#include "fault/campaign.hh"

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

#endif // ETC_TESTS_SHARD_SLICE_HH
