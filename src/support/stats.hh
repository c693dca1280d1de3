/**
 * @file
 * Small statistics helpers for campaign reporting: sample mean and
 * standard deviation, and the Wilson score interval for binomial
 * proportions (failure rates over Monte-Carlo trials).
 */

#ifndef ETC_SUPPORT_STATS_HH
#define ETC_SUPPORT_STATS_HH

#include <cstdint>
#include <vector>

namespace etc {

/** A two-sided confidence interval for a proportion. */
struct ProportionInterval
{
    double point = 0.0; //!< observed proportion
    double low = 0.0;   //!< lower bound
    double high = 0.0;  //!< upper bound
};

/**
 * Wilson score interval for @p successes out of @p trials.
 *
 * @param successes number of positive outcomes
 * @param trials    number of trials (0 yields the degenerate [0,1])
 * @param z         normal quantile (default 1.96 = 95% confidence)
 */
ProportionInterval wilsonInterval(uint64_t successes, uint64_t trials,
                                  double z = 1.96);

/** Sample mean (0 for an empty sample). */
double mean(const std::vector<double> &sample);

/** Unbiased sample standard deviation (0 for fewer than 2 points). */
double sampleStdDev(const std::vector<double> &sample);

} // namespace etc

#endif // ETC_SUPPORT_STATS_HH
