#include "support/stats.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace etc {

ProportionInterval
wilsonInterval(uint64_t successes, uint64_t trials, double z)
{
    ProportionInterval out;
    if (trials == 0) {
        out.high = 1.0;
        return out;
    }
    if (successes > trials)
        panic("wilsonInterval: successes ", successes, " > trials ",
              trials);
    double n = static_cast<double>(trials);
    double p = static_cast<double>(successes) / n;
    out.point = p;
    double z2 = z * z;
    double denom = 1.0 + z2 / n;
    double centre = (p + z2 / (2.0 * n)) / denom;
    double margin =
        z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
    out.low = std::max(0.0, centre - margin);
    out.high = std::min(1.0, centre + margin);
    return out;
}

double
mean(const std::vector<double> &sample)
{
    if (sample.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : sample)
        sum += v;
    return sum / static_cast<double>(sample.size());
}

double
sampleStdDev(const std::vector<double> &sample)
{
    if (sample.size() < 2)
        return 0.0;
    double m = mean(sample);
    double sum = 0.0;
    for (double v : sample)
        sum += (v - m) * (v - m);
    return std::sqrt(sum / static_cast<double>(sample.size() - 1));
}

} // namespace etc
