#include "telemetry/metrics.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "support/logging.hh"
#include "support/table.hh"

namespace etc::telemetry {

namespace {

/** Bucket bounds render compactly (they are human-chosen constants). */
std::string
formatBound(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
}

void
atomicAddDouble(std::atomic<double> &target, double delta) noexcept
{
    // CAS loop instead of C++20 fetch_add(double): identical
    // semantics, no dependence on libstdc++ floating-atomic support.
    double current = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
}

enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
};

const char *
kindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "unknown";
}

/** One registered (family, labels) series. */
struct Series
{
    std::string family;
    std::string labels; //!< rendered label body, "" for none
    std::string help;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
};

std::chrono::steady_clock::time_point
processEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

/**
 * The process-wide registry. Lookup/registration is mutex-guarded
 * (cold: call sites cache the returned reference in a static);
 * increments on the returned metrics never touch the registry again.
 */
class Registry
{
  public:
    static Registry &
    instance()
    {
        static Registry registry;
        return registry;
    }

    Registry() { processEpoch(); } //!< pin the uptime epoch early

    Series &
    lookup(const std::string &name, const std::string &labels,
           MetricKind kind)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::string key = name + "\x1f" + labels;
        auto it = index_.find(key);
        if (it != index_.end()) {
            Series &series = *entries_[it->second];
            if (series.kind != kind)
                panic("telemetry: metric '", name,
                      "' registered as both ", kindName(series.kind),
                      " and ", kindName(kind));
            return series;
        }
        auto series = std::make_unique<Series>();
        series->family = name;
        series->labels = labels;
        series->kind = kind;
        index_[key] = entries_.size();
        entries_.push_back(std::move(series));
        return *entries_.back();
    }

    std::string
    render()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Group families in first-registration order: exposition
        // format requires every sample of a family to sit under one
        // # HELP/# TYPE header, but labeled series register lazily in
        // arbitrary interleavings.
        std::vector<std::string> familyOrder;
        std::map<std::string, std::vector<const Series *>> families;
        for (const auto &series : entries_) {
            auto [it, inserted] = families.try_emplace(series->family);
            if (inserted)
                familyOrder.push_back(series->family);
            it->second.push_back(series.get());
        }

        std::string out;
        for (const auto &family : familyOrder) {
            const auto &group = families[family];
            const std::string &help = [&]() -> const std::string & {
                for (const Series *series : group)
                    if (!series->help.empty())
                        return series->help;
                return group.front()->help;
            }();
            out += "# HELP " + family + " " + help + "\n";
            out += "# TYPE " + family + " " +
                   kindName(group.front()->kind) + "\n";
            for (const Series *series : group)
                renderSeries(out, *series);
        }
        return out;
    }

  private:
    static void
    renderSeries(std::string &out, const Series &series)
    {
        std::string suffix = series.labels.empty()
                                 ? std::string()
                                 : "{" + series.labels + "}";
        switch (series.kind) {
          case MetricKind::Counter:
            out += series.family + suffix + " " +
                   std::to_string(series.counter->value()) + "\n";
            return;
          case MetricKind::Gauge:
            out += series.family + suffix + " " +
                   std::to_string(series.gauge->value()) + "\n";
            return;
          case MetricKind::Histogram:
            break;
        }
        const Histogram &histogram = *series.histogram;
        auto counts = histogram.bucketCounts();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < histogram.bounds().size(); ++i) {
            cumulative += counts[i];
            out += series.family + "_bucket{le=\"" +
                   formatBound(histogram.bounds()[i]) + "\"} " +
                   std::to_string(cumulative) + "\n";
        }
        cumulative += counts.back();
        out += series.family + "_bucket{le=\"+Inf\"} " +
               std::to_string(cumulative) + "\n";
        out += series.family + "_sum " +
               readableDouble(histogram.sum()) + "\n";
        out += series.family + "_count " +
               std::to_string(cumulative) + "\n";
    }

    std::mutex mutex_;
    std::vector<std::unique_ptr<Series>> entries_;
    std::map<std::string, size_t> index_;
};

} // namespace

unsigned
shardSlot()
{
    static std::atomic<unsigned> nextThread{0};
    thread_local const unsigned slot =
        nextThread.fetch_add(1, std::memory_order_relaxed) %
        METRIC_SHARDS;
    return slot;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), shards_(METRIC_SHARDS)
{
    if (!std::is_sorted(bounds_.begin(), bounds_.end()))
        panic("telemetry: histogram bounds must be ascending");
    for (auto &shard : shards_)
        shard.buckets =
            std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
}

void
Histogram::observe(double value) noexcept
{
    // First bound >= value (le is inclusive); past-the-end = +Inf.
    size_t bucket = static_cast<size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
    Shard &shard = shards_[shardSlot()];
    shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    atomicAddDouble(shard.sum, value);
}

std::vector<uint64_t>
Histogram::bucketCounts() const
{
    std::vector<uint64_t> counts(bounds_.size() + 1, 0);
    for (const auto &shard : shards_)
        for (size_t i = 0; i < counts.size(); ++i)
            counts[i] +=
                shard.buckets[i].load(std::memory_order_relaxed);
    return counts;
}

uint64_t
Histogram::count() const noexcept
{
    uint64_t total = 0;
    for (const auto &shard : shards_)
        for (const auto &bucket : shard.buckets)
            total += bucket.load(std::memory_order_relaxed);
    return total;
}

double
Histogram::sum() const noexcept
{
    double total = 0.0;
    for (const auto &shard : shards_)
        total += shard.sum.load(std::memory_order_relaxed);
    return total;
}

Counter &
counter(const std::string &name, const std::string &help)
{
    return counter(name, std::string(), help);
}

Counter &
counter(const std::string &name, const std::string &labels,
        const std::string &help)
{
    Series &series =
        Registry::instance().lookup(name, labels, MetricKind::Counter);
    if (!series.counter) {
        series.help = help;
        series.counter = std::make_unique<Counter>();
    }
    return *series.counter;
}

Gauge &
gauge(const std::string &name, const std::string &help)
{
    return gauge(name, std::string(), help);
}

Gauge &
gauge(const std::string &name, const std::string &labels,
      const std::string &help)
{
    Series &series =
        Registry::instance().lookup(name, labels, MetricKind::Gauge);
    if (!series.gauge) {
        series.help = help;
        series.gauge = std::make_unique<Gauge>();
    }
    return *series.gauge;
}

Histogram &
histogram(const std::string &name, const std::string &help,
          std::vector<double> bounds)
{
    // Construct before registering: the bounds check may panic, and a
    // registered series must never be left without its metric.
    auto made = std::make_unique<Histogram>(std::move(bounds));
    Series &series = Registry::instance().lookup(
        name, std::string(), MetricKind::Histogram);
    if (!series.histogram) {
        series.help = help;
        series.histogram = std::move(made);
    }
    return *series.histogram;
}

std::string
escapeLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c; break;
        }
    }
    return out;
}

double
uptimeSeconds()
{
    std::chrono::duration<double> up =
        std::chrono::steady_clock::now() - processEpoch();
    return up.count();
}

const char *
versionString()
{
    // Tracks the PR sequence growing this reproduction.
    return "0.8.0";
}

std::string
buildFlags()
{
    std::string flags = std::string("compiler=") + __VERSION__;
#ifdef __OPTIMIZE__
    flags += ",optimized=yes";
#else
    flags += ",optimized=no";
#endif
#if defined(__GNUC__) && !defined(__clang__)
    flags += ",dispatch=threaded";
#else
    flags += ",dispatch=switch";
#endif
    return flags;
}

std::string
renderPrometheus()
{
    // Built-in process metrics, refreshed at scrape time.
    static Gauge &uptime = gauge(
        "etc_uptime_milliseconds",
        "Milliseconds since telemetry initialization (process start)");
    static Gauge &build = gauge(
        "etc_build_info",
        "version=\"" + std::string(versionString()) + "\",flags=\"" +
            escapeLabelValue(buildFlags()) + "\"",
        "Constant 1; version and build description in the labels");
    uptime.set(static_cast<int64_t>(uptimeSeconds() * 1000.0));
    build.set(1);
    return Registry::instance().render();
}

} // namespace etc::telemetry
