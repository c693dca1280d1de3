#include "core/query.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "core/vulnerability_report.hh"
#include "fault/policy.hh"
#include "store/index.hh"
#include "store/json.hh"
#include "store/result_store.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"
#include "workloads/workload.hh"

namespace etc::core {

namespace {

constexpr struct
{
    QueryAgg agg;
    const char *name;
} AGG_NAMES[] = {
    {QueryAgg::Cells, "cells"},   {QueryAgg::Coverage, "coverage"},
    {QueryAgg::Curve, "curve"},   {QueryAgg::Delta, "delta"},
    {QueryAgg::Cdf, "cdf"},       {QueryAgg::Avf, "avf"},
};

/** Integer tallies summed across the cells of one rollup group.
 *  Rates derive from the sums (not from averaging per-cell rates),
 *  so groups mixing different trial counts stay exact. */
struct GroupStats
{
    uint64_t cells = 0;
    uint64_t trials = 0;
    uint64_t completed = 0;
    uint64_t crashed = 0;
    uint64_t timedOut = 0;
    uint64_t pruned = 0;
    uint64_t acceptable = 0;
    double fidelitySum = 0.0;
    std::vector<double> fidelities;

    void
    fold(const CellSummary &summary)
    {
        ++cells;
        trials += summary.trials;
        completed += summary.completed;
        crashed += summary.crashed;
        timedOut += summary.timedOut;
        pruned += summary.trialsPruned;
        for (const auto &score : summary.fidelities) {
            if (score.acceptable)
                ++acceptable;
            fidelitySum += score.value;
            fidelities.push_back(score.value);
        }
    }

    double
    failureRate() const
    {
        return trials ? static_cast<double>(crashed + timedOut) /
                            static_cast<double>(trials)
                      : 0.0;
    }

    double
    acceptableRate() const
    {
        return trials ? static_cast<double>(acceptable) /
                            static_cast<double>(trials)
                      : 0.0;
    }

    double
    meanFidelity() const
    {
        return fidelities.empty()
                   ? 0.0
                   : fidelitySum /
                         static_cast<double>(fidelities.size());
    }
};

/** Nearest-rank quantile over @p sorted (NaNs sorted last). */
double
quantile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t index =
        p <= 0.0 ? 0
                 : static_cast<size_t>(
                       std::ceil(p * static_cast<double>(sorted.size()))) -
                       1;
    return sorted[std::min(index, sorted.size() - 1)];
}

struct RowSet
{
    std::string json; //!< comma-joined row objects
    std::vector<std::vector<std::string>> table;

    void
    add(const store::JsonObjectWriter &row,
        std::vector<std::string> cells)
    {
        if (!json.empty())
            json += ',';
        json += row.str();
        table.push_back(std::move(cells));
    }
};

} // namespace

const char *
queryAggName(QueryAgg agg)
{
    for (const auto &entry : AGG_NAMES)
        if (entry.agg == agg)
            return entry.name;
    return "cells";
}

QueryAgg
parseQueryAgg(const std::string &name)
{
    for (const auto &entry : AGG_NAMES)
        if (name == entry.name)
            return entry.agg;
    throw QueryError("unknown aggregation \"" + name +
                     "\" (expected one of: " + queryAggNames() + ")");
}

std::string
queryAggNames()
{
    std::string names;
    for (const auto &entry : AGG_NAMES) {
        if (!names.empty())
            names += ", ";
        names += entry.name;
    }
    return names;
}

bool
QueryFilter::matches(const store::CellKey &key) const
{
    if (!workload.empty() && key.workload != workload)
        return false;
    if (!policies.empty() &&
        std::find(policies.begin(), policies.end(), key.policy) ==
            policies.end())
        return false;
    if (!errors.empty() &&
        std::find(errors.begin(), errors.end(), key.errors) ==
            errors.end())
        return false;
    if (seed && key.seed != *seed)
        return false;
    if (trials && key.trials != *trials)
        return false;
    return true;
}

QueryReport
runQuery(const std::string &cacheRoot, const QueryOptions &options)
{
    store::StoreIndex index(cacheRoot);
    store::ResultStore store(cacheRoot);
    return runQuery(index, store, options);
}

QueryReport
runQuery(store::StoreIndex &index, store::ResultStore &store,
         const QueryOptions &options)
{
    const char *aggName = queryAggName(options.agg);
    telemetry::TraceSpan span("query", aggName);
    auto start = std::chrono::steady_clock::now();
    telemetry::counter("etc_query_requests_total",
                       "agg=\"" + std::string(aggName) + "\"",
                       "Archive queries served, by aggregation")
        .add();

    // An invalid request must fail before any archive work, on the
    // names `etc_lab query` refuses as flags: a typo is an error, not
    // an empty rollup.
    if (options.agg == QueryAgg::Avf && options.filter.workload.empty())
        throw QueryError("agg=avf requires a workload filter (the static "
                         "analysis is per program)");
    if (!options.filter.workload.empty()) {
        const auto &names = workloads::workloadNames();
        if (std::find(names.begin(), names.end(),
                      options.filter.workload) == names.end())
            throw QueryError("unknown workload \"" +
                             options.filter.workload + "\"");
    }
    auto checkPolicy = [](const std::string &policy) {
        if (!fault::findInjectionPolicy(policy))
            throw QueryError("unknown injection policy \"" + policy +
                             "\" (known: " +
                             fault::injectionPolicyNames() + ")");
    };
    for (const std::string &policy : options.filter.policies)
        checkPolicy(policy);
    checkPolicy(options.basePolicy);

    index.load();

    QueryReport report;
    std::vector<std::pair<std::string, const store::CellKey *>> matched;
    for (const auto &[fingerprint, entry] : index.entries()) {
        if (!entry.complete)
            continue;
        ++report.cellsIndexed;
        if (options.filter.matches(entry.key))
            matched.emplace_back(fingerprint, &entry.key);
    }
    report.cellsMatched = matched.size();
    uint64_t trialsCovered = 0;
    for (const auto &[fingerprint, key] : matched)
        trialsCovered += key->trials;

    RowSet rows;
    std::vector<std::string> header;

    switch (options.agg) {
    case QueryAgg::Cells: {
        header = {"fingerprint", "workload", "policy",
                  "errors",      "trials",   "seed"};
        for (const auto &[fingerprint, key] : matched) {
            store::JsonObjectWriter row;
            row.field("fingerprint", fingerprint)
                .field("workload", key->workload)
                .field("policy", key->policy)
                .field("errors", uint64_t{key->errors})
                .field("trials", uint64_t{key->trials})
                .field("seed", store::hexU64(key->seed));
            rows.add(row, {fingerprint, key->workload, key->policy,
                           std::to_string(key->errors),
                           std::to_string(key->trials),
                           store::hexU64(key->seed)});
        }
        break;
    }

    case QueryAgg::Coverage: {
        header = {"workload", "policy", "cells", "error counts",
                  "trials"};
        struct Coverage
        {
            uint64_t cells = 0;
            uint64_t trials = 0;
            std::set<unsigned> errorCounts;
        };
        std::map<std::pair<std::string, std::string>, Coverage> groups;
        for (const auto &[fingerprint, key] : matched) {
            Coverage &cov = groups[{key->workload, key->policy}];
            ++cov.cells;
            cov.trials += key->trials;
            cov.errorCounts.insert(key->errors);
        }
        for (const auto &[group, cov] : groups) {
            store::JsonObjectWriter row;
            row.field("workload", group.first)
                .field("policy", group.second)
                .field("cells", cov.cells)
                .field("errorCounts", uint64_t{cov.errorCounts.size()})
                .field("trials", cov.trials);
            rows.add(row, {group.first, group.second,
                           std::to_string(cov.cells),
                           std::to_string(cov.errorCounts.size()),
                           std::to_string(cov.trials)});
        }
        break;
    }

    case QueryAgg::Curve: {
        header = {"workload", "policy",    "errors",
                  "cells",    "trials",    "completed",
                  "crashed",  "timed out", "pruned",
                  "failure",  "acceptable", "mean fidelity"};
        std::map<std::tuple<std::string, std::string, unsigned>,
                 GroupStats>
            groups;
        for (const auto &[fingerprint, key] : matched) {
            const store::CellRecord *record =
                store.readCell(fingerprint, key);
            if (!record)
                continue;
            ++report.recordsLoaded;
            groups[{key->workload, key->policy, key->errors}].fold(
                record->summary);
        }
        for (const auto &[group, stats] : groups) {
            const auto &[workload, policy, errors] = group;
            store::JsonObjectWriter row;
            row.field("workload", workload)
                .field("policy", policy)
                .field("errors", uint64_t{errors})
                .field("cells", stats.cells)
                .field("trials", stats.trials)
                .field("completed", stats.completed)
                .field("crashed", stats.crashed)
                .field("timedOut", stats.timedOut)
                .field("trialsPruned", stats.pruned)
                .field("failureRate",
                       store::readableDouble(stats.failureRate()))
                .field("acceptableRate",
                       store::readableDouble(stats.acceptableRate()))
                .field("meanFidelity",
                       store::readableDouble(stats.meanFidelity()));
            rows.add(row,
                     {workload, policy, std::to_string(errors),
                      std::to_string(stats.cells),
                      std::to_string(stats.trials),
                      std::to_string(stats.completed),
                      std::to_string(stats.crashed),
                      std::to_string(stats.timedOut),
                      std::to_string(stats.pruned),
                      formatPercent(stats.failureRate()),
                      formatPercent(stats.acceptableRate()),
                      formatDouble(stats.meanFidelity(), 3)});
        }
        break;
    }

    case QueryAgg::Delta: {
        header = {"workload",     "errors",
                  "policy",       "failure",
                  "base failure", "d-failure",
                  "acceptable",   "base acceptable",
                  "d-acceptable"};
        std::map<std::pair<std::string, unsigned>,
                 std::map<std::string, GroupStats>>
            groups;
        for (const auto &[fingerprint, key] : matched) {
            const store::CellRecord *record =
                store.readCell(fingerprint, key);
            if (!record)
                continue;
            ++report.recordsLoaded;
            groups[{key->workload, key->errors}][key->policy].fold(
                record->summary);
        }
        for (const auto &[group, byPolicy] : groups) {
            auto baseIt = byPolicy.find(options.basePolicy);
            if (baseIt == byPolicy.end())
                continue;
            const GroupStats &base = baseIt->second;
            for (const auto &[policy, stats] : byPolicy) {
                if (policy == options.basePolicy)
                    continue;
                double dFailure =
                    stats.failureRate() - base.failureRate();
                double dAcceptable =
                    stats.acceptableRate() - base.acceptableRate();
                store::JsonObjectWriter row;
                row.field("workload", group.first)
                    .field("errors", uint64_t{group.second})
                    .field("policy", policy)
                    .field("failureRate",
                           store::readableDouble(stats.failureRate()))
                    .field("baseFailureRate",
                           store::readableDouble(base.failureRate()))
                    .field("deltaFailureRate",
                           store::readableDouble(dFailure))
                    .field("acceptableRate",
                           store::readableDouble(stats.acceptableRate()))
                    .field("baseAcceptableRate",
                           store::readableDouble(base.acceptableRate()))
                    .field("deltaAcceptableRate",
                           store::readableDouble(dAcceptable))
                    .field("meanFidelity",
                           store::readableDouble(stats.meanFidelity()))
                    .field("baseMeanFidelity",
                           store::readableDouble(base.meanFidelity()));
                rows.add(row,
                         {group.first, std::to_string(group.second),
                          policy, formatPercent(stats.failureRate()),
                          formatPercent(base.failureRate()),
                          formatPercent(dFailure),
                          formatPercent(stats.acceptableRate()),
                          formatPercent(base.acceptableRate()),
                          formatPercent(dAcceptable)});
            }
        }
        break;
    }

    case QueryAgg::Cdf: {
        header = {"workload", "policy", "n",   "mean", "min",
                  "p10",      "p25",    "p50", "p75",  "p90",
                  "max"};
        std::map<std::pair<std::string, std::string>, GroupStats>
            groups;
        for (const auto &[fingerprint, key] : matched) {
            const store::CellRecord *record =
                store.readCell(fingerprint, key);
            if (!record)
                continue;
            ++report.recordsLoaded;
            groups[{key->workload, key->policy}].fold(record->summary);
        }
        for (auto &[group, stats] : groups) {
            if (stats.fidelities.empty())
                continue;
            // NaN scores (a workload with no defined fidelity for
            // that outcome) sort last so quantiles stay ordered.
            std::sort(stats.fidelities.begin(), stats.fidelities.end(),
                      [](double a, double b) {
                          if (std::isnan(a))
                              return false;
                          if (std::isnan(b))
                              return true;
                          return a < b;
                      });
            const auto &sorted = stats.fidelities;
            store::JsonObjectWriter row;
            row.field("workload", group.first)
                .field("policy", group.second)
                .field("count", uint64_t{sorted.size()})
                .field("mean", store::readableDouble(stats.meanFidelity()))
                .field("min", store::readableDouble(quantile(sorted, 0.0)))
                .field("p10", store::readableDouble(quantile(sorted, 0.10)))
                .field("p25", store::readableDouble(quantile(sorted, 0.25)))
                .field("p50", store::readableDouble(quantile(sorted, 0.50)))
                .field("p75", store::readableDouble(quantile(sorted, 0.75)))
                .field("p90", store::readableDouble(quantile(sorted, 0.90)))
                .field("max", store::readableDouble(quantile(sorted, 1.0)));
            rows.add(row,
                     {group.first, group.second,
                      std::to_string(sorted.size()),
                      formatDouble(stats.meanFidelity(), 3),
                      formatDouble(quantile(sorted, 0.0), 3),
                      formatDouble(quantile(sorted, 0.10), 3),
                      formatDouble(quantile(sorted, 0.25), 3),
                      formatDouble(quantile(sorted, 0.50), 3),
                      formatDouble(quantile(sorted, 0.75), 3),
                      formatDouble(quantile(sorted, 0.90), 3),
                      formatDouble(quantile(sorted, 1.0), 3)});
        }
        break;
    }

    case QueryAgg::Avf: {
        header = {"workload",  "policy",           "errors",
                  "avf lower", "avf upper",        "measured failure",
                  "measured acceptable"};
        std::set<std::string> policyNames;
        std::map<std::pair<std::string, unsigned>, GroupStats> groups;
        for (const auto &[fingerprint, key] : matched) {
            if (!fault::findInjectionPolicy(key->policy))
                continue; // archived under a policy this build lacks
            const store::CellRecord *record =
                store.readCell(fingerprint, key);
            if (!record)
                continue;
            ++report.recordsLoaded;
            policyNames.insert(key->policy);
            groups[{key->policy, key->errors}].fold(record->summary);
        }
        if (!policyNames.empty()) {
            // The one simulation here is the fault-free golden run
            // weighting the static sites, once per process for each
            // (workload, policies); it executes zero injection trials
            // (etc_trials_simulated_total is untouched).
            auto analysis = vulnerabilityReportOf(
                options.filter.workload,
                std::vector<std::string>(policyNames.begin(),
                                         policyNames.end()));
            for (const auto &policy : analysis->policies) {
                for (const auto &[group, stats] : groups) {
                    if (group.first != policy.policy)
                        continue;
                    store::JsonObjectWriter row;
                    row.field("workload", options.filter.workload)
                        .field("policy", policy.policy)
                        .field("errors", uint64_t{group.second})
                        .field("avfLower",
                               store::readableDouble(policy.avfLower()))
                        .field("avfUpper",
                               store::readableDouble(policy.avfUpper()))
                        .field("staticSites",
                               uint64_t{policy.staticSites})
                        .field("maskedSites",
                               uint64_t{policy.maskedSites})
                        .field("aceSites", uint64_t{policy.aceSites})
                        .field("failureRate",
                               store::readableDouble(stats.failureRate()))
                        .field("acceptableRate",
                               store::readableDouble(stats.acceptableRate()));
                    rows.add(row,
                             {options.filter.workload, policy.policy,
                              std::to_string(group.second),
                              formatPercent(policy.avfLower()),
                              formatPercent(policy.avfUpper()),
                              formatPercent(stats.failureRate()),
                              formatPercent(stats.acceptableRate())});
                }
            }
        }
        break;
    }
    }

    // One envelope for every surface: the daemon serves these bytes
    // verbatim and the CLI prints them, so the parity CI can cmp.
    store::JsonObjectWriter envelope;
    envelope.field("agg", aggName);
    if (!options.filter.workload.empty())
        envelope.field("workload", options.filter.workload);
    if (!options.filter.policies.empty()) {
        std::string list = "[";
        for (const auto &policy : options.filter.policies) {
            if (list.size() > 1)
                list += ',';
            list += store::jsonQuote(policy);
        }
        list += ']';
        envelope.rawField("policies", list);
    }
    if (!options.filter.errors.empty()) {
        std::string list = "[";
        for (unsigned errors : options.filter.errors) {
            if (list.size() > 1)
                list += ',';
            list += std::to_string(errors);
        }
        list += ']';
        envelope.rawField("errors", list);
    }
    if (options.filter.seed)
        envelope.field("seed", store::hexU64(*options.filter.seed));
    if (options.filter.trials)
        envelope.field("trials", uint64_t{*options.filter.trials});
    if (options.agg == QueryAgg::Delta)
        envelope.field("base", options.basePolicy);
    envelope.field("cellsIndexed", report.cellsIndexed)
        .field("cellsMatched", report.cellsMatched)
        .field("recordsLoaded", report.recordsLoaded)
        .field("trialsCovered", trialsCovered)
        .rawField("rows", "[" + rows.json + "]");
    report.json = envelope.str();

    report.table = Table(header);
    for (auto &row : rows.table)
        report.table.addRow(std::move(row));

    telemetry::histogram(
        "etc_query_seconds",
        "Wall time per archive query (index load to rendered rows)",
        {0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5})
        .observe(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    return report;
}

} // namespace etc::core
