/**
 * @file
 * Archive query engine: cross-cell rollups computed entirely from the
 * result store and its secondary index, never re-simulating a trial.
 *
 * The store holds one record per campaign cell; this layer answers
 * the questions the paper's figures are built from -- "how does the
 * failure rate grow with error count?", "what did protection buy over
 * the unprotected baseline?", "what is the fidelity distribution?" --
 * over whatever cells a cache directory has accumulated, filtered by
 * any subset of the key axes (workload, policy, error count, seed,
 * trial count).
 *
 * One render path serves every surface: runQuery() returns both the
 * canonical single-line JSON envelope and a formatted text table
 * built from the same aggregates, and `etc_lab query --json` prints
 * the JSON bytes the daemon serves at GET /v1/query, so CI can cmp
 * the two (report/figures and analyze/analysis follow the same
 * contract).
 *
 * Determinism: aggregation folds decoded records in index
 * (fingerprint) order with integer tallies and bit-exact stored
 * doubles, and the envelope carries no timestamps, so a query over an
 * unchanged archive returns identical bytes from any process.
 */

#ifndef ETC_CORE_QUERY_HH
#define ETC_CORE_QUERY_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/table.hh"

namespace etc::store {
struct CellKey;
}

namespace etc::core {

/** Rollup kinds computable from the archive. */
enum class QueryAgg
{
    Cells,    //!< list matched cells (index only, no record loads)
    Coverage, //!< per workload x policy cell/trial totals (index only)
    Curve,    //!< outcome rates per workload x policy x error count
    Delta,    //!< per-policy outcome deltas against a base policy
    Cdf,      //!< fidelity distribution quantiles per workload x policy
    Avf,      //!< static AVF bounds joined with measured rates
};

/** @return the wire name of @p agg ("cells", "curve", ...). */
const char *queryAggName(QueryAgg agg);

/** Parse a wire name; throws QueryError on an unknown one. */
QueryAgg parseQueryAgg(const std::string &name);

/** Comma-separated list of every aggregation name (for usage text). */
std::string queryAggNames();

/** Rejected queries (unknown aggregation, filter the aggregation
 *  cannot run with, unknown workload or policy name). The service
 *  maps this to HTTP 400; the CLI prints it and exits nonzero. */
class QueryError : public std::runtime_error
{
  public:
    explicit QueryError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Conjunction of per-axis filters; empty/unset axes match any. */
struct QueryFilter
{
    std::string workload;              //!< exact workload name
    std::vector<std::string> policies; //!< any of these policy names
    std::vector<unsigned> errors;      //!< any of these error counts
    std::optional<uint64_t> seed;
    std::optional<unsigned> trials;

    bool matches(const store::CellKey &key) const;
};

struct QueryOptions
{
    QueryFilter filter;
    QueryAgg agg = QueryAgg::Cells;
    /** Baseline policy for QueryAgg::Delta. */
    std::string basePolicy = "protected";
};

/** One query's rendered results plus its cost counters. */
struct QueryReport
{
    /** The canonical JSON envelope (single line, no trailing
     *  newline): GET /v1/query serves exactly these bytes and
     *  `etc_lab query --json` prints them. */
    std::string json;

    /** The same aggregates as a column-aligned table (CLI default).
     *  Initialized with a placeholder header (Table rejects an empty
     *  one); runQuery() always replaces it with the agg's columns. */
    Table table = Table({"(empty)"});

    uint64_t cellsIndexed = 0;  //!< complete cells in the index
    uint64_t cellsMatched = 0;  //!< cells passing the filter
    uint64_t recordsLoaded = 0; //!< record bodies decoded
};

/**
 * Run one query over the archive at @p cacheRoot.
 *
 * Loads the secondary index, folds the matching stored records, and
 * renders the rollup. Never simulates: the store is only ever read
 * (an indexed-but-unreadable record warns and is skipped, exactly
 * like every other store read path).
 *
 * @throws QueryError on an invalid request (never on archive state)
 */
QueryReport runQuery(const std::string &cacheRoot,
                     const QueryOptions &options);

} // namespace etc::core

#endif // ETC_CORE_QUERY_HH
