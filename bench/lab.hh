/**
 * @file
 * etc_lab: unified campaign orchestration CLI over the result store.
 *
 * Subcommands (one registry name per invocation: a paper figure or
 * table, a smoke sweep, or one of a table's sweeps):
 *
 *   run     execute the sweeps, persisting every cell to --cache-dir;
 *           stored cells are skipped outright, partially-stored cells
 *           resume from their shards, and each cell's --chunks stripes
 *           run as one pass, each persisted as a shard record as it
 *           ends, so a killed run loses at most the stripes in flight.
 *           Renders the figure or table when done.
 *   resume  alias of run that requires --cache-dir (documents intent
 *           after a kill; run already resumes from whatever exists).
 *   report  render the figure or table purely from stored records --
 *           no trials run; fails if any cell is missing.
 *   list    print the registry (name, headline, workloads, cell
 *           count, default trials, error counts).
 *
 * Campaign-service subcommands (src/service/):
 *
 *   serve   long-running HTTP daemon: submitted experiments/cells
 *           execute on an async worker pool over the result store;
 *           SIGINT/SIGTERM finishes and persists the stripes in
 *           flight, then exits with a summary.
 *   submit  POST a job to a daemon (optionally --wait until drained).
 *   status  GET a job's status and per-cell progress.
 *   fetch   GET a figure (byte-identical to `report` on the daemon's
 *           cache) or a stored cell record.
 *
 * A figure or table rendered by run, by report from the warm cache,
 * by a direct uncached run, and by GET /v1/figures/<name> is
 * byte-identical: records store fidelity values as IEEE-754 bit
 * patterns and cells are pure functions of their keys.
 */

#ifndef ETC_BENCH_LAB_HH
#define ETC_BENCH_LAB_HH

namespace etc::bench {

/** Full etc_lab entry point (argv parsing included). */
int labMain(int argc, char **argv);

} // namespace etc::bench

#endif // ETC_BENCH_LAB_HH
