/**
 * @file
 * etc_lab: unified campaign orchestration CLI over the result store
 * and the campaign service (src/service/).
 *
 * Two tables in lab.cc are the one list of what it accepts: a row per
 * subcommand (its handler, the flags its code reads, the flags it
 * requires, its help) and a row per flag (its value placeholder, the
 * parser that stores it, its help). Parsing, dispatch and `etc_lab
 * --help` all read them. A subcommand refuses (exit 1) every flag its
 * row does not list, so no flag is ever silently dropped; an unknown
 * flag prints usage and exits 2.
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
