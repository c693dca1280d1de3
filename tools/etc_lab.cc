/**
 * @file
 * etc_lab executable: persistent-result-store campaign orchestration
 * (run / resume / report / list), the campaign service
 * (serve / submit / status / fetch), and the static-analysis
 * front end (analyze / lint -- the masked-fault prover's ACE/AVF
 * report and the assembly lint gate, nonzero exit on findings). It is
 * the one driver of the paper's figure sweeps; all logic lives in
 * bench/lab.cc, next to the registry and renderer it shares with the
 * daemon.
 */

#include <malloc.h>

#include "bench/lab.hh"

int
main(int argc, char **argv)
{
    // One malloc arena for every thread. Campaign workers free each
    // trial's output as soon as it is scored; per-thread arenas would
    // each keep their share of those freed pages, so peak RSS would
    // grow with the thread count for no gain in speed.
    mallopt(M_ARENA_MAX, 1);
    return etc::bench::labMain(argc, argv);
}
