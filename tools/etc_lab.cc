/**
 * @file
 * etc_lab executable: persistent-result-store campaign orchestration
 * (run / resume / merge / report / list), the campaign service
 * (serve / submit / status / fetch), and the static-analysis
 * front end (analyze / lint -- the masked-fault prover's ACE/AVF
 * report and the assembly lint gate, nonzero exit on findings). It is
 * the one driver of the paper's figure sweeps; all logic lives in
 * bench/lab.cc, next to the registry and renderer it shares with the
 * daemon.
 */

#include "bench/lab.hh"

int
main(int argc, char **argv)
{
    return etc::bench::labMain(argc, argv);
}
