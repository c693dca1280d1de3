#include "bench/experiments.hh"

#include "core/potential.hh"
#include "sim/simulator.hh"
#include "store/result_store.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"

namespace etc::bench {

namespace {

/** The plotted fidelity value of @p cell under @p exp. */
double
fidelityOf(const Experiment &exp, const core::CellSummary &cell)
{
    switch (exp.metric) {
      case FidelityMetric::Mean: return cell.meanFidelity();
      case FidelityMetric::MeanPercent:
        return 100.0 * cell.meanFidelity();
      case FidelityMetric::AcceptablePct:
        return 100.0 * cell.acceptableRate();
    }
    return 0.0;
}

/** Table 1: each application, its fidelity measure and its golden
 *  run. */
Table
renderApplications(const PaperTable &table, const std::vector<SweepPoints> &,
                   SweepStudies &studies)
{
    Table out({"Application", "Fidelity measure", "static instrs",
               "dynamic instrs", "golden fidelity"});
    for (const auto &row : table.rows) {
        const workloads::Workload &workload =
            *studies.of(row.study).workload;
        sim::Simulator golden(workload.program());
        auto run = golden.run();
        if (!run.completed())
            fatal(workload.name(), ": golden run failed: ",
                  run.toString());
        auto score =
            workload.scoreFidelity(golden.output(), golden.output());
        out.addRow({
            workload.name(),
            workload.fidelityMeasure(),
            std::to_string(workload.program().size()),
            std::to_string(run.instructions),
            formatDouble(score.value) + " " + score.unit +
                (score.acceptable ? " (ok)" : " (BAD)"),
        });
    }
    return out;
}

/** Table 2: protected and unprotected failure rates at the paper's
 *  error counts, each next to the paper's. */
Table
renderFailures(const PaperTable &table,
               const std::vector<SweepPoints> &points, SweepStudies &studies)
{
    Table out({"Algorithm", "Errors", "Total instrs",
               "% fail (protected)", "paper", "% fail (unprotected)",
               "paper"});
    for (size_t r = 0; r < table.rows.size(); ++r) {
        const TableRow &row = table.rows[r];
        std::string instructions = std::to_string(
            studies.of(row.study).study.profile().total);
        for (size_t i = 0; i < points[r].size(); ++i) {
            const SweepPoint &point = points[r][i];
            out.addRow({
                i == 0 ? row.study.workload : "",
                std::to_string(point.errors),
                instructions,
                formatPercent(point.cell(0).failureRate()),
                row.paper.at(2 * i),
                formatPercent(point.cell(1).failureRate()),
                row.paper.at(2 * i + 1),
            });
        }
    }
    return out;
}

/** Table 3: the dynamic share of instructions the analysis tags as
 *  low-reliability, next to the paper's. */
Table
renderLowReliability(const PaperTable &table,
                     const std::vector<SweepPoints> &, SweepStudies &studies)
{
    Table out({"Algorithm", "Instructions", "% low-reliability", "paper",
               "static tagged/ALU", "branches", "memory ops"});
    for (const auto &row : table.rows) {
        const core::ErrorToleranceStudy &study =
            studies.of(row.study).study;
        const sim::DynamicProfile &profile = study.profile();
        out.addRow({
            row.study.workload,
            std::to_string(profile.total),
            formatPercent(profile.taggedFraction()),
            row.paper.at(0),
            std::to_string(study.protection().numTagged) + "/" +
                std::to_string(study.protection().numAlu),
            std::to_string(profile.branches),
            std::to_string(profile.memoryOps),
        });
    }
    return out;
}

/** Section 5.3: selective against uniform protection cost under each
 *  redundancy scheme. */
Table
renderPotential(const PaperTable &table, const std::vector<SweepPoints> &,
                SweepStudies &studies)
{
    Table out({"Algorithm", "% low-reliability", "scheme",
               "uniform cost", "selective cost", "speedup",
               "budget saved"});
    for (const auto &row : table.rows) {
        const sim::DynamicProfile &profile =
            studies.of(row.study).study.profile();
        bool first = true;
        for (const auto &model : core::standardCostModels()) {
            auto estimate = core::estimatePotential(profile, model);
            out.addRow({
                first ? row.study.workload : "",
                first ? formatPercent(estimate.taggedFraction) : "",
                model.name,
                formatDouble(estimate.uniformCost, 1) + "x",
                formatDouble(estimate.selectiveCost) + "x",
                formatDouble(estimate.speedup()) + "x",
                formatPercent(estimate.savings()),
            });
            first = false;
        }
    }
    return out;
}

/** The ablations' shared layout: each variant's analysis next to its
 *  protected failure rate. */
Table
renderAblation(const PaperTable &table,
               const std::vector<SweepPoints> &points, SweepStudies &studies)
{
    Table out({"Algorithm", "Errors", "variant", "static tagged",
               "% dyn tagged", "% fail (protected)"});
    for (size_t r = 0; r < table.rows.size(); ++r) {
        const TableRow &row = table.rows[r];
        const core::ErrorToleranceStudy &study =
            studies.of(row.study).study;
        for (const SweepPoint &point : points[r])
            out.addRow({
                row.study.workload,
                std::to_string(point.errors),
                row.label,
                std::to_string(study.protection().numTagged),
                formatPercent(study.profile().taggedFraction()),
                formatPercent(point.cell(0).failureRate()),
            });
    }
    return out;
}

/** A row reading the bench-scale study of @p workload under the
 *  paper's analysis, running nothing. */
TableRow
profileRow(const std::string &workload,
           std::vector<std::string> paper = {})
{
    TableRow row;
    row.study.workload = workload;
    row.paper = std::move(paper);
    return row;
}

/** Sweep "<table>/<workload>[/<variant>]" of @p table at bench scale:
 *  @p errors under @p policies. */
TableRow
sweepRow(const PaperTable &table, const std::string &workload,
         const std::string &variant, const std::string &label,
         std::vector<unsigned> errors, unsigned trials,
         std::vector<std::string> policies)
{
    TableRow row;
    row.label = label;
    Experiment &sweep = row.study;
    sweep.name = table.name + "/" + workload;
    if (!variant.empty())
        sweep.name += "/" + variant;
    sweep.workload = workload;
    sweep.errorCounts = std::move(errors);
    sweep.defaultTrials = trials;
    sweep.policies = std::move(policies);
    return row;
}

/** An ablation's variant: sweep-name suffix, row label, and the study
 *  axis it sets. */
struct Variant
{
    const char *name;
    const char *label;
    void (*set)(Experiment &);
};

/** A sweep of @p table per (workload, errors) of @p cells and per
 *  variant: one protected cell of @p trials trials. */
void
addAblation(PaperTable &table,
            const std::vector<std::pair<std::string, unsigned>> &cells,
            unsigned trials, const std::vector<Variant> &variants)
{
    for (const auto &[app, errors] : cells) {
        for (const auto &variant : variants) {
            TableRow row =
                sweepRow(table, app, variant.name, variant.label, {errors},
                         trials, {fault::PROTECTED_POLICY});
            variant.set(row.study);
            table.rows.push_back(std::move(row));
        }
    }
}

std::vector<PaperTable>
buildPaperTables()
{
    using fault::PROTECTED_POLICY;
    using fault::UNPROTECTED_POLICY;
    const std::vector<std::string> &apps = workloads::workloadNames();

    PaperTable table1{"table1", "Table 1",
                      "Summary of applications and their fidelity "
                      "measures",
                      "", renderApplications, {}};
    for (const auto &app : apps)
        table1.rows.push_back(profileRow(app));

    PaperTable table2{"table2", "Table 2",
                      "Catastrophic failures with and without "
                      "protecting control data",
                      "paper columns: values reported by Thaker et al. "
                      "on 144M-42B instruction runs",
                      renderFailures, {}};
    struct Reported
    {
        const char *app;
        std::vector<unsigned> errors;
        /** % failures (protected, unprotected) at each error count. */
        std::vector<std::string> paper;
    };
    for (const auto &[app, errors, paper] : std::vector<Reported>{
             {"susan", {2200}, {"0%", "10%"}},
             {"mpeg", {20, 120}, {"0%", "100%", "0%", "100%"}},
             {"mcf", {1, 340}, {"0%", "100%", "6%", "100%"}},
             {"blowfish", {2, 20}, {"0%", "10%", "19%", "48%"}},
             {"gsm", {10, 40}, {"0%", "100%", "0%", "100%"}},
             {"art", {4}, {"0%", "0%"}},
             {"adpcm", {3, 56}, {"2%", "8.5%", "8%", "53.5%"}},
         }) {
        TableRow row = sweepRow(table2, app, "", "", errors, 30,
                                {PROTECTED_POLICY, UNPROTECTED_POLICY});
        row.paper = paper;
        table2.rows.push_back(std::move(row));
    }

    PaperTable table3{"table3", "Table 3",
                      "Dynamic instructions identified as "
                      "low-reliability (could run in an unreliable "
                      "environment)",
                      "shape to check: susan/adpcm high, blowfish/art "
                      "middling, gsm low, mcf lowest",
                      renderLowReliability,
                      {profileRow("susan", {"91.3%"}),
                       profileRow("mpeg", {"50.3%"}),
                       profileRow("mcf", {"8.9%"}),
                       profileRow("blowfish", {"62.4%"}),
                       profileRow("adpcm", {"93.26%"}),
                       profileRow("gsm", {"19.6%"}),
                       profileRow("art", {"70.8%"})}};

    PaperTable potential{"potential", "Section 5.3: future potential",
                         "Selective protection cost vs. uniform "
                         "protection, per application and redundancy "
                         "scheme",
                         "reading: susan/adpcm recover most of the TMR "
                         "budget; mcf, whose execution is control, "
                         "recovers almost nothing -- the paper's "
                         "Section 5.3 point",
                         renderPotential, {}};
    for (const auto &app : apps)
        potential.rows.push_back(profileRow(app));

    // Each ablation's first variant is the paper's configuration; mcf
    // tolerates the most errors.
    const std::vector<std::pair<std::string, unsigned>> ablated = {
        {"adpcm", 30}, {"blowfish", 30}, {"mcf", 50}};
    PaperTable addresses{"ablation_addresses",
                         "Ablation A: address protection",
                         "CVar with vs. without treating addresses as "
                         "control-like",
                         "expected: address protection lowers both the "
                         "tagged fraction and the residual failure rate",
                         renderAblation, {}};
    addAblation(addresses, ablated, 30,
                {{"paper", "paper", [](auto &) {}},
                 {"addresses", "paper + addresses", [](Experiment &exp) {
                      exp.protection.protectAddresses = true;
                  }}});

    PaperTable interproc{"ablation_interproc",
                         "Ablation C: interprocedural analysis",
                         "Tagged fractions and protected failure rates "
                         "with and without crossing procedure boundaries",
                         "expected: intraprocedural tags at least as much "
                         "and fails at least as often",
                         renderAblation, {}};
    std::vector<std::pair<std::string, unsigned>> at20;
    for (const auto &app : apps)
        at20.emplace_back(app, 20);
    addAblation(interproc, at20, 25,
                {{"interprocedural", "interprocedural (paper)",
                  [](auto &) {}},
                 {"intraprocedural", "intraprocedural",
                  [](Experiment &exp) {
                      exp.protection.interprocedural = false;
                  }}});

    PaperTable memory{"ablation_memory",
                      "Ablation B: memory model & memory tracking",
                      "SimpleScalar-like vs. bounds-checked memory; "
                      "no-disambiguation vs. conservative tracking",
                      "expected: strict memory and no-tracking both "
                      "raise residual failures; tracking shrinks the "
                      "tagged fraction",
                      renderAblation, {}};
    addAblation(memory, ablated, 30,
                {{"lenient", "lenient (SimpleScalar-like)", [](auto &) {}},
                 {"strict", "strict (bounds-checked)", [](Experiment &exp) {
                      exp.memoryModel = sim::MemoryModel::Strict;
                  }}});
    addAblation(memory, {{"mcf", 50}, {"gsm", 30}}, 30,
                {{"paper", "paper (no disambiguation)", [](auto &) {}},
                 {"tracking", "conservative memory tracking",
                  [](Experiment &exp) { exp.protection.trackMemory = true; }}});

    return {table1,    table2,    table3, potential,
            addresses, interproc, memory};
}

/** The policies each sweep of @p artifact runs under @p opts: a
 *  --policy override names one sweep's, so a table refuses it. */
std::vector<std::vector<std::string>>
artifactPolicies(const Artifact &artifact, const BenchOptions &opts)
{
    if (artifact.table && !opts.policies.empty())
        fatal("--policy overrides one sweep's policies, and '",
              artifact.name, "' is a paper table");
    std::vector<std::vector<std::string>> policies;
    for (const Experiment *sweep : artifact.sweeps)
        policies.push_back(sweepPolicies(*sweep, opts));
    return policies;
}

/** Print @p artifact over its sweeps' @p points (in sweep order): a
 *  figure under the studies' options' policies, or a table between
 *  its banner and footnote. */
void
renderArtifact(std::ostream &os, const Artifact &artifact,
               const std::vector<SweepPoints> &points,
               SweepStudies &studies)
{
    if (artifact.figure) {
        renderExperiment(os, *artifact.figure,
                         sweepPolicies(*artifact.figure, studies.options()),
                         points.at(0));
        return;
    }
    const PaperTable &table = *artifact.table;
    banner(os, table.experiment, table.caption);
    table.render(table, points, studies).print(os);
    if (!table.footnote.empty())
        os << "\n(" << table.footnote << ")\n";
}

/** The registered figure and smoke sweeps, figure order first. */
const std::vector<Experiment> &
experiments()
{
    static const std::vector<Experiment> registry = {
        {.name = "fig1",
         .experiment = "Figure 1",
         .caption = "Susan: PSNR of pictures with error vs. errors "
                    "inserted (threshold 10 dB)",
         .title = "Figure 1: Susan",
         .yLabel = "PSNR (dB)",
         .workload = "susan",
         .errorCounts = {100, 500, 920, 1100, 1550, 2300},
         .threshold = 10.0},
        {.name = "fig2",
         .experiment = "Figure 2",
         .caption = "MPEG: % bad frames and % failed executions vs. "
                    "errors inserted (threshold 10% bad frames)",
         .title = "Figure 2: MPEG",
         .yLabel = "% bad frames",
         .workload = "mpeg",
         .errorCounts = {25, 50, 100, 250, 500},
         .metric = FidelityMetric::MeanPercent,
         .threshold = 10.0},
        {.name = "fig3",
         .experiment = "Figure 3",
         .caption = "MCF: % optimal schedules found and % failed "
                    "executions vs. errors inserted",
         .title = "Figure 3: MCF",
         .yLabel = "% optimal schedules",
         .workload = "mcf",
         .errorCounts = {0, 1, 2, 5, 10, 20, 50},
         // Corrupted parent walks spin forever; a 4x budget detects
         // them without burning the full default timeout allowance.
         .budgetFactor = 4.0,
         .metric = FidelityMetric::AcceptablePct},
        {.name = "fig4",
         .experiment = "Figure 4",
         .caption = "Blowfish: % bytes correct and % failed executions "
                    "vs. errors inserted",
         .title = "Figure 4: Blowfish",
         .yLabel = "% bytes correct",
         .workload = "blowfish",
         .errorCounts = {1, 5, 10, 20, 30, 40},
         .defaultTrials = 20,
         .metric = FidelityMetric::MeanPercent},
        {.name = "fig5",
         .experiment = "Figure 5",
         .caption = "GSM: SNR vs. fault-free decode and % failed "
                    "executions vs. errors inserted",
         .title = "Figure 5: GSM",
         .yLabel = "SNR (dB) vs fault-free output",
         .workload = "gsm",
         .errorCounts = {1, 5, 10, 20, 30, 40}},
        {.name = "fig6",
         .experiment = "Figure 6",
         .caption = "ART: % images recognized and % failed executions "
                    "vs. errors inserted",
         .title = "Figure 6: ART",
         .yLabel = "% images recognized",
         .workload = "art",
         .errorCounts = {0, 1, 2, 3, 4},
         .defaultTrials = 40,
         .metric = FidelityMetric::AcceptablePct},
        // Not paper figures: minute-scale sweeps over the test-scale
        // inputs, sized for CI cache smoke tests and local sanity
        // checks of the store/orchestration machinery.
        {.name = "smoke",
         .experiment = "Smoke sweep",
         .caption = "ADPCM at test scale: tiny sweep for cache and "
                    "orchestration validation (not a paper figure)",
         .title = "Smoke: ADPCM (test scale)",
         .yLabel = "fidelity",
         .workload = "adpcm",
         .scale = workloads::Scale::Test,
         .errorCounts = {1, 3, 5},
         .defaultTrials = 12},
        {.name = "smoke-gsm",
         .experiment = "Smoke sweep (GSM)",
         .caption = "GSM at test scale: tiny sweep for cache and "
                    "orchestration validation (not a paper figure)",
         .title = "Smoke: GSM (test scale)",
         .yLabel = "SNR (dB) vs fault-free output",
         .workload = "gsm",
         .scale = workloads::Scale::Test,
         .errorCounts = {1, 4},
         .defaultTrials = 8,
         .policies = {"protected"}},
        // The policy ablation the paper only implies: the same
        // workload swept under every built-in injection policy --
        // the legacy pair, the result-kind slices, and the harsher
        // bit-error models -- at test scale so the whole grid runs
        // in seconds.
        {.name = "ablation_policies",
         .experiment = "Ablation: injection policies",
         .caption = "ADPCM at test scale under every built-in injection "
                    "policy: which results faults corrupt, and how",
         .title = "Ablation: ADPCM across injection policies",
         .yLabel = "fraction bytes correct",
         .workload = "adpcm",
         .scale = workloads::Scale::Test,
         .errorCounts = {1, 3},
         .defaultTrials = 10,
         .policies = {"protected", "unprotected", "control-only",
                      "data-only", "unprotected-regs", "protected-burst2",
                      "unprotected-low16"}},
    };
    return registry;
}

/** The registered paper tables, the paper's order. */
const std::vector<PaperTable> &
paperTables()
{
    static const std::vector<PaperTable> tables = buildPaperTables();
    return tables;
}

} // namespace

const Experiment *
findExperiment(const std::string &name)
{
    for (const auto &exp : experiments())
        if (exp.name == name)
            return &exp;
    for (const auto &table : paperTables())
        for (const auto &row : table.rows)
            if (!row.study.errorCounts.empty() && row.study.name == name)
                return &row.study;
    return nullptr;
}

std::vector<Artifact>
artifacts()
{
    std::vector<Artifact> all;
    for (const auto &exp : experiments())
        all.push_back({exp.name, &exp, nullptr, {&exp}});
    for (const auto &table : paperTables()) {
        all.push_back({table.name, nullptr, &table, {}});
        for (const auto &row : table.rows)
            all.back().sweeps.push_back(&row.study);
    }
    return all;
}

std::optional<Artifact>
findArtifact(const std::string &name)
{
    // A figure resolves without building the paper tables' rows.
    for (const auto &exp : experiments())
        if (exp.name == name)
            return Artifact{exp.name, &exp, nullptr, {&exp}};
    for (auto &artifact : artifacts())
        if (artifact.table && artifact.name == name)
            return std::move(artifact);
    return std::nullopt;
}

std::string
experimentNames()
{
    std::string names;
    for (const auto &artifact : artifacts()) {
        if (!names.empty())
            names += ", ";
        names += artifact.name;
    }
    return names;
}

const std::string &
Artifact::headline() const
{
    return figure ? figure->experiment : table->experiment;
}

size_t
Artifact::cells() const
{
    size_t cells = 0;
    for (const Experiment *sweep : sweeps)
        cells += experimentCells(*sweep).size();
    return cells;
}

core::StudyConfig
makeStudyConfig(const Experiment &exp, const BenchOptions &opts)
{
    core::StudyConfig config;
    opts.applyTo(config);
    if (exp.budgetFactor > 0)
        config.budgetFactor = exp.budgetFactor;
    config.memoryModel = exp.memoryModel;
    config.protection = exp.protection;
    return config;
}

ExperimentStudy::ExperimentStudy(const Experiment &exp,
                                 const BenchOptions &opts)
    : exp(exp),
      workload(workloads::createWorkload(exp.workload, exp.scale)),
      study(*workload, makeStudyConfig(exp, opts))
{}

ExperimentStudy &
SweepStudies::of(const Experiment &exp)
{
    auto &slot = studies_[&exp];
    if (!slot)
        slot = std::make_unique<ExperimentStudy>(exp, opts_);
    return *slot;
}

std::vector<ExperimentStudy *>
SweepStudies::built() const
{
    std::vector<ExperimentStudy *> labs;
    for (const auto &[exp, lab] : studies_)
        labs.push_back(lab.get());
    return labs;
}

std::vector<std::string>
sweepPolicies(const Experiment &exp, const BenchOptions &opts)
{
    return opts.policies.empty() ? exp.policies : opts.policies;
}

std::vector<std::pair<unsigned, std::string>>
experimentCells(const Experiment &exp,
                const std::vector<std::string> &policies)
{
    std::vector<std::pair<unsigned, std::string>> cells;
    for (unsigned errors : exp.errorCounts)
        for (const auto &policy : policies)
            cells.emplace_back(errors, policy);
    return cells;
}

std::vector<std::pair<unsigned, std::string>>
experimentCells(const Experiment &exp)
{
    return experimentCells(exp, exp.policies);
}

SweepPoints
sweepPointsFrom(const Experiment &exp,
                const std::vector<std::string> &policies,
                const std::vector<core::CellSummary> &summaries)
{
    SweepPoints points;
    size_t next = 0;
    for (unsigned errors : exp.errorCounts) {
        SweepPoint point;
        point.errors = errors;
        for (size_t i = 0; i < policies.size(); ++i)
            point.cells.push_back(summaries.at(next++));
        points.push_back(std::move(point));
    }
    return points;
}

std::vector<store::CellKey>
experimentCellKeys(const Experiment &exp, const BenchOptions &opts)
{
    if (exp.errorCounts.empty())
        return {}; // no cells: no study to build
    ExperimentStudy lab(exp, opts);
    unsigned trials = opts.trialsOr(exp.defaultTrials);

    std::vector<store::CellKey> keys;
    for (auto [errors, policy] :
         experimentCells(exp, sweepPolicies(exp, opts)))
        keys.push_back(lab.study.cellKey(errors, policy, trials));
    return keys;
}

StoredSweep
loadExperimentFromStore(const Experiment &exp, const BenchOptions &opts,
                        store::ResultStore &cache)
{
    return loadExperimentFromStore(exp, sweepPolicies(exp, opts),
                                   experimentCellKeys(exp, opts),
                                   cache);
}

StoredSweep
loadExperimentFromStore(const Experiment &exp,
                        const std::vector<std::string> &policies,
                        const std::vector<store::CellKey> &keys,
                        store::ResultStore &cache)
{
    StoredSweep sweep;
    std::vector<core::CellSummary> summaries;
    for (const auto &key : keys) {
        if (auto summary = cache.loadCell(key))
            summaries.push_back(std::move(*summary));
        else
            sweep.missing.push_back(key);
    }
    if (sweep.missing.empty())
        sweep.points = sweepPointsFrom(exp, policies, summaries);
    return sweep;
}

void
renderExperiment(std::ostream &os, const Experiment &exp,
                 const std::vector<std::string> &policies,
                 const SweepPoints &points)
{
    banner(os, exp.experiment, exp.caption);
    printFigure(os, exp.title, exp.yLabel, policies, points,
                [&exp](const core::CellSummary &cell) {
                    return fidelityOf(exp, cell);
                },
                exp.threshold);
}

ArtifactRun
runArtifact(std::ostream &os, const Artifact &artifact,
            SweepStudies &studies, unsigned stripes)
{
    const BenchOptions &opts = studies.options();
    auto policies = artifactPolicies(artifact, opts);
    ArtifactRun run;
    for (size_t s = 0; s < artifact.sweeps.size(); ++s)
        run.cells += experimentCells(*artifact.sweeps[s], policies[s]).size();

    std::vector<SweepPoints> points;
    for (size_t s = 0; s < artifact.sweeps.size(); ++s) {
        if (stopRequested()) {
            run.interrupted = true;
            return run;
        }
        const Experiment &sweep = *artifact.sweeps[s];
        core::ErrorToleranceStudy &study = studies.of(sweep).study;
        unsigned trials = opts.trialsOr(sweep.defaultTrials);
        std::vector<core::CellRequest> cells;
        for (const auto &[errors, policy] :
             experimentCells(sweep, policies[s]))
            cells.push_back({errors, policy, trials});
        // Stored cells land first, in order; the rest run as one engine
        // pass whose stripes each persist as a shard the moment they
        // end, so a kill loses at most the stripes in flight, and a
        // stop request stops starting new ones. Each cell is reported
        // as it lands, so computed cells report in completion order.
        std::vector<std::optional<core::CellSummary>> landed(cells.size());
        study.runCells(cells, stripes,
                       [&](size_t i, core::CellSummary summary,
                           bool cached) {
                           (cached ? run.cellsCached : run.cellsComputed) +=
                               1;
                           inform(sweep.name, ": errors=", cells[i].errors,
                                  " (", cells[i].policy, ", ", trials,
                                  cached ? " trials, cached)" : " trials)");
                           emitCellJson(sweep.workload, cells[i].policy,
                                        cells[i].errors, summary,
                                        study.config());
                           landed[i] = std::move(summary);
                       });
        std::vector<core::CellSummary> summaries;
        for (auto &summary : landed) {
            if (!summary) {
                run.interrupted = true;
                return run;
            }
            summaries.push_back(std::move(*summary));
        }
        points.push_back(sweepPointsFrom(sweep, policies[s], summaries));
    }

    renderArtifact(os, artifact, points, studies);
    return run;
}

std::vector<store::CellKey>
renderFromStore(std::ostream &os, const Artifact &artifact,
                const std::vector<std::vector<store::CellKey>> &keys,
                store::ResultStore &cache, SweepStudies &studies)
{
    auto policies = artifactPolicies(artifact, studies.options());
    std::vector<SweepPoints> points;
    std::vector<store::CellKey> missing;
    for (size_t s = 0; s < artifact.sweeps.size(); ++s) {
        auto sweep = loadExperimentFromStore(*artifact.sweeps[s],
                                             policies[s], keys.at(s),
                                             cache);
        missing.insert(missing.end(), sweep.missing.begin(),
                       sweep.missing.end());
        points.push_back(std::move(sweep.points));
    }
    if (missing.empty())
        renderArtifact(os, artifact, points, studies);
    return missing;
}

} // namespace etc::bench
