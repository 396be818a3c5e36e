/**
 * @file
 * fig_grid: the paper's headline figure as a user produces it — 17
 * seeded eight-core mixes x evaluationPolicySet() through
 * RunEngine::runGrid on nproc workers at one fixed window, repeated
 * for the run's seconds.  Set-up materializes the mixes' traces and
 * primes every run-alone baseline before the first grid, so no cell
 * blocks on a baseline and every grid does the same work.
 */

#include <map>

#include "bench.hh"
#include "inputs.hh"
#include "obs/tracer.hh"
#include "sim/policies.hh"
#include "sim/run_engine.hh"
#include "trace/arena.hh"

namespace e2e
{

using namespace nucache;

namespace
{

/** Verifies each grid's cells against the first grid and golden.json. */
class GridChecker
{
  public:
    GridChecker(const Options &opt, std::size_t cells)
    {
        const Golden g = loadGolden(opt.goldenPath);
        if (g.loaded && g.seed == opt.seed &&
            g.gridRecords == kGridRecords && g.gridCells.size() == cells)
            golden = g.gridCells;
    }

    bool hasGolden() const { return !golden.empty(); }

    void
    check(const GridRun &grid, FailureLedger &ledger)
    {
        std::size_t k = 0;
        const bool first = reference.empty();
        for (const auto &row : grid.cells) {
            for (const GridCell &cell : row) {
                const std::string fields = exactFields(cell.result);
                if (first)
                    reference.push_back(fields);
                ledger.record(problem(cell.result, fields, k++));
            }
        }
    }

  private:
    std::string
    problem(const MixResult &r, const std::string &fields,
            std::size_t k) const
    {
        if (!(r.weightedSpeedup > 0.0))
            return "non-positive weighted speedup";
        for (const CoreResult &core : r.system.cores) {
            if (core.llc.hits + core.llc.misses != core.llc.accesses)
                return "LLC hits + misses != accesses";
            if (!(core.ipc > 0.0))
                return "non-positive IPC";
        }
        if (fields != reference[k])
            return "cell differs from the run's first grid";
        if (hasGolden() && digestOf(fields) != golden[k])
            return "cell digest differs from golden.json";
        return {};
    }

    std::vector<std::string> golden;
    std::vector<std::string> reference;
};

} // anonymous namespace

Report
runFigGrid(const Options &opt)
{
    Report report;
    const HierarchyConfig hier = defaultHierarchy(kGridCores);
    const std::vector<WorkloadMix> mixes = gridMixes(opt.seed);
    const std::vector<std::string> workloads = distinctWorkloads(mixes);
    const std::vector<std::string> &policies = evaluationPolicySet();
    const std::size_t cells = mixes.size() * policies.size();
    GridChecker checker(opt, cells);
    report.note("fig_grid: " + std::to_string(mixes.size()) + " x " +
                std::to_string(kGridCores) + "-core mixes x " +
                std::to_string(policies.size()) + " policies, " +
                std::to_string(kGridRecords) + " records/core, " +
                std::to_string(opt.jobs) + " jobs, golden " +
                (checker.hasGolden() ? "checked" : "not applicable"));

    // The traced run also keeps the program's own spans of every
    // materialization and baseline run (written out with the replay's).
    if (opt.trace)
        obs::Tracer::instance().start("");

    // Set-up: materialize the traces, then prime the baselines.
    std::unique_ptr<RunEngine> engine;
    std::vector<double> setupS, materializeS, aloneS;
    for (unsigned round = 0; round < kSetupRounds; ++round) {
        engine.reset();
        TraceArena::instance().clear();
        const Clock::time_point t0 = Clock::now();
        engine = std::make_unique<RunEngine>(kGridRecords, opt.jobs);
        materializeS.push_back(materialize(workloads, opt.jobs));
        const Clock::time_point t1 = Clock::now();
        engine->parallelFor(workloads.size(), [&](std::size_t i) {
            engine->aloneIpc(workloads[i], hier);
        });
        aloneS.push_back(secondsSince(t1));
        setupS.push_back(secondsSince(t0));
    }

    if (!opt.trace) {
        std::vector<double> wallS, cpuS, cellS;
        const Clock::time_point start = Clock::now();
        do {
            const double cpu0 = processCpuSeconds();
            const Clock::time_point t0 = Clock::now();
            const GridRun grid =
                engine->runGrid(hier, mixes, policies, "lru");
            wallS.push_back(secondsSince(t0));
            cpuS.push_back(processCpuSeconds() - cpu0);
            for (const auto &row : grid.cells) {
                for (const GridCell &cell : row)
                    cellS.push_back(static_cast<double>(cell.durationNs()) *
                                    1e-9);
            }
            checker.check(grid, report.ledger);
        } while (secondsSince(start) < opt.seconds);

        // Grid timings are medians over the run's grids, so one grid
        // slowed by other processes on the host moves none of them.
        // The tail is the p90 of every cell of the run: it sits among
        // the nucache cells, which set the grid's critical path.
        report.endToEnd("setup_s", median(setupS), "s");
        report.endToEnd("peak_rss_mib", peakRssMib(), "MiB");
        report.endToEnd("p50_ms", median(wallS) * 1e3, "ms");
        report.endToEnd("tail_ms", quantile(cellS, 0.9) * 1e3, "ms");
        report.endToEnd("rate_per_s",
                        static_cast<double>(cells) / median(wallS), "1/s");
        report.endToEnd("cpu_ms", median(cpuS) * 1e3, "ms");
        report.detail("grid_wall_s", median(wallS), "s");
        report.detail("grid_cpu_s", median(cpuS), "s");
        report.detail("grids", static_cast<double>(wallS.size()), "count");
        report.detail("cell_p90_s", quantile(cellS, 0.9), "s");
        std::string walls = "grid walls (s):";
        for (const double w : wallS)
            walls += " " + std::to_string(w);
        report.note(walls);
        return report;
    }

    // Traced run.  First one untraced grid, the cell-time baseline,
    // then every cell replayed plain and with the probes attached.
    obs::Tracer::instance().stop();
    const Clock::time_point g0 = Clock::now();
    const GridRun grid = engine->runGrid(hier, mixes, policies, "lru");
    const double untracedS = secondsSince(g0);
    checker.check(grid, report.ledger);

    std::map<std::string, std::vector<double>> cellS;
    std::vector<double> allCellS;
    double busyS = 0.0;
    std::vector<SimCell> replays;
    std::vector<SystemResult> results;
    for (std::size_t m = 0; m < grid.cells.size(); ++m) {
        const std::vector<GridCell> &row = grid.cells[m];
        for (std::size_t p = 0; p < row.size(); ++p) {
            const double s = static_cast<double>(row[p].durationNs()) * 1e-9;
            cellS[policies[p]].push_back(s);
            allCellS.push_back(s);
            busyS += s;
            replays.push_back({mixes[m].workloads, policies[p], hier});
            results.push_back(row[p].result.system);
        }
    }

    if (!opt.traceOut.empty())
        obs::Tracer::instance().start(opt.traceOut);
    replayLayers(replays, results, kGridRecords, opt.jobs, report);
    obs::Tracer::instance().stop();

    report.layer("trace.materialize_s", median(materializeS), "s");
    report.layer("sim.alone_s", median(aloneS), "s");
    report.layer("sim.alone_runs",
                 static_cast<double>(engine->aloneRunCount()), "count");
    report.layer("sim.cell_s", median(allCellS), "s");

    for (const std::string &p : policies)
        report.detail("sim.cell_s." + p, median(cellS[p]), "s");
    report.detail("sim.pool_idle_frac",
                  1.0 - busyS / (opt.jobs * untracedS), "ratio");
    report.detail("grid_wall_s.untraced", untracedS, "s");

    // How much of NUcache's extra cell time its policy work explains.
    const double gap =
        report.value("sim.cell_s.nucache") - report.value("sim.cell_s.lru");
    const double hookGap = report.value("policy.hook_s.nucache") -
                           report.value("policy.hook_s.lru");
    report.detail("fig.nucache_lru_gap_s", gap, "s");
    report.detail("fig.gap_from_hooks_frac", gap != 0.0 ? hookGap / gap : 0.0,
                  "ratio");
    report.detail("fig.gap_from_selection_frac",
                  gap != 0.0 ? report.value("core.selection_s") / gap : 0.0,
                  "ratio");
    report.note("policy.hook_s.nucache includes core.selection_s (the "
                "selection runs inside onMiss)");
    for (const char *name :
         {"model.profile_s", "model.estimate_us", "model.iterations",
          "serve.parse_us", "serve.key_us", "serve.try_cached_us",
          "serve.try_estimate_us", "serve.queue_wait_p50_ms",
          "serve.execute_p50_ms", "serve.flush_p50_ms", "serve.batch_mean",
          "serve.cache_hit_ratio", "serve.inline_frac"})
        report.absent(name, "fig_grid runs no serve or model code");
    return report;
}

} // namespace e2e
