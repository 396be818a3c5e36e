/**
 * @file
 * Shared plumbing for the per-figure benchmark binaries: common flag
 * handling (--records, --quick, --jobs, --json), the policies-by-mixes
 * weighted-speedup grid on the parallel RunEngine, a live progress
 * line, and structured JSON emission next to the text tables.  Every
 * bench prints the rows/series of exactly one table or figure of the
 * paper (see DESIGN.md, Experiment index).
 */

#ifndef NUCACHE_BENCH_BENCH_COMMON_HH
#define NUCACHE_BENCH_BENCH_COMMON_HH

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "check/check_mode.hh"
#include "common/chart.hh"
#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "obs/obs_mode.hh"
#include "obs/telemetry.hh"
#include "obs/tracer.hh"
#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/policies.hh"
#include "sim/run_engine.hh"

namespace nucache::bench
{

/** Measurement window per core, honoring --records and --quick. */
inline std::uint64_t
recordsFor(const CliArgs &args, std::uint64_t dflt)
{
    std::uint64_t records = args.getInt("records", dflt);
    if (args.has("quick"))
        records /= 4;
    return records;
}

/**
 * Parse argv with the bench layer's value-less flags registered, so
 * "--quick", "--check" and a bare "--telemetry" never swallow the
 * token after them.
 */
inline CliArgs
benchArgs(int argc, const char *const *argv)
{
    return CliArgs(argc, argv, {"quick", "check", "telemetry"});
}

/** The flags every engine-driven bench shares. */
struct BenchOptions
{
    /** Measurement window per core (--records, quartered by --quick). */
    std::uint64_t records = 0;
    /** Worker threads (--jobs; default: hardware concurrency). */
    unsigned jobs = 1;
    /** Structured-results path (--json FILE; empty = text only). */
    std::string jsonPath;
    /** Run under the invariant checker (--check or NUCACHE_CHECK). */
    bool check = false;
    /** Telemetry stride in LLC accesses (--telemetry[=N]; 0 = off). */
    std::uint64_t telemetry = 0;
    /** Chrome trace_event output path (--trace-out=FILE; empty = off). */
    std::string traceOut;
};

/** Parse the shared flags. */
inline BenchOptions
parseOptions(const CliArgs &args, std::uint64_t dflt_records)
{
    BenchOptions opt;
    opt.records = recordsFor(args, dflt_records);
    opt.jobs = static_cast<unsigned>(
        args.getInt("jobs", ThreadPool::hardwareConcurrency()));
    if (opt.jobs == 0)
        fatal("--jobs must be at least 1");
    opt.jsonPath = args.get("json", "");
    // --check raises the process-wide check mode so every System this
    // bench builds (RunEngine's default flag reads it) gets checked;
    // a NUCACHE_CHECK=ON build is already on and stays on.
    opt.check = args.has("check") || check::enabled();
    if (opt.check)
        check::setEnabled(true);
    // --telemetry raises the process-wide sampling interval the same
    // way, so every System the bench builds registers its probes.
    if (args.has("telemetry")) {
        opt.telemetry =
            args.getInt("telemetry", obs::kDefaultTelemetryInterval);
        if (opt.telemetry == 0)
            fatal("--telemetry interval must be > 0");
        obs::setTelemetryInterval(opt.telemetry);
    }
    opt.traceOut = args.get("trace-out", "");
    if (!opt.traceOut.empty())
        obs::Tracer::instance().start(opt.traceOut);
    return opt;
}

/** @return where the telemetry document of @p json_path goes. */
inline std::string
telemetryPathFor(const std::string &json_path)
{
    if (json_path.empty())
        return "telemetry.json";
    std::string p = json_path;
    const std::string ext = ".json";
    if (p.size() > ext.size() &&
        p.compare(p.size() - ext.size(), ext.size(), ext) == 0) {
        p.resize(p.size() - ext.size());
    }
    return p + "_telemetry.json";
}

/**
 * End-of-run observability teardown: drain the TelemetryHub into the
 * `nucache-telemetry/v1` document alongside the bench JSON, and stop
 * the tracer (which writes the --trace-out file).  Safe when neither
 * flag was given.
 */
inline void
finishObservability(const BenchOptions &opt)
{
    if (opt.telemetry != 0) {
        Json doc = obs::TelemetryHub::instance().drainJson();
        const std::string path = telemetryPathFor(opt.jsonPath);
        std::ofstream os(path);
        if (!os)
            fatal("cannot write telemetry to '", path, "'");
        doc.dump(os);
        os << "\n";
        std::fprintf(stderr, "wrote telemetry to %s\n", path.c_str());
    }
    obs::Tracer::instance().stop();
}

/**
 * Live progress reporting on stderr: "[done/total] pct eta".  On a
 * terminal the line redraws in place and is cleared on completion; on
 * a pipe (CI logs) it prints at ~12.5% strides.  Everything goes to
 * stderr so stdout stays the bit-identical table stream.
 */
class Progress
{
  public:
    Progress() : start(std::chrono::steady_clock::now()) {}

    void
    operator()(std::size_t done, std::size_t total)
    {
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        const bool tty = isatty(STDERR_FILENO) != 0;
        if (done == total) {
            if (tty)
                std::fprintf(stderr, "\r%-60s\r", "");
            std::fprintf(stderr, "cells %zu/%zu done in %.1fs\n", done,
                         total, elapsed);
            std::fflush(stderr);
            return;
        }
        if (!tty) {
            const std::size_t stride =
                total < 8 ? 1 : (total + 7) / 8;
            if (done % stride != 0)
                return;
        }
        const double eta =
            done == 0 ? 0.0
                      : elapsed * static_cast<double>(total - done) /
                            static_cast<double>(done);
        std::fprintf(stderr,
                     tty ? "\r[%zu/%zu] %3.0f%% eta %.0fs   "
                         : "[%zu/%zu] %3.0f%% eta %.0fs\n",
                     done, total,
                     100.0 * static_cast<double>(done) /
                         static_cast<double>(total),
                     eta);
        std::fflush(stderr);
    }

  private:
    std::chrono::steady_clock::time_point start;
};

/** @return the LLC/DRAM geometry of @p hier as a JSON object. */
inline Json
jsonHierarchy(const HierarchyConfig &hier)
{
    Json h = Json::object();
    h["cores"] = hier.numCores;
    h["llc_bytes"] = hier.llc.sizeBytes;
    h["llc_ways"] = hier.llc.ways;
    h["block_bytes"] = hier.llc.blockSize;
    h["l2_enabled"] = hier.enableL2;
    h["inclusive"] = hier.inclusive;
    h["prefetch"] = hier.prefetch.enabled;
    return h;
}

/**
 * One (mix, policy) result cell as a JSON object — the schema the
 * perf-trajectory tooling consumes (see DESIGN.md, "JSON results").
 */
inline Json
jsonCell(const MixResult &res, double norm_ws)
{
    Json c = Json::object();
    c["mix"] = res.mixName;
    c["policy"] = res.policy;
    c["weighted_speedup"] = res.weightedSpeedup;
    c["norm_weighted_speedup"] = norm_ws;
    c["hmean_speedup"] = res.hmeanSpeedup;
    c["antt"] = res.antt;
    c["fairness"] = res.fairness;
    std::uint64_t accesses = 0, misses = 0;
    Json cores = Json::array();
    for (std::size_t i = 0; i < res.system.cores.size(); ++i) {
        const auto &core = res.system.cores[i];
        Json cj = Json::object();
        cj["workload"] = core.workload;
        cj["ipc"] = core.ipc;
        if (i < res.ipcAlone.size())
            cj["ipc_alone"] = res.ipcAlone[i];
        cj["llc_accesses"] = core.llc.accesses;
        cj["llc_misses"] = core.llc.misses;
        accesses += core.llc.accesses;
        misses += core.llc.misses;
        cores.push(std::move(cj));
    }
    c["llc_accesses"] = accesses;
    c["llc_misses"] = misses;
    c["llc_writebacks"] = res.system.llcWritebacks;
    c["dram_reads"] = res.system.dramReads;
    c["cores"] = std::move(cores);
    return c;
}

/**
 * Accumulates the structured mirror of a bench's text output and
 * writes it to the --json path (a no-op when the flag is absent).
 * Sections arrive in print order, so the file is deterministic.
 */
class JsonReport
{
  public:
    JsonReport(const BenchOptions &opt, const std::string &figure)
        : path(opt.jsonPath), options(opt)
    {
        doc = Json::object();
        doc["schema"] = "nucache-bench/v1";
        doc["figure"] = figure;
        doc["records_per_core"] = opt.records;
        doc["jobs"] = opt.jobs;
        doc["sections"] = Json::array();
    }

    /** @return whether --json was given. */
    bool enabled() const { return !path.empty(); }

    /**
     * Append a section object (label + kind set) and @return a
     * reference to fill in; valid until the next section() call.
     */
    Json &
    section(const std::string &label, const std::string &kind)
    {
        Json s = Json::object();
        s["label"] = label;
        s["kind"] = kind;
        return doc["sections"].push(std::move(s)).back();
    }

    /** Append a finished policy grid as a standard section. */
    void
    addGrid(const std::string &label, const HierarchyConfig &hier,
            const GridRun &run)
    {
        if (!enabled())
            return;
        Json &s = section(label, "policy_grid");
        s["baseline"] = run.baseline;
        s["hierarchy"] = jsonHierarchy(hier);
        Json policies = Json::array();
        for (const auto &p : run.policies)
            policies.push(p);
        s["policies"] = std::move(policies);
        Json cells = Json::array();
        std::map<std::string, std::vector<double>> norms;
        for (std::size_t m = 0; m < run.cells.size(); ++m) {
            for (const auto &cell : run.cells[m]) {
                norms[cell.result.policy].push_back(cell.normWs);
                cells.push(jsonCell(cell.result, cell.normWs));
            }
        }
        s["cells"] = std::move(cells);
        Json geo = Json::object();
        for (const auto &p : run.policies)
            geo[p] = geomean(norms[p]);
        s["geomean_norm_ws"] = std::move(geo);
    }

    /**
     * Write the file (once; a no-op without --json), then finish the
     * observability outputs (telemetry document, trace file) so every
     * bench tears them down at its single exit point.
     */
    void
    write()
    {
        if (enabled() && !written) {
            std::ofstream os(path);
            if (!os)
                fatal("cannot write JSON results to '", path, "'");
            doc.dump(os);
            os << "\n";
            written = true;
            std::fprintf(stderr, "wrote JSON results to %s\n",
                         path.c_str());
        }
        finishObservability(options);
    }

  private:
    std::string path;
    BenchOptions options;
    Json doc;
    bool written = false;
};

/**
 * Print the longest-running cells of @p run to @p os (stderr in
 * practice): wall-clock per cell and the worker that ran it.  Timing
 * lives only in this diagnostic view — never in the bench JSON, which
 * stays bit-identical across --jobs widths.
 */
inline void
printSlowestCells(const GridRun &run, std::ostream &os,
                  std::size_t limit = 5)
{
    struct Ref
    {
        const GridCell *cell;
        const std::string *mix;
    };
    std::vector<Ref> refs;
    for (std::size_t m = 0; m < run.cells.size(); ++m)
        for (const auto &cell : run.cells[m])
            refs.push_back({&cell, &run.mixNames[m]});
    if (refs.empty())
        return;
    std::sort(refs.begin(), refs.end(), [](const Ref &a, const Ref &b) {
        return a.cell->durationNs() > b.cell->durationNs();
    });
    if (refs.size() > limit)
        refs.resize(limit);

    os << "slowest cells:\n";
    TextTable table;
    table.header({"mix", "policy", "seconds", "worker"});
    for (const auto &ref : refs) {
        table.row()
            .cell(*ref.mix)
            .cell(ref.cell->result.policy)
            .cell(static_cast<double>(ref.cell->durationNs()) / 1e9)
            .cell(std::uint64_t{ref.cell->worker});
    }
    table.print(os);
}

/**
 * Run `policies` x `mixes` on the engine and print normalized weighted
 * speedup with a geomean summary row (the canonical Figure 4/5/6
 * shape), mirroring the grid into @p report when enabled.  Output is
 * bit-identical at every --jobs width.
 * @return the full grid for callers that print extra views.
 */
inline GridRun
runPolicyGrid(RunEngine &engine, const HierarchyConfig &hier,
              const std::vector<WorkloadMix> &mixes,
              const std::vector<std::string> &policies, std::ostream &os,
              JsonReport *report = nullptr,
              const std::string &label = "grid")
{
    // Prime every run-alone IPC as pool tasks first, so no grid cell
    // sits blocked on a baseline another cell is still simulating.
    std::vector<std::string> workloads;
    for (const auto &mix : mixes) {
        for (const auto &w : mix.workloads) {
            if (std::find(workloads.begin(), workloads.end(), w) ==
                workloads.end())
                workloads.push_back(w);
        }
    }
    engine.parallelFor(workloads.size(), [&](std::size_t i) {
        engine.aloneIpc(workloads[i], hier);
    });

    Progress progress;
    const GridRun run = engine.runGrid(
        hier, mixes, policies, "lru",
        [&progress](std::size_t done, std::size_t total) {
            progress(done, total);
        });
    printSlowestCells(run, std::cerr);

    TextTable table;
    std::vector<std::string> head = {"mix"};
    head.insert(head.end(), policies.begin(), policies.end());
    table.header(head);

    std::map<std::string, std::vector<double>> norms;
    for (std::size_t m = 0; m < run.cells.size(); ++m) {
        table.row().cell(run.mixNames[m]);
        for (const auto &cell : run.cells[m]) {
            norms[cell.result.policy].push_back(cell.normWs);
            table.cell(cell.normWs);
        }
    }
    table.row().cell("geomean");
    BarChart chart(48, 1.0);
    for (const auto &policy : policies) {
        const double g = geomean(norms[policy]);
        table.cell(g);
        chart.add(policy, g);
    }
    table.print(os);
    os << "\n";
    chart.print(os);

    if (report)
        report->addGrid(label, hier, run);
    return run;
}

/** Print a one-line figure banner. */
inline void
banner(std::ostream &os, const std::string &figure,
       const std::string &what, std::uint64_t records)
{
    os << "# " << figure << ": " << what << "\n"
       << "# measurement window: " << records
       << " references per core\n";
}

} // namespace nucache::bench

#endif // NUCACHE_BENCH_BENCH_COMMON_HH
