/**
 * @file
 * The three workloads of the end-to-end benchmark, the report they
 * fill, and the pieces they share (set-up steps, the in-process
 * server, the committed digests, and the per-layer split of decorated
 * replays).  BENCHMARK.md in this directory explains the workloads and
 * every metric.
 */

#ifndef E2EBENCH_BENCH_HH
#define E2EBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "client.hh"
#include "common/json.hh"
#include "measure.hh"
#include "probes.hh"
#include "serve/server.hh"

namespace e2e
{

/** Set-up runs this many times per run; setup_s is the median. */
inline constexpr unsigned kSetupRounds = 5;

/** Command-line options shared by every workload. */
struct Options
{
    /** The default is the seed golden.json's digests were taken at. */
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Worker threads and connections never exceed this (nproc). */
    unsigned jobs = 4;
    /** Committed digests (golden.json); "" = none. */
    std::string goldenPath;
    /** Chrome trace of the traced run; "" = none. */
    std::string traceOut;
};

/** One named measurement. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run measured and verified. */
class Report
{
  public:
    /** A declared end-to-end metric (the result line, --trace 0). */
    void endToEnd(std::string name, double value, std::string unit);
    /** A declared per-layer metric (the result line, --trace 1). */
    void layer(std::string name, double value, std::string unit);
    /** A metric printed in the text report only. */
    void detail(std::string name, double value, std::string unit);
    /** A named metric this workload cannot measure, and why. */
    void absent(std::string name, std::string why);
    /** A free-form line of the text report. */
    void note(std::string text);

    /** Print the text report, then the result object as last line. */
    void print(std::ostream &os, bool trace) const;

    /** @return a recorded metric's value (0 when absent). */
    double value(const std::string &name) const;

    FailureLedger ledger;

  private:
    std::vector<Metric> ends;
    std::vector<Metric> layers;
    std::vector<Metric> details;
    std::vector<std::pair<std::string, std::string>> missing;
    std::vector<std::string> notes;
};

Report runFigGrid(const Options &opt);
Report runServeExact(const Options &opt);
Report runServeInline(const Options &opt);

/** The committed digests of the default seed (golden.json). */
struct Golden
{
    bool loaded = false;
    std::uint64_t seed = 0;
    std::uint64_t gridRecords = 0;
    /** fig_grid cells, mix-major in evaluationPolicySet() order. */
    std::vector<std::string> gridCells;
    std::uint64_t exactRecords = 0;
    /** serve_exact pool requests, in exactPool() order. */
    std::vector<std::string> exactRequests;
};

/** @return the digests at @p path (loaded = false when unreadable). */
Golden loadGolden(const std::string &path);

/** @return the digest of one canonical field text. */
std::string digestOf(const std::string &fields);

/**
 * Write golden.json for @p opt.seed to @p path: every fig_grid cell
 * and every serve_exact pool request, simulated directly.
 */
void writeGolden(const Options &opt, const std::string &path);

/** @return the serve_exact reference results of @p seed's pool. */
std::vector<nucache::MixResult> exactReferences(std::uint64_t seed,
                                                unsigned jobs);

/** fig_grid's fixed window and mix width. */
inline constexpr unsigned kGridCores = 8;
inline constexpr std::uint64_t kGridRecords = 50'000;

/**
 * @return fig_grid's mixes for @p seed: one eight-core mix per catalog
 * workload, i.e. eight whole decks, so every seed runs every workload
 * equally often and only the pairings change.
 */
std::vector<nucache::WorkloadMix> gridMixes(std::uint64_t seed);

/**
 * serve_exact's window, set in every request.  A fifth of the server
 * default, so a run answers a few hundred requests and its latency
 * percentiles rest on enough samples.
 */
inline constexpr std::uint64_t kExactRecords = 50'000;

/**
 * Materialize @p workloads in the trace arena on @p jobs threads.
 * @return the wall seconds it took.
 */
double materialize(const std::vector<std::string> &workloads,
                   unsigned jobs);

/** An in-process nucached: one shard, @p workers engine workers. */
std::unique_ptr<nucache::serve::Server>
startServer(unsigned workers, std::size_t cache_entries);

/** Drain, stop and destroy @p server (no-op when null). */
void stopServer(std::unique_ptr<nucache::serve::Server> &server);

/**
 * Scrape the server's `metrics` op and report the serve-layer split:
 * queue wait, execute and flush medians, mean engine batch, result
 * cache hit ratio and the share of requests answered inline.
 */
void reportServerMetrics(std::uint16_t port, Report &report);

/** One simulated request: @p workloads under @p policy on @p hier. */
struct SimCell
{
    std::vector<std::string> workloads;
    std::string policy;
    nucache::HierarchyConfig hier;
};

/**
 * Time the run-alone baselines @p cells need on a fresh engine, on
 * @p jobs threads, and report sim.alone_s and sim.alone_runs.
 */
void reportAloneRuns(const std::vector<SimCell> &cells,
                     std::uint64_t records, unsigned jobs, Report &report);

/**
 * The traced run's split of the simulation layers.  Replays every cell
 * plain and then with every probe attached (both on one worker, back to
 * back), checks each probed result against @p refs, and reports trace
 * replay cost, policy hook counts and times (overall and per policy),
 * System::run self time, the NUcache core counters when a cell ran
 * nucache, the simulated counts of @p refs (mem.*), and the probes' own
 * overhead: trace.overhead_frac, the median over cells of probed ÷
 * plain System::run time, minus one.  Timer cost is subtracted
 * throughout.  @return the plain replays' System::run seconds.
 */
std::vector<double> replayLayers(const std::vector<SimCell> &cells,
                                 const std::vector<nucache::SystemResult> &refs,
                                 std::uint64_t records, unsigned jobs,
                                 Report &report);

/** What the load phase of a serving workload measured. */
struct ServeLoad
{
    LoadResult load;
    /** The traced run's span-emitting rerun (empty otherwise). */
    LoadResult traced;
    /** The kept responses of both loads, for verification. */
    std::vector<KeptResponse> kept;
};

/**
 * Run @p spec against @p server for opt.seconds, windowed; on a traced
 * run for half that, unwindowed, then scrape the metrics op and rerun
 * with one obs::Tracer span per request into opt.traceOut.  Merges the
 * protocol failures into @p report and stops the server.
 */
ServeLoad driveServer(const Options &opt, LoadSpec spec,
                      std::unique_ptr<nucache::serve::Server> &server,
                      Report &report);

/**
 * Report a serving workload's end-to-end metrics: @p setup_s, peak RSS
 * and the medians over @p load's windows of latency p50, latency
 * @p tail_q quantile, request rate and server CPU per request.  Each is
 * also given under its descriptive name: <prefix>_p50_ms,
 * <prefix>_<tail>_ms and <prefix>_rps.
 */
void reportServeEnds(const LoadResult &load, double window_seconds,
                     double tail_q, const std::string &prefix,
                     const std::string &tail, double setup_s,
                     Report &report);

/**
 * Verify a run_mix response @p line against @p expected field text
 * (exactFields / estimateFields, chosen by @p estimate).
 * @return the failure reason, or "" when the result is right.
 */
std::string checkResult(const std::string &line,
                        const std::string &expected, bool estimate);

/**
 * Time @p fn over @p n items, repeating the pass until at least
 * @p min_seconds elapsed.  @return mean microseconds per call.
 */
double meanMicros(std::size_t n, const std::function<void(std::size_t)> &fn,
                  double min_seconds = 0.2);

} // namespace e2e

#endif // E2EBENCH_BENCH_HH
