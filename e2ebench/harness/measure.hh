/**
 * @file
 * Measurement helpers of the end-to-end benchmark: clocks, order
 * statistics, failure accounting, canonical renderings of simulated
 * results for verification, and the record of how the measured
 * program was built.
 */

#ifndef E2EBENCH_MEASURE_HH
#define E2EBENCH_MEASURE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "model/predictor.hh"
#include "sim/experiment.hh"

namespace e2e
{

using Clock = std::chrono::steady_clock;

/** @return seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** @return this process's CPU time (user + system), in seconds. */
double processCpuSeconds();

/** @return this process's peak resident set size, in MiB. */
double peakRssMib();

/**
 * @return the @p q quantile (0 <= q <= 1) of @p values, interpolating
 * linearly between the two closest ranks; 0 when @p values is empty.
 */
double quantile(std::vector<double> values, double q);

/** @return the median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * Attempted/failed accounting for one run.  Each operation is recorded
 * exactly once: an error response, a dropped response, a wrong echoed
 * id and a wrong result are all one failure of that operation.
 */
class FailureLedger
{
  public:
    /** Record one operation; an empty @p failure means it succeeded. */
    void record(const std::string &failure = {});

    /** Record @p n operations that all failed for @p failure. */
    void recordFailures(std::uint64_t n, const std::string &failure);

    /**
     * Turn one already-recorded success into a failure: a response
     * whose envelope was fine but whose result proved wrong when it
     * was verified after the run.
     */
    void reclassify(const std::string &failure);

    /** Add @p other's operations to this ledger. */
    void merge(const FailureLedger &other);

    std::uint64_t attempted() const { return attempts; }
    std::uint64_t failed() const { return failures; }

    /** @return failed / attempted (0 when nothing was attempted). */
    double failRatio() const;

    /** @return the first few distinct failure reasons. */
    const std::vector<std::string> &reasons() const { return examples; }

  private:
    void note(const std::string &failure);

    std::uint64_t attempts = 0;
    std::uint64_t failures = 0;
    std::vector<std::string> examples;
};

/** @return the 64-bit FNV-1a hash of @p text. */
std::uint64_t fnv1a(const std::string &text);

/** @return @p v as 16 lowercase hex digits. */
std::string hex64(std::uint64_t v);

/**
 * Canonical text of the simulated statistics an exact run_mix answer
 * carries: the four speedup metrics, per-core workload / IPC /
 * run-alone IPC / LLC accesses and misses, LLC writebacks and DRAM
 * reads.  Both overloads render the same text for the same run, so a
 * response is correct iff its text equals the text of the simulator's
 * own MixResult.  The Json overload returns "" when a field is
 * missing.
 */
std::string exactFields(const nucache::MixResult &result);
std::string exactFields(const nucache::Json &result);

/** The same for an estimate-mode answer and the model's output. */
std::string estimateFields(const nucache::model::MixEstimate &est);
std::string estimateFields(const nucache::Json &result);

/**
 * Canonical text of every counter a finished System reports (per-core
 * instructions, cycles, L1/LLC counts; writebacks; DRAM).
 */
std::string systemFields(const nucache::SystemResult &result);

/** How the measured program was built, and where it runs. */
struct BuildEnv
{
    unsigned hardwareThreads = 0;
    std::string compiler;
    std::string buildType;
    /** Built with -march=native (NUCACHE_NATIVE). */
    bool native = false;
    /** Invariant checker on by default (NUCACHE_CHECK or --check). */
    bool check = false;
    /** Sanitizer compiled in, from the compiler's macros ("" = none). */
    std::string sanitizers;
};

/** @return the environment of this binary. */
BuildEnv buildEnv();

/**
 * @return why a run in @p env must not report timings (a checked,
 * sanitized or unoptimized build measures a different program), or
 * "" when it may.
 */
std::string refusalReason(const BuildEnv &env);

} // namespace e2e

#endif // E2EBENCH_MEASURE_HH
