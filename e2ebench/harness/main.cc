/**
 * @file
 * The end-to-end benchmark's entry point.
 *
 *   e2ebench --workload fig_grid|serve_exact|serve_inline --seed N
 *            --seconds S --trace 0|1 [--golden FILE] [--trace-out FILE]
 *   e2ebench --write-golden FILE [--seed N]
 *
 * Prints the run environment and a text report, then one JSON object
 * as the last line of standard output: {"correct", "attempted",
 * "failed", "metrics"} with the end-to-end metrics (--trace 0) or the
 * per-layer metrics of the traced run (--trace 1).  A checked,
 * sanitized or unoptimized build is refused with exit code 2.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hh"
#include "common/thread_pool.hh"

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "e2ebench: " << why << "\n"
              << "usage: e2ebench --workload fig_grid|serve_exact|"
                 "serve_inline --seed N --seconds S --trace 0|1\n"
                 "                [--golden FILE] [--trace-out FILE]\n"
                 "       e2ebench --write-golden FILE [--seed N]\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0')
        usage("bad value for " + flag + ": '" + text + "'");
    return v;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    e2e::Options opt;
    std::string workload, writeGolden;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            opt.seed = parseCount(flag, value);
        else if (flag == "--seconds")
            opt.seconds = static_cast<double>(parseCount(flag, value));
        else if (flag == "--trace")
            opt.trace = parseCount(flag, value) != 0;
        else if (flag == "--golden")
            opt.goldenPath = value;
        else if (flag == "--trace-out")
            opt.traceOut = value;
        else if (flag == "--write-golden")
            writeGolden = value;
        else
            usage("unknown flag " + flag);
    }
    // The load never uses more threads than the host has, up to four.
    opt.jobs = std::min(4u, nucache::ThreadPool::hardwareConcurrency());

    const e2e::BuildEnv env = e2e::buildEnv();
    std::cout << "# env hardware_threads=" << env.hardwareThreads
              << " jobs=" << opt.jobs << " compiler=\"" << env.compiler
              << "\" build_type=" << env.buildType
              << " NUCACHE_NATIVE=" << (env.native ? "ON" : "OFF")
              << " NUCACHE_CHECK=" << (env.check ? "ON" : "OFF")
              << " sanitizers=" << (env.sanitizers.empty() ? "none"
                                                            : env.sanitizers)
              << "\n";
    if (const std::string why = e2e::refusalReason(env); !why.empty()) {
        std::cerr << "e2ebench: refusing to measure: " << why << "\n";
        return 2;
    }

    if (!writeGolden.empty()) {
        e2e::writeGolden(opt, writeGolden);
        std::cout << "# wrote " << writeGolden << "\n";
        return 0;
    }
    if (opt.seconds <= 0.0)
        usage("--seconds must be positive");

    e2e::Report report;
    if (workload == "fig_grid")
        report = e2e::runFigGrid(opt);
    else if (workload == "serve_exact")
        report = e2e::runServeExact(opt);
    else if (workload == "serve_inline")
        report = e2e::runServeInline(opt);
    else
        usage("unknown workload '" + workload + "'");
    std::cout << "# workload=" << workload << " seed=" << opt.seed
              << " seconds=" << opt.seconds << " trace=" << opt.trace
              << "\n";
    report.print(std::cout, opt.trace);
    return 0;
}
