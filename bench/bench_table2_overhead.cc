/**
 * @file
 * Table 2: hardware storage overhead of NUcache against the baseline
 * LLC and against UCP's utility monitors, computed analytically from
 * the default structure parameters.
 *
 * Accounting (per the design in src/core):
 *  - Tag-array extensions: per LLC line, a region bit, a compressed
 *    allocating-PC index (log2(PC table size)), and a FIFO / recency
 *    position of log2(ways) bits (the simulator's per-set order row
 *    holds the same ordering in one byte per way).
 *  - Next-Use monitor (per core): victim board entries (partial tag +
 *    PC index + distance stamp), PC table (PC tag + miss/retire
 *    counters), histograms (saturating counters).
 *  - UCP (per core): sampled shadow tags + way hit counters.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/bitutil.hh"
#include "core/nucache.hh"

using namespace nucache;

namespace
{

struct Overhead
{
    std::string component;
    std::uint64_t bits;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    const CliArgs args = bench::benchArgs(argc, argv);
    const unsigned cores =
        static_cast<unsigned>(args.getInt("cores", 4));
    const HierarchyConfig hier = defaultHierarchy(cores);
    const std::uint32_t sets = hier.llc.numSets();
    const std::uint32_t ways = hier.llc.ways;
    const std::uint64_t lines = std::uint64_t{sets} * ways;

    const NUcacheConfig nu;
    const std::uint32_t pc_table = nu.monitor.maxPcs;  // per core
    const unsigned pc_idx_bits = ceilLog2(pc_table * cores);
    const unsigned hist_buckets =
        (nu.monitor.histMaxLog2 - nu.monitor.histSubBits + 1) *
            (1u << nu.monitor.histSubBits) +
        (1u << nu.monitor.histSubBits);

    std::cout << "# Table 2: storage overhead (" << cores
              << " cores, LLC " << (hier.llc.sizeBytes >> 20)
              << " MiB " << ways << "-way)\n";

    std::vector<Overhead> nucache_parts = {
        {"region bit / line", lines * 1},
        {"alloc-PC index / line", lines * pc_idx_bits},
        {"DeliWays FIFO position / line",
         lines * ceilLog2(ways)},
        {"victim board (tag 24b + pc + stamp 20b)",
         std::uint64_t{nu.monitor.boardEntries} * cores *
             (24 + pc_idx_bits + 20)},
        {"PC table (pc 20b + 2x 16b counters)",
         std::uint64_t{pc_table} * cores * (20 + 32)},
        // A hardware design keeps full histograms only for the
        // candidate pool (the selection never reads the others).
        {"next-use histograms (pool PCs, 12b counters)",
         std::uint64_t{nu.selector.candidatePcs} * cores *
             hist_buckets * 12},
        {"selection list (PC pointers)",
         std::uint64_t{nu.selector.maxSelected} * cores * pc_idx_bits},
    };

    std::vector<Overhead> ucp_parts = {
        {"shadow tags (sampled sets x ways x 24b)",
         (std::uint64_t{sets} >> 5) * ways * 24 * cores},
        {"way hit counters (32b)",
         std::uint64_t{ways} * 32 * cores},
        {"quota registers", std::uint64_t{cores} * ceilLog2(ways + 1)},
    };

    const auto emit = [&](const char *name,
                          const std::vector<Overhead> &parts) {
        TextTable table;
        table.header({"component", "bits", "KiB"});
        std::uint64_t total = 0;
        for (const auto &p : parts) {
            table.row().cell(p.component).cell(p.bits).cell(
                static_cast<double>(p.bits) / 8.0 / 1024.0);
            total += p.bits;
        }
        table.row().cell("total").cell(total).cell(
            static_cast<double>(total) / 8.0 / 1024.0);
        const double pct = 100.0 * static_cast<double>(total) /
                           (static_cast<double>(hier.llc.sizeBytes) * 8);
        std::cout << "\n## " << name << " (" << pct
                  << "% of LLC data capacity)\n";
        table.print(std::cout);
    };

    emit("NUcache", nucache_parts);
    emit("UCP", ucp_parts);
    return 0;
}
