#include "sim/system.hh"

#include <algorithm>
#include <ostream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/obs_mode.hh"

namespace nucache
{

System::System(const HierarchyConfig &hier_config,
               std::unique_ptr<ReplacementPolicy> llc_policy,
               std::vector<TraceSourcePtr> traces,
               std::uint64_t records_per_core,
               bool check_invariants)
{
    if (traces.size() != hier_config.numCores)
        fatal("system: ", traces.size(), " traces for ",
              hier_config.numCores, " cores");
    hier = std::make_unique<MemoryHierarchy>(hier_config,
                                             std::move(llc_policy));
    if (check_invariants) {
        checkers.push_back(std::make_unique<CacheChecker>(hier->llc()));
        for (std::uint32_t c = 0; c < hier_config.numCores; ++c) {
            checkers.push_back(
                std::make_unique<CacheChecker>(hier->l1(c)));
            if (Cache *l2 = hier->l2(c)) {
                checkers.push_back(std::make_unique<CacheChecker>(*l2));
            }
        }
    }
    // Private outcomes come from the shared per-trace log unless the
    // live private caches are needed: inclusion back-invalidates them,
    // and the checker audits them.
    const bool log_private =
        !check_invariants && privateOutcomesLoggable(hier_config);
    for (std::uint32_t c = 0; c < hier_config.numCores; ++c) {
        cpus.push_back(std::make_unique<TraceCpu>(
            c, std::move(traces[c]), hier.get(), records_per_core,
            log_private));
    }
    if (const std::uint64_t interval = obs::telemetryInterval();
        interval > 0) {
        setupTelemetry(interval);
    }
}

void
System::setTelemetryLabel(std::string label)
{
    telemetryTag = std::move(label);
}

void
System::setupTelemetry(std::uint64_t interval)
{
    sampler = std::make_unique<obs::Sampler>(interval);
    Cache *llc = &hier->llc();
    llc->enableSetHeat();

    // Demand behaviour at the shared level, per core and in total.
    // Probes read the same deterministic counters the end-of-run
    // stats report, so the series is bit-identical at every --jobs
    // width.
    const auto addStats = [this](const std::string &prefix, auto stats) {
        sampler->addProbe(prefix + "accesses", [stats] {
            return static_cast<double>(stats().accesses);
        });
        sampler->addProbe(prefix + "misses", [stats] {
            return static_cast<double>(stats().misses);
        });
        sampler->addProbe(prefix + "miss_rate",
                          [stats] { return stats().missRate(); });
        sampler->addProbe(prefix + "evictions", [stats] {
            return static_cast<double>(stats().evictions);
        });
    };
    for (std::uint32_t c = 0; c < llc->numCores(); ++c) {
        addStats("core" + std::to_string(c) + ".llc.",
                 [llc, c] { return llc->coreStats(c); });
    }
    addStats("llc.", [llc] { return llc->totalStats(); });
    sampler->addProbe("llc.writebacks", [llc] {
        return static_cast<double>(llc->writebacks());
    });

    // Set-heat summaries: how skewed the LLC's set utilization is.
    sampler->addProbe("llc.heat.max", [llc] {
        const auto &heat = llc->setHeat();
        return heat.empty()
            ? 0.0
            : static_cast<double>(
                  *std::max_element(heat.begin(), heat.end()));
    });
    sampler->addProbe("llc.heat.mean", [llc] {
        const auto &heat = llc->setHeat();
        if (heat.empty())
            return 0.0;
        double sum = 0.0;
        for (const std::uint64_t h : heat)
            sum += static_cast<double>(h);
        return sum / static_cast<double>(heat.size());
    });
    sampler->addProbe("llc.heat.cold_sets", [llc] {
        const auto &heat = llc->setHeat();
        return static_cast<double>(
            std::count(heat.begin(), heat.end(), std::uint64_t{0}));
    });

    // Then whatever state the LLC's policy publishes about itself.
    llc->policy().addProbes(*sampler, *llc);
}

SystemResult
System::run()
{
    // Interleave by local time: the core with the smallest clock issues
    // next, which serializes shared-LLC accesses in causal order.
    std::size_t pending = cpus.size();
    std::vector<bool> counted(cpus.size(), false);
    obs::Sampler *smp = sampler.get();
    while (pending > 0) {
        TraceCpu *next = nullptr;
        for (auto &cpu : cpus) {
            // Cores that finished measuring keep running while others
            // measure, preserving contention.
            if (!next || cpu->now() < next->now())
                next = cpu.get();
        }
        next->step();
        if (smp)
            smp->maybeSample(hier->llc().accessCount());
        if (next->done() && !counted[next->id()]) {
            counted[next->id()] = true;
            --pending;
        }
    }

    SystemResult result;
    for (const auto &cpu : cpus) {
        CoreResult cr;
        cr.workload = cpu->workloadName();
        cr.ipc = cpu->ipc();
        cr.instructions = cpu->instructionsAtTarget();
        cr.cycles = cpu->cyclesAtTarget();
        cr.l1 = cpu->l1Stats();
        cr.llc = hier->llc().coreStats(cpu->id());
        result.cores.push_back(std::move(cr));
    }
    result.llcWritebacks = hier->llc().writebacks();
    result.dramReads = hier->dram().reads();
    result.dramQueueCycles = hier->dram().queueingCycles();

    // Closing audit: the per-access sweeps only visit touched sets, so
    // finish with a pass over every set of every checked cache.
    for (const auto &checker : checkers)
        checker->checkAll();

    if (smp) {
        // Final snapshot (unless a stride boundary just took one),
        // then publish the finished series with the full stats tree.
        const std::uint64_t accesses = hier->llc().accessCount();
        if (smp->rows() == 0 || smp->lastAt() != accesses)
            smp->sampleNow(accesses);
        std::string label = telemetryTag;
        if (label.empty()) {
            label = hier->llc().policy().name() + "/";
            for (std::size_t i = 0; i < cpus.size(); ++i) {
                if (i != 0)
                    label += "+";
                label += cpus[i]->workloadName();
            }
        }
        obs::TelemetrySeries series = smp->series(label);
        series.finalStats = statsJson();
        obs::TelemetryHub::instance().publish(std::move(series));
    }
    return result;
}

std::uint64_t
System::invariantChecksRun() const
{
    std::uint64_t total = 0;
    for (const auto &checker : checkers)
        total += checker->checksRun();
    return total;
}

void
System::forEachStatGroup(
    const std::function<void(StatGroup &)> &emit) const
{
    const auto fill_cache = [](StatGroup &g, const CacheCoreStats &s) {
        g.counter("accesses") = s.accesses;
        g.counter("hits") = s.hits;
        g.counter("misses") = s.misses;
        if (s.prefetches != 0) {
            g.counter("prefetches") = s.prefetches;
            g.counter("prefetch_fills") = s.prefetchFills;
        }
        g.setScalar("miss_rate", s.missRate());
    };

    for (const auto &cpu : cpus) {
        StatGroup core("cpu" + std::to_string(cpu->id()));
        core.counter("instructions") = cpu->instructionsAtTarget();
        core.counter("cycles") = cpu->cyclesAtTarget();
        core.counter("records") = cpu->recordsReplayed();
        core.counter("trace_wraps") = cpu->wraps();
        core.setScalar("ipc", cpu->ipc());
        emit(core);

        StatGroup l1("cpu" + std::to_string(cpu->id()) + ".l1");
        fill_cache(l1, cpu->l1Stats());
        emit(l1);

        StatGroup llc("cpu" + std::to_string(cpu->id()) + ".llc");
        fill_cache(llc, hier->llc().coreStats(cpu->id()));
        emit(llc);
    }

    StatGroup llc("llc");
    fill_cache(llc, hier->llc().totalStats());
    llc.counter("writebacks") = hier->llc().writebacks();
    emit(llc);

    StatGroup dram("dram");
    dram.counter("reads") = hier->dram().reads();
    dram.counter("writes") = hier->dram().writes();
    dram.counter("queueing_cycles") = hier->dram().queueingCycles();
    emit(dram);
}

void
System::dumpStats(std::ostream &os) const
{
    forEachStatGroup([&os](StatGroup &g) { g.dump(os); });
}

Json
System::statsJson() const
{
    Json root = Json::object();
    forEachStatGroup([&root](StatGroup &g) { g.dumpJson(root); });
    return root;
}

} // namespace nucache
