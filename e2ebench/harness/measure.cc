#include "measure.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <thread>

#include "check/check_mode.hh"

namespace e2e
{

using nucache::Json;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

void
FailureLedger::note(const std::string &failure)
{
    constexpr std::size_t kExamples = 8;
    if (examples.size() < kExamples &&
        std::find(examples.begin(), examples.end(), failure) ==
            examples.end())
        examples.push_back(failure);
}

void
FailureLedger::record(const std::string &failure)
{
    ++attempts;
    if (failure.empty())
        return;
    ++failures;
    note(failure);
}

void
FailureLedger::recordFailures(std::uint64_t n, const std::string &failure)
{
    attempts += n;
    failures += n;
    if (n != 0)
        note(failure);
}

void
FailureLedger::reclassify(const std::string &failure)
{
    if (failures < attempts)
        ++failures;
    note(failure);
}

void
FailureLedger::merge(const FailureLedger &other)
{
    attempts += other.attempts;
    failures += other.failures;
    for (const std::string &r : other.examples)
        note(r);
}

double
FailureLedger::failRatio() const
{
    return attempts == 0 ? 0.0
                         : static_cast<double>(failures) /
                               static_cast<double>(attempts);
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

namespace
{

/** Appends "name=value;" members with round-trip number formatting. */
class FieldText
{
  public:
    void
    num(const char *name, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        put(name, buf);
    }

    void
    count(const char *name, std::uint64_t v)
    {
        put(name, std::to_string(v));
    }

    void
    put(const char *name, const std::string &v)
    {
        text += name;
        text += '=';
        text += v;
        text += ';';
    }

    std::string text;
};

/** @return @p obj's numeric member @p key; sets @p ok false if absent. */
double
numAt(const Json &obj, const char *key, bool &ok)
{
    const Json *v = obj.isObject() ? obj.find(key) : nullptr;
    if (v == nullptr || !v->isNumber()) {
        ok = false;
        return 0.0;
    }
    return v->asDouble();
}

std::uint64_t
countAt(const Json &obj, const char *key, bool &ok)
{
    const Json *v = obj.isObject() ? obj.find(key) : nullptr;
    if (v == nullptr || !v->isNumber()) {
        ok = false;
        return 0;
    }
    return v->asUint();
}

std::string
stringAt(const Json &obj, const char *key, bool &ok)
{
    const Json *v = obj.isObject() ? obj.find(key) : nullptr;
    if (v == nullptr || !v->isString()) {
        ok = false;
        return {};
    }
    return v->asString();
}

const std::vector<Json> *
coresOf(const Json &result)
{
    const Json *cores = result.isObject() ? result.find("cores") : nullptr;
    return cores != nullptr && cores->isArray() ? &cores->elements()
                                                : nullptr;
}

std::uint64_t
rounded(double v)
{
    return static_cast<std::uint64_t>(v + 0.5);
}

} // anonymous namespace

std::string
exactFields(const nucache::MixResult &result)
{
    FieldText f;
    f.num("ws", result.weightedSpeedup);
    f.num("hs", result.hmeanSpeedup);
    f.num("antt", result.antt);
    f.num("fair", result.fairness);
    for (std::size_t i = 0; i < result.system.cores.size(); ++i) {
        const nucache::CoreResult &core = result.system.cores[i];
        f.put("w", core.workload);
        f.num("ipc", core.ipc);
        f.num("alone", i < result.ipcAlone.size() ? result.ipcAlone[i]
                                                  : 0.0);
        f.count("acc", core.llc.accesses);
        f.count("miss", core.llc.misses);
    }
    f.count("wb", result.system.llcWritebacks);
    f.count("dram", result.system.dramReads);
    return f.text;
}

std::string
exactFields(const Json &result)
{
    bool ok = true;
    FieldText f;
    f.num("ws", numAt(result, "weighted_speedup", ok));
    f.num("hs", numAt(result, "hmean_speedup", ok));
    f.num("antt", numAt(result, "antt", ok));
    f.num("fair", numAt(result, "fairness", ok));
    const std::vector<Json> *cores = coresOf(result);
    if (cores == nullptr)
        return {};
    for (const Json &core : *cores) {
        f.put("w", stringAt(core, "workload", ok));
        f.num("ipc", numAt(core, "ipc", ok));
        f.num("alone", numAt(core, "ipc_alone", ok));
        f.count("acc", countAt(core, "llc_accesses", ok));
        f.count("miss", countAt(core, "llc_misses", ok));
    }
    f.count("wb", countAt(result, "llc_writebacks", ok));
    f.count("dram", countAt(result, "dram_reads", ok));
    return ok ? f.text : std::string();
}

std::string
estimateFields(const nucache::model::MixEstimate &est)
{
    FieldText f;
    f.num("ws", est.weightedSpeedup);
    f.num("hs", est.hmeanSpeedup);
    f.num("antt", est.antt);
    f.num("fair", est.fairness);
    f.num("hit", est.llcHitRate);
    for (const nucache::model::CoreEstimate &core : est.cores) {
        f.put("w", core.workload);
        f.num("ipc", core.ipc);
        f.num("alone", core.ipcAlone);
        f.num("hit", core.hitRate);
        f.count("acc", rounded(core.llcAccesses));
        f.count("miss", rounded(core.llcMisses));
    }
    return f.text;
}

std::string
estimateFields(const Json &result)
{
    bool ok = true;
    FieldText f;
    f.num("ws", numAt(result, "weighted_speedup", ok));
    f.num("hs", numAt(result, "hmean_speedup", ok));
    f.num("antt", numAt(result, "antt", ok));
    f.num("fair", numAt(result, "fairness", ok));
    f.num("hit", numAt(result, "llc_hit_rate", ok));
    const std::vector<Json> *cores = coresOf(result);
    if (cores == nullptr)
        return {};
    for (const Json &core : *cores) {
        f.put("w", stringAt(core, "workload", ok));
        f.num("ipc", numAt(core, "ipc", ok));
        f.num("alone", numAt(core, "ipc_alone", ok));
        f.num("hit", numAt(core, "llc_hit_rate", ok));
        f.count("acc", countAt(core, "llc_accesses", ok));
        f.count("miss", countAt(core, "llc_misses", ok));
    }
    return ok ? f.text : std::string();
}

std::string
systemFields(const nucache::SystemResult &result)
{
    FieldText f;
    for (const nucache::CoreResult &core : result.cores) {
        f.put("w", core.workload);
        f.num("ipc", core.ipc);
        f.count("inst", core.instructions);
        f.count("cyc", core.cycles);
        f.count("l1acc", core.l1.accesses);
        f.count("l1miss", core.l1.misses);
        f.count("acc", core.llc.accesses);
        f.count("hits", core.llc.hits);
        f.count("miss", core.llc.misses);
        f.count("evict", core.llc.evictions);
    }
    f.count("wb", result.llcWritebacks);
    f.count("dram", result.dramReads);
    f.count("dramq", result.dramQueueCycles);
    return f.text;
}

BuildEnv
buildEnv()
{
    BuildEnv env;
    env.hardwareThreads = std::thread::hardware_concurrency();
    env.compiler = E2EBENCH_COMPILER;
    env.buildType = E2EBENCH_BUILD_TYPE;
    // The benchmark's build never passes -march=native.
    env.native = false;
    env.check = nucache::check::enabled();
#if defined(__SANITIZE_ADDRESS__)
    env.sanitizers = "address";
#elif defined(__SANITIZE_THREAD__)
    env.sanitizers = "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    env.sanitizers = "address";
#elif __has_feature(thread_sanitizer)
    env.sanitizers = "thread";
#endif
#endif
    return env;
}

std::string
refusalReason(const BuildEnv &env)
{
    if (env.check)
        return "the invariant checker is on (NUCACHE_CHECK): every "
               "access pays a set sweep";
    if (!env.sanitizers.empty())
        return "sanitized build (" + env.sanitizers + ")";
    if (env.buildType == "Debug")
        return "unoptimized Debug build";
    return {};
}

} // namespace e2e
