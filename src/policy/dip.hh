/**
 * @file
 * Dynamic Insertion Policy (Qureshi et al., ISCA'07) and its
 * thread-aware extension TADIP-F (Jaleel et al., PACT'08).
 *
 * Both keep true-LRU ordering but choose the *insertion position* of
 * fills: traditional MRU insertion versus Bimodal insertion (BIP: LRU
 * position except a 1/32 trickle to MRU), arbitrated by set dueling.
 * TADIP-F duels per core, so a thrashing co-runner can be demoted to
 * BIP while cache-friendly threads keep MRU insertion — one of the
 * partitioning-flavoured baselines the paper compares NUcache against.
 */

#ifndef NUCACHE_POLICY_DIP_HH
#define NUCACHE_POLICY_DIP_HH

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "mem/replacement.hh"
#include "policy/set_dueling.hh"

namespace nucache
{

/**
 * Shared machinery: stamp-based LRU where fills can be placed at the
 * MRU or the LRU end of the recency stack.
 */
class InsertionLruBase : public ReplacementPolicy
{
  public:
    void init(const PolicyContext &ctx) override;

    std::uint32_t victimWay(const SetView &set,
                            const AccessInfo &info) override;
    void onHit(const SetView &set, std::uint32_t way,
               const AccessInfo &info) override;
    void onFill(const SetView &set, std::uint32_t way,
                const AccessInfo &info) override;

  protected:
    /** @return true if this fill should be placed at MRU. */
    virtual bool insertAtMru(const SetView &set,
                             const AccessInfo &info) = 0;

    std::size_t
    slot(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * context.numWays + way;
    }

    std::vector<Tick> lastTouch;
};

/**
 * LIP: LRU Insertion Policy — every fill lands at the LRU position
 * and earns MRU only by being reused (the non-adaptive half of DIP,
 * kept as a baseline of its own as in the original paper).
 */
class LipPolicy : public InsertionLruBase
{
  public:
    std::string name() const override { return "lip"; }

  protected:
    bool
    insertAtMru(const SetView &set, const AccessInfo &info) override
    {
        (void)set;
        (void)info;
        return false;
    }
};

/** DIP: single PSEL dueling LRU-insertion against BIP. */
class DipPolicy : public InsertionLruBase
{
  public:
    explicit DipPolicy(double epsilon = 1.0 / 32.0,
                       std::uint32_t spacing = 32,
                       std::uint64_t seed = 0xd1bull)
        : eps(epsilon), duelSpacing(spacing), rng(seed)
    {
    }

    void init(const PolicyContext &ctx) override;
    void onMiss(const SetView &set, const AccessInfo &info) override;

    std::string name() const override { return "dip"; }

    /** Registers dip.psel. */
    void addProbes(obs::Sampler &sampler, const Cache &llc) const override;

    /** @return the PSEL counter value (tests). */
    std::uint32_t pselValue() const { return psel.value(); }

  protected:
    bool insertAtMru(const SetView &set, const AccessInfo &info) override;

  private:
    double eps;
    std::uint32_t duelSpacing;
    Rng rng;
    SaturatingCounter psel{10};
    std::unique_ptr<LeaderSets> leaders;
};

/**
 * TADIP-F: one PSEL and one leader-set lane per core; each core's
 * insertion depth is chosen independently.
 */
class TadipPolicy : public InsertionLruBase
{
  public:
    explicit TadipPolicy(double epsilon = 1.0 / 32.0,
                         std::uint32_t spacing = 32,
                         std::uint64_t seed = 0x7ad1bull)
        : eps(epsilon), duelSpacing(spacing), rng(seed)
    {
    }

    void init(const PolicyContext &ctx) override;
    void onMiss(const SetView &set, const AccessInfo &info) override;

    std::string name() const override { return "tadip"; }

    /** Registers tadip.psel.core<c> for every core. */
    void addProbes(obs::Sampler &sampler, const Cache &llc) const override;

    /** @return core @p c's PSEL value (tests). */
    std::uint32_t pselValue(CoreId c) const { return psels[c].value(); }

  protected:
    bool insertAtMru(const SetView &set, const AccessInfo &info) override;

  private:
    double eps;
    std::uint32_t duelSpacing;
    Rng rng;
    std::vector<SaturatingCounter> psels;
    std::vector<LeaderSets> leaders;
};

} // namespace nucache

#endif // NUCACHE_POLICY_DIP_HH
