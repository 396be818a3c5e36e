/**
 * @file
 * String-keyed policy factory tying the baseline library and NUcache
 * together for the experiment harness.
 *
 * Spec grammar:  name[:key=value[,key=value...]]
 *   lru | random | nru | srrip | brrip | drrip | dip | tadip |
 *   ucp | pipp | nucache | nucache-topk | nucache-all | nucache-none
 *
 * Common keys: epoch (UCP/PIPP accesses, NUcache misses).
 * NUcache keys: d (DeliWays), pool (candidate PCs), maxsel, topk,
 * board (victim-board entries), shift (monitor set-sampling shift).
 */

#ifndef NUCACHE_SIM_POLICIES_HH
#define NUCACHE_SIM_POLICIES_HH

#include <memory>
#include <string>
#include <vector>

#include "mem/replacement.hh"

namespace nucache
{

/**
 * @return a fresh policy instance for @p spec; fatal() on any spec
 * validatePolicySpec() rejects.
 */
std::unique_ptr<ReplacementPolicy> makePolicy(const std::string &spec);

/**
 * Validate @p spec without ever exiting the process: the base name
 * must be a recognized policy, every option must be "key=digits"
 * with a value that fits in 64 bits, an epoch length and a victim
 * board must be non-zero, a board at most 2^20 entries, and a
 * sampling shift below 32.  A spec that passes, and that
 * validatePolicyForLlc() accepts for the run's LLC, is safe to hand to
 * makePolicy() from a server that must not fatal() on untrusted input.
 * @param err on failure, filled with what was wrong.
 * @return whether @p spec is well-formed.
 */
bool validatePolicySpec(const std::string &spec, std::string &err);

/**
 * The geometry-dependent half of validation, for a spec that passed
 * validatePolicySpec(): NUcache's DeliWays must leave a MainWay, and
 * the partitioning policies (ucp, pipp) need a way per core.
 * @param llc_ways associativity of the run's resolved LLC.
 * @param cores cores sharing it.
 * @return whether @p spec fits that LLC; err says why not.
 */
bool validatePolicyForLlc(const std::string &spec, std::uint32_t llc_ways,
                          std::uint32_t cores, std::string &err);

/** @return the specs the evaluation compares (paper's Figure 4-6 set). */
const std::vector<std::string> &evaluationPolicySet();

/** @return all recognized base policy names. */
const std::vector<std::string> &allPolicyNames();

} // namespace nucache

#endif // NUCACHE_SIM_POLICIES_HH
