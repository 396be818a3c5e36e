/**
 * @file
 * String-keyed policy factory tying the baseline library and NUcache
 * together for the experiment harness.
 *
 * Specs use the grammar of common/spec.hh, `name[:key=value,...]`;
 * the family table in policies.cc lists every policy with its keys
 * and their ranges (README.md prints it).
 */

#ifndef NUCACHE_SIM_POLICIES_HH
#define NUCACHE_SIM_POLICIES_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/spec.hh"
#include "mem/replacement.hh"

namespace nucache
{

/**
 * Parse @p text against the policy table without ever exiting the
 * process: unknown families and keys, duplicate keys and values out
 * of a key's range all land in @p err.  A spec that parses, and that
 * validatePolicyForLlc() accepts for the run's LLC, is safe to hand
 * to makePolicy() from a server that must not fatal() on untrusted
 * input.
 */
bool parsePolicySpec(std::string_view text, spec::Spec &out,
                     std::string &err);

/**
 * @return a fresh policy instance for @p spec; fatal() on any spec
 * parsePolicySpec() rejects.
 */
std::unique_ptr<ReplacementPolicy> makePolicy(const std::string &spec);

/**
 * The geometry-dependent half of validation, for a parsed spec:
 * NUcache's DeliWays must leave a MainWay, and the partitioning
 * policies (ucp, pipp) need a way per core.
 * @param llc_ways associativity of the run's resolved LLC.
 * @param cores cores sharing it.
 * @return whether @p policy fits that LLC; err says why not.
 */
bool validatePolicyForLlc(const spec::Spec &policy, std::uint32_t llc_ways,
                          std::uint32_t cores, std::string &err);

/** @return the specs the evaluation compares (paper's Figure 4-6 set). */
const std::vector<std::string> &evaluationPolicySet();

/** @return all policy family names, in table order. */
const std::vector<std::string> &allPolicyNames();

} // namespace nucache

#endif // NUCACHE_SIM_POLICIES_HH
