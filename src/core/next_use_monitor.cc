#include "core/next_use_monitor.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace nucache
{

NextUseMonitor::NextUseMonitor(const NextUseMonitorConfig &config)
    : cfg(config), shift(config.sampleShift)
{
    if (cfg.boardEntries == 0)
        fatal("NextUseMonitor: victim board needs at least one entry");
    if (cfg.maxPcs == 0)
        fatal("NextUseMonitor: maxPcs must be non-zero");
    board.assign(cfg.boardEntries, BoardEntry{});
    boardIndex.reserve(cfg.boardEntries * 2);
}

bool
NextUseMonitor::sampled(std::uint32_t set) const
{
    // Hash the index before the modulus test so sampling never aligns
    // with strided access patterns (plain low-bit matching aliases with
    // any pattern whose period shares factors with the sample stride).
    return (mix64(set) & ((std::uint64_t{1} << shift) - 1)) == 0;
}

NextUseMonitor::PcEntry &
NextUseMonitor::pcEntry(PC pc)
{
    auto it = pcTable.find(pc);
    if (it != pcTable.end())
        return it->second;
    // Soft cap: allow growth between epochs; epochDecay prunes.
    it = pcTable.emplace(pc, PcEntry(cfg.histMaxLog2, cfg.histSubBits))
             .first;
    return it->second;
}

void
NextUseMonitor::matchBoard(Addr tag)
{
    const auto it = boardIndex.find(tag);
    if (it == boardIndex.end())
        return;
    BoardEntry &entry = board[it->second];
    // Distance in sampled misses, scaled to whole-cache units; credit
    // the PC that *allocated* the block — that PC's selection would
    // have saved (or did save) this use.
    const std::uint64_t distance = (missClock - entry.stamp) << shift;
    pcEntry(entry.allocPc).nextUse.add(distance);
    ++matched;
    entry.valid = false;
    boardIndex.erase(it);
}

void
NextUseMonitor::onMiss(std::uint32_t set, Addr tag, PC pc)
{
    if (!sampled(set))
        return;
    ++missClock;
    ++missCount;
    ++pcEntry(pc).misses;
    matchBoard(tag);
}

void
NextUseMonitor::onUse(std::uint32_t set, Addr tag)
{
    if (!sampled(set))
        return;
    matchBoard(tag);
}

void
NextUseMonitor::onLease(std::uint32_t set, PC alloc_pc)
{
    if (!sampled(set))
        return;
    ++pcEntry(alloc_pc).retires;
}

void
NextUseMonitor::onRetire(std::uint32_t set, Addr tag, PC alloc_pc)
{
    if (!sampled(set))
        return;
    ++pcEntry(alloc_pc).retires;
    // Claim the ring slot, displacing its previous occupant.
    BoardEntry &slot = board[boardHead];
    if (slot.valid)
        boardIndex.erase(slot.tag);
    // A re-retirement of a still-boarded tag keeps only the newest.
    const auto stale = boardIndex.find(tag);
    if (stale != boardIndex.end()) {
        board[stale->second].valid = false;
        boardIndex.erase(stale);
    }
    slot.tag = tag;
    slot.allocPc = alloc_pc;
    slot.stamp = missClock;
    slot.valid = true;
    boardIndex[tag] = boardHead;
    boardHead = (boardHead + 1) % cfg.boardEntries;
}

void
NextUseMonitor::epochDecay()
{
    for (auto &kv : pcTable) {
        kv.second.misses >>= 1;
        kv.second.retires >>= 1;
        kv.second.nextUse.decay();
    }
    // The profile *counters* age, but the miss clock is monotonic —
    // rescaling stamps would corrupt every distance that spans an
    // epoch boundary (at high core counts that is nearly all of them).
    missCount >>= 1;

    if (pcTable.size() <= cfg.maxPcs)
        return;
    // Prune down to the cap by the selection's own ranking, so a PC
    // the DeliWays serve is not dropped for its few misses, and ties
    // go the same way whatever the map's iteration order.
    const std::vector<PcProfile> order = topDelinquent(
        static_cast<std::uint32_t>(pcTable.size()));
    for (std::size_t i = cfg.maxPcs; i < order.size(); ++i)
        pcTable.erase(order[i].pc);
}

std::vector<PcProfile>
NextUseMonitor::topDelinquent(std::uint32_t k) const
{
    std::vector<PcProfile> out;
    out.reserve(pcTable.size());
    for (const auto &kv : pcTable) {
        PcProfile p;
        p.pc = kv.first;
        p.misses = kv.second.misses;
        p.retires = kv.second.retires;
        p.nextUse = &kv.second.nextUse;
        out.push_back(p);
    }
    // Rank by *counterfactual* delinquency: observed misses plus
    // observed next-uses.  A next-use served by the DeliWays is a miss
    // the selection removed; ranking by raw misses alone would expel a
    // PC from the pool as soon as selecting it works, deselect it, and
    // oscillate.
    const auto delinquency = [](const PcProfile &p) {
        return p.misses + (p.nextUse ? p.nextUse->total() : 0);
    };
    std::sort(out.begin(), out.end(),
              [&](const auto &a, const auto &b) {
                  const std::uint64_t da = delinquency(a);
                  const std::uint64_t db = delinquency(b);
                  if (da != db)
                      return da > db;
                  return a.pc < b.pc;  // deterministic tie-break
              });
    if (out.size() > k)
        out.resize(k);
    return out;
}

} // namespace nucache
