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
    boardIndex.reset(cfg.boardEntries);
    pcTable.reserve(cfg.maxPcs);
    pcIndex.reset(cfg.maxPcs);
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
    const auto key = [this](std::uint32_t s) { return pcTable[s].pc; };
    std::size_t cell = pcIndex.find(pc, key);
    if (pcIndex.live(cell))
        return pcTable[pcIndex.slot(cell)];
    // Soft cap: allow growth between epochs; epochDecay prunes.
    if (pcTable.size() == pcIndex.capacity()) {
        reindexPcs(2 * pcTable.size());
        cell = pcIndex.find(pc, key);
    }
    pcIndex.put(cell, static_cast<std::uint32_t>(pcTable.size()));
    return pcTable.emplace_back(pc, cfg.histMaxLog2, cfg.histSubBits);
}

void
NextUseMonitor::reindexPcs(std::size_t keys)
{
    const auto key = [this](std::uint32_t s) { return pcTable[s].pc; };
    pcIndex.reset(keys);
    for (std::uint32_t s = 0; s < pcTable.size(); ++s)
        pcIndex.put(pcIndex.find(pcTable[s].pc, key), s);
}

void
NextUseMonitor::matchBoard(Addr tag)
{
    const auto key = [this](std::uint32_t s) { return board[s].tag; };
    const std::size_t cell = boardIndex.find(tag, key);
    if (!boardIndex.live(cell))
        return;
    const BoardEntry &entry = board[boardIndex.slot(cell)];
    // Distance in sampled misses, scaled to whole-cache units; credit
    // the PC that *allocated* the block — that PC's selection would
    // have saved (or did save) this use.
    const std::uint64_t distance = (missClock - entry.stamp) << shift;
    pcEntry(entry.allocPc).nextUse.add(distance);
    ++matched;
    boardIndex.erase(cell, key);
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
    const auto key = [this](std::uint32_t s) { return board[s].tag; };
    // Claim the ring slot, displacing its previous occupant if the
    // index still names it.
    const std::size_t occupant = boardIndex.find(board[boardHead].tag, key);
    if (boardIndex.live(occupant) && boardIndex.slot(occupant) == boardHead)
        boardIndex.erase(occupant, key);
    // A re-retirement of a still-boarded tag keeps only the newest.
    std::size_t cell = boardIndex.find(tag, key);
    if (boardIndex.live(cell)) {
        boardIndex.erase(cell, key);
        cell = boardIndex.find(tag, key);
    }
    board[boardHead] = BoardEntry{tag, alloc_pc, missClock};
    boardIndex.put(cell, boardHead);
    boardHead = (boardHead + 1) % cfg.boardEntries;
}

void
NextUseMonitor::epochDecay()
{
    for (PcEntry &e : pcTable) {
        e.misses >>= 1;
        e.retires >>= 1;
        e.nextUse.decay();
    }
    // The profile *counters* age, but the miss clock is monotonic —
    // rescaling stamps would corrupt every distance that spans an
    // epoch boundary (at high core counts that is nearly all of them).
    missCount >>= 1;

    if (pcTable.size() <= cfg.maxPcs)
        return;
    // Prune down to the cap by the selection's own ranking, so a PC
    // the DeliWays serve is not dropped for its few misses, and ties
    // go the same way whatever the table's order.
    const std::vector<PcProfile> order = topDelinquent(
        static_cast<std::uint32_t>(pcTable.size()));
    std::vector<bool> keep(pcTable.size(), false);
    const auto key = [this](std::uint32_t s) { return pcTable[s].pc; };
    for (std::size_t i = 0; i < cfg.maxPcs; ++i)
        keep[pcIndex.slot(pcIndex.find(order[i].pc, key))] = true;
    std::size_t kept = 0;
    for (std::size_t s = 0; s < pcTable.size(); ++s) {
        if (!keep[s])
            continue;
        if (kept != s)
            pcTable[kept] = std::move(pcTable[s]);
        ++kept;
    }
    pcTable.erase(pcTable.begin() + static_cast<std::ptrdiff_t>(kept),
                  pcTable.end());
    reindexPcs(cfg.maxPcs);
}

std::vector<PcProfile>
NextUseMonitor::topDelinquent(std::uint32_t k) const
{
    std::vector<PcProfile> out;
    out.reserve(pcTable.size());
    for (const PcEntry &e : pcTable)
        out.push_back(PcProfile{e.pc, e.misses, e.retires, &e.nextUse});
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
