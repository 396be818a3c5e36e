/**
 * @file
 * An open-addressed index over a caller-owned slot array: the Next-Use
 * monitor's victim board and PC table each keep their entries in one
 * flat vector and find them through a SlotIndex.
 *
 * Each cell holds a slot number + 1 (0 marks an empty cell); the keys
 * live in the slots, read back through a `key_of(slot)` callable.
 * Lookup probes linearly from the key's hashed home cell, and erasure
 * is backward-shift deletion, so the table needs no tombstones and a
 * probe run never outlives its members.  The cell count is a power of
 * two at least twice the live keys.
 */

#ifndef NUCACHE_CORE_SLOT_INDEX_HH
#define NUCACHE_CORE_SLOT_INDEX_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/bitutil.hh"

namespace nucache
{

/** Open-addressed key → slot index with linear probing. */
class SlotIndex
{
  public:
    /** Empty the index and size it for @p keys live keys. */
    void
    reset(std::size_t keys)
    {
        const std::size_t n =
            std::bit_ceil(std::max<std::size_t>(2 * keys, 2));
        cells.assign(n, 0);
        mask = n - 1;
    }

    /** @return the live keys the index holds at its load bound. */
    std::size_t capacity() const { return cells.size() / 2; }

    /**
     * @return the cell of @p key: the one naming its slot if @p key is
     * indexed, else the empty cell where it would go.
     */
    template <typename KeyOf>
    std::size_t
    find(std::uint64_t key, const KeyOf &key_of) const
    {
        std::size_t c = home(key);
        while (cells[c] != 0 && key_of(cells[c] - 1) != key)
            c = (c + 1) & mask;
        return c;
    }

    /** @return whether @p cell names a slot. */
    bool live(std::size_t cell) const { return cells[cell] != 0; }

    /** @return the slot a live @p cell names. */
    std::uint32_t slot(std::size_t cell) const { return cells[cell] - 1; }

    /** Point the empty @p cell (from find()) at @p slot. */
    void put(std::size_t cell, std::uint32_t slot) { cells[cell] = slot + 1; }

    /**
     * Empty the live @p cell: each later member of its probe run whose
     * home is not after the hole moves back into it.
     */
    template <typename KeyOf>
    void
    erase(std::size_t cell, const KeyOf &key_of)
    {
        std::size_t hole = cell;
        for (std::size_t c = (hole + 1) & mask; cells[c] != 0;
             c = (c + 1) & mask) {
            const std::size_t h = home(key_of(cells[c] - 1));
            if (((c - h) & mask) >= ((c - hole) & mask)) {
                cells[hole] = cells[c];
                hole = c;
            }
        }
        cells[hole] = 0;
    }

  private:
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(mix64(key)) & mask;
    }

    std::vector<std::uint32_t> cells;
    std::size_t mask = 0;
};

} // namespace nucache

#endif // NUCACHE_CORE_SLOT_INDEX_HH
