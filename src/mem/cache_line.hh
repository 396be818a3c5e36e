/**
 * @file
 * Cache line metadata and the access descriptor passed through the
 * memory hierarchy.
 */

#ifndef NUCACHE_MEM_CACHE_LINE_HH
#define NUCACHE_MEM_CACHE_LINE_HH

#include "common/types.hh"

namespace nucache
{

/**
 * Tag-array entry of one cache line, as the replacement hooks see it.
 *
 * Data contents are not modeled (trace-driven simulation needs only
 * hit/miss behaviour).  The tag store keeps tags, valid and dirty
 * bits only: a policy that keys on who allocated a line (the owning
 * core for UCP, the allocating PC for NUcache and Hawkeye) records it
 * itself in onFill, in a per-line column of its own.
 */
struct CacheLine
{
    /** Block-aligned tag (full address >> blockBits; no index split). */
    Addr tag = 0;
    /** Entry holds a live block. */
    bool valid = false;
    /** Block was written since allocation (write-back needed). */
    bool dirty = false;
};

/** One memory access as seen by a cache level. */
struct AccessInfo
{
    /** Full byte address. */
    Addr addr = 0;
    /** Program counter of the issuing instruction. */
    PC pc = invalidPC;
    /** Issuing core. */
    CoreId coreId = 0;
    /** Store (true) or load (false). */
    bool isWrite = false;
    /**
     * Issued by a prefetcher rather than a demand instruction; the
     * cache accounts these separately from demand traffic.
     */
    bool isPrefetch = false;
    /**
     * Access sequence number local to the receiving cache, assigned by
     * the cache itself; policies may use it as a recency stamp.
     */
    Tick tick = 0;
};

} // namespace nucache

#endif // NUCACHE_MEM_CACHE_LINE_HH
