/**
 * @file
 * Tests for the shared trace arena: cursor streams must be
 * record-for-record identical to the generators they replace
 * (including across chunk boundaries and after reset()), each
 * (workload, length) key must be reserved and generated exactly once
 * no matter how many threads — or RunEngine grid jobs — read it
 * concurrently, generation must stop at the deepest record read, and
 * the 6-byte packed form must round-trip every value it admits, hold
 * every address the catalog can generate, and keep its per-buffer PC
 * table consistent under concurrent extension.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "attack/attack.hh"
#include "common/thread_pool.hh"
#include "sim/experiment.hh"
#include "sim/run_engine.hh"
#include "trace/arena.hh"
#include "trace/workloads.hh"

namespace nucache
{
namespace
{

/** Assert @p a and @p b hold the same record; @p label names it. */
void
expectSameRecord(const TraceRecord &a, const TraceRecord &b,
                 const std::string &label)
{
    ASSERT_EQ(a.addr, b.addr) << label;
    ASSERT_EQ(a.pc, b.pc) << label;
    ASSERT_EQ(a.nonMemGap, b.nonMemGap) << label;
    ASSERT_EQ(a.isWrite, b.isWrite) << label;
}

/** Compare two sources record-for-record until both are exhausted. */
void
expectSameStream(TraceSource &a, TraceSource &b,
                 const std::string &label)
{
    TraceRecord ra, rb;
    std::uint64_t i = 0;
    for (;;) {
        const bool more_a = a.next(ra);
        const bool more_b = b.next(rb);
        ASSERT_EQ(more_a, more_b) << label << " length @" << i;
        if (!more_a)
            return;
        ASSERT_NO_FATAL_FAILURE(
            expectSameRecord(ra, rb, label + " @" + std::to_string(i)));
        ++i;
    }
}

/**
 * An arena cursor replays exactly the stream of the generator it
 * replaces, and reset() rewinds it to the identical stream again
 * (the wrap-around methodology relies on both).
 */
TEST(TraceArena, CursorMatchesGeneratorIncludingReset)
{
    constexpr std::uint64_t kLen = 30000;
    const std::vector<std::string> names = {"zipf_hot", "stream_pure",
                                            "chase_big", "mix_rw"};
    for (const std::string &name : names) {
        const TraceSourcePtr gen = makeWorkload(name, kLen);
        const TraceSourcePtr cur =
            TraceArena::instance().open(name, kLen);
        EXPECT_EQ(cur->name(), gen->name());
        expectSameStream(*gen, *cur, name + "/pass1");
        gen->reset();
        cur->reset();
        expectSameStream(*gen, *cur, name + "/pass2");
    }
}

/** Concurrent first requests for one key materialize exactly once. */
TEST(TraceArena, ConcurrentGetMaterializesOnce)
{
    TraceArena &arena = TraceArena::instance();
    arena.clear();
    const std::uint64_t before = arena.materializations();

    // A length override no other test uses, so every worker races on
    // a genuinely cold key.
    constexpr std::uint64_t kLen = 12347;
    std::vector<TraceArena::Buffer> bufs(32);
    ThreadPool pool(8);
    pool.parallelFor(bufs.size(), [&](std::size_t i) {
        bufs[i] = arena.get("zipf_hot", kLen);
    });

    EXPECT_EQ(arena.materializations() - before, 1u);
    for (const TraceArena::Buffer &b : bufs) {
        ASSERT_TRUE(b);
        // Every caller got the same shared buffer, not a copy.
        EXPECT_EQ(b.get(), bufs.front().get());
        EXPECT_EQ(b->length(), kLen);
    }
}

/**
 * End-to-end once-semantics: a parallel RunEngine grid touches each
 * distinct workload in many cells (every policy column plus the
 * run-alone baselines), yet the arena materializes each exactly once.
 */
TEST(TraceArena, EngineGridMaterializesOncePerWorkload)
{
    TraceArena &arena = TraceArena::instance();
    arena.clear();
    const std::uint64_t before = arena.materializations();

    const std::vector<WorkloadMix> mixes = {
        {"hot+ws", {"tiny_hot", "small_ws"}},
        {"ws+hot", {"small_ws", "tiny_hot"}},
    };
    RunEngine engine(2000, 4);
    const GridRun run = engine.runGrid(defaultHierarchy(2), mixes,
                                       {"lru", "nucache", "ucp"});
    ASSERT_EQ(run.cells.size(), mixes.size());

    // Two distinct workloads across all 6 cells + 4 baseline runs.
    EXPECT_EQ(arena.materializations() - before, 2u);
}

/**
 * Every catalog workload and an attack trace, PCs decoded through the
 * buffer's table, match the generator across every chunk boundary,
 * and a reset() after stopping mid-chunk replays the identical stream
 * from the start.
 */
TEST(TraceArena, CursorMatchesGeneratorAcrossChunks)
{
    constexpr std::uint64_t kLen = 32 * TraceBuffer::chunkRecords + 17;
    std::vector<std::string> names = workloadNames();
    names.push_back("attack:storm");
    for (const std::string &name : names) {
        const TraceSourcePtr cur = TraceArena::instance().open(name, kLen);
        TraceRecord rec;
        for (std::uint64_t i = 0; i < TraceBuffer::chunkRecords + 100; ++i)
            ASSERT_TRUE(cur->next(rec)) << name << " @" << i;
        cur->reset();
        const TraceSourcePtr gen = makeWorkload(name, kLen);
        expectSameStream(*gen, *cur, name + "/after-reset");
        gen->reset();
        cur->reset();
        expectSameStream(*gen, *cur, name + "/pass2");
    }
}

/**
 * Eight threads reading one cold key to staggered depths each see the
 * generator's stream, and the records are generated exactly once.
 */
TEST(TraceArena, ConcurrentExtensionMatchesGenerator)
{
    TraceArena &arena = TraceArena::instance();
    arena.clear();
    const std::uint64_t built_before = arena.materializations();
    const std::uint64_t records_before = arena.recordsGenerated();

    constexpr std::uint64_t kLen = 3 * TraceBuffer::chunkRecords + 5;
    constexpr std::size_t kThreads = 8;
    std::vector<std::uint64_t> mismatches(kThreads, 0);
    std::vector<std::uint64_t> read(kThreads, 0);
    ThreadPool pool(kThreads);
    pool.parallelFor(kThreads, [&](std::size_t t) {
        const std::uint64_t depth = kLen * (t + 1) / kThreads;
        const TraceSourcePtr cur = arena.open("mix_rw", kLen);
        const TraceSourcePtr gen = makeWorkload("mix_rw", kLen);
        TraceRecord a, b;
        while (read[t] < depth && cur->next(a)) {
            gen->next(b);
            if (a.addr != b.addr || a.pc != b.pc ||
                a.nonMemGap != b.nonMemGap || a.isWrite != b.isWrite)
                ++mismatches[t];
            ++read[t];
        }
        if (read[t] == kLen && cur->next(a))
            ++mismatches[t];
    });

    for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
        EXPECT_EQ(read[t], kLen * (t + 1) / kThreads) << "thread " << t;
    }
    EXPECT_EQ(arena.materializations() - built_before, 1u);
    EXPECT_EQ(arena.recordsGenerated() - records_before, kLen);
}

/** Reading a short prefix generates at most the chunk holding it. */
TEST(TraceArena, ShortReadGeneratesOneChunk)
{
    TraceArena &arena = TraceArena::instance();
    arena.clear();
    const std::uint64_t before = arena.recordsGenerated();

    const TraceArena::Buffer buf = arena.get("stream_pure");
    EXPECT_EQ(arena.recordsGenerated(), before);
    const TraceSourcePtr cur = arena.open("stream_pure");
    TraceRecord rec;
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(cur->next(rec));

    EXPECT_EQ(arena.recordsGenerated() - before,
              TraceBuffer::chunkRecords);
    EXPECT_GT(buf->length(), TraceBuffer::chunkRecords);
}

/**
 * A short-window mix, baselines included, generates only a sliver of
 * its workloads' full 2M-record passes.
 */
TEST(TraceArena, ShortRunMixGeneratesFewRecords)
{
    TraceArena &arena = TraceArena::instance();
    arena.clear();
    const std::uint64_t before = arena.recordsGenerated();

    RunEngine engine(50000, 1);
    const MixResult r = engine.runMix({"hot+ws", {"tiny_hot", "small_ws"}},
                                      "lru", defaultHierarchy(2));
    ASSERT_EQ(r.ipcAlone.size(), 2u);

    const std::uint64_t full =
        workloadSpec("tiny_hot").length + workloadSpec("small_ws").length;
    const std::uint64_t generated = arena.recordsGenerated() - before;
    EXPECT_GT(generated, 0u);
    EXPECT_LT(generated, full / 8) << "of " << full;
}

/**
 * Readers decode PCs from a buffer's published prefix while another
 * thread extends it, adding table entries: every decoded record
 * matches the generator's (the TSan build checks the publication).
 */
TEST(TraceArena, PcTableReadsRaceFreeWithExtension)
{
    TraceArena &arena = TraceArena::instance();
    arena.clear();
    // A length override no other test uses, so the buffer starts
    // cold, and two chunks past phase_shift's first phase change.
    const std::uint64_t kLen =
        (workloadSpec("phase_shift").phasePeriod /
             TraceBuffer::chunkRecords +
         2) * TraceBuffer::chunkRecords +
        3;
    std::vector<TraceRecord> want;
    const TraceSourcePtr gen = makeWorkload("phase_shift", kLen);
    for (TraceRecord rec; gen->next(rec);)
        want.push_back(rec);
    ASSERT_EQ(want.size(), kLen);
    // phase_shift changes phase mid-pass, so a later chunk adds PCs
    // to the table while the readers decode earlier ones.
    std::set<PC> first_chunk, all;
    for (std::uint64_t i = 0; i < kLen; ++i) {
        if (i < TraceBuffer::chunkRecords)
            first_chunk.insert(want[i].pc);
        all.insert(want[i].pc);
    }
    ASSERT_LT(first_chunk.size(), all.size());

    const TraceArena::Buffer buf = arena.get("phase_shift", kLen);
    // The first chunk exists before the readers start, so each of them
    // only ever reads, never extends.
    buf->ensure(1);
    constexpr std::size_t kReaders = 3;
    std::vector<std::uint64_t> mismatches(kReaders, 0);
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < kReaders; ++t) {
        readers.emplace_back([&, t] {
            std::uint64_t seen = 0;
            while (seen < kLen) {
                const std::uint64_t avail = buf->ensure(1);
                for (std::uint64_t i = seen; i < avail; ++i) {
                    const TraceRecord rec =
                        unpackRecord(buf->records()[i], buf->pcTable());
                    if (rec.pc != want[i].pc || rec.addr != want[i].addr ||
                        rec.nonMemGap != want[i].nonMemGap ||
                        rec.isWrite != want[i].isWrite)
                        ++mismatches[t];
                }
                seen = avail;
                std::this_thread::yield();
            }
        });
    }
    for (std::uint64_t n = TraceBuffer::chunkRecords; n < kLen;
         n += TraceBuffer::chunkRecords)
        buf->ensure(n + 1);
    for (std::thread &t : readers)
        t.join();
    for (std::size_t t = 0; t < kReaders; ++t)
        EXPECT_EQ(mismatches[t], 0u) << "reader " << t;
}

TEST(PackedRecord, BoundaryValuesRoundTrip)
{
    TraceRecord widest;
    widest.pc = kAttackProbePc;
    widest.addr = ((std::uint64_t{1} << packedBlockBits) - 1)
                  << packedBlockShift;
    widest.nonMemGap = (1u << packedGapBits) - 1;
    widest.isWrite = true;
    TraceRecord zero;
    TraceRecord read_side = widest;
    read_side.isWrite = false;
    TraceRecord full_pc = zero;
    full_pc.pc = invalidPC;
    // One field at its maximum beside zeros elsewhere, so a field
    // that spills into its neighbour shows.
    TraceRecord block_only = zero;
    block_only.addr = widest.addr;
    TraceRecord gap_only = zero;
    gap_only.nonMemGap = widest.nonMemGap;
    TraceRecord write_only = zero;
    write_only.isWrite = true;
    PcTable pcs;
    std::uint64_t index = 0;
    for (const TraceRecord &rec : {widest, zero, read_side, full_pc,
                                   block_only, gap_only, write_only}) {
        const PackedRecord p = packRecord(rec, pcs, "boundary", index++);
        ASSERT_NO_FATAL_FAILURE(
            expectSameRecord(unpackRecord(p, pcs.data()), rec, "round trip"));
    }

    // A full table: 256 distinct PCs, each decoded to itself when
    // packed first and again after the table has filled.
    std::vector<TraceRecord> distinct(PcTable::capacity, widest);
    distinct[0].pc = kAttackProbePc;
    distinct[1].pc = invalidPC;
    for (std::size_t i = 2; i < distinct.size(); ++i)
        distinct[i].pc = 0x400000 + 4 * i;
    PcTable full;
    std::vector<PackedRecord> packed;
    for (const TraceRecord &rec : distinct)
        packed.push_back(packRecord(rec, full, "boundary", index++));
    for (std::size_t i = distinct.size(); i-- > 0;)
        packed.push_back(packRecord(distinct[i], full, "boundary", index++));
    for (std::size_t i = 0; i < packed.size(); ++i) {
        const std::size_t j = i < distinct.size()
                                  ? i
                                  : 2 * distinct.size() - 1 - i;
        ASSERT_NO_FATAL_FAILURE(
            expectSameRecord(unpackRecord(packed[i], full.data()),
                             distinct[j], "pc " + std::to_string(j)));
    }
}

TEST(PackedRecordDeathTest, OutOfRangeFieldPanicsWithWorkloadName)
{
    PcTable pcs;
    TraceRecord odd;
    odd.addr = (std::uint64_t{1} << packedBlockShift) + 8;
    EXPECT_DEATH(packRecord(odd, pcs, "odd_addr_wl", 5),
                 "odd_addr_wl' record 5.*not aligned");
    TraceRecord far;
    far.addr = std::uint64_t{1} << (packedBlockBits + packedBlockShift);
    EXPECT_DEATH(packRecord(far, pcs, "far_addr_wl", 7),
                 "far_addr_wl' record 7.*block");
    TraceRecord slow;
    slow.nonMemGap = 1u << packedGapBits;
    EXPECT_DEATH(packRecord(slow, pcs, "long_gap_wl", 9),
                 "long_gap_wl' record 9.*gap");

    TraceRecord rec;
    for (unsigned i = 0; i < PcTable::capacity; ++i) {
        rec.pc = 0x400000 + 4 * i;
        packRecord(rec, pcs, "many_pcs_wl", i);
    }
    // A repeat of a tabled PC still packs; a new one does not fit.
    rec.pc = 0x400000;
    packRecord(rec, pcs, "many_pcs_wl", PcTable::capacity);
    rec.pc = 0x400000 + 4 * PcTable::capacity;
    EXPECT_DEATH(packRecord(rec, pcs, "many_pcs_wl", 257),
                 "many_pcs_wl' record 257.*distinct PCs");
}

/**
 * Every catalog pattern's region ends below the packed block limit,
 * so no catalog trace can reach packRecord's block panic.  Checked on
 * the specs, without generating a record.
 */
TEST(PackedRecord, CatalogAddressesFitBlockField)
{
    for (const std::string &name : workloadNames()) {
        const WorkloadSpec spec = workloadSpec(name);
        for (std::size_t i = 0; i < spec.patterns.size(); ++i) {
            const PatternSpec &p = spec.patterns[i];
            const std::uint64_t blocks =
                p.kind == PatternSpec::Kind::Stream ? genStreamWrapBlocks
                                                    : p.blocks;
            const std::uint64_t end =
                genRegionBase(i) / genBlockSize + blocks;
            EXPECT_LE(end, std::uint64_t{1} << packedBlockBits)
                << name << " pattern " << i;
        }
    }
}

} // anonymous namespace
} // namespace nucache
