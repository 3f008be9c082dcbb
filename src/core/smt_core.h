/**
 * @file
 * Cycle-level dual-threaded SMT out-of-order core model.
 *
 * Models the Table II core: 6-wide fetch/decode/dispatch/commit, ICOUNT
 * thread selection in the front-end, a 192-entry ROB and 64-entry LSQ with
 * per-thread limit/usage partition registers (the Stretch mechanism),
 * functional-unit pools (4 int ALU, 2 int mul, 3 FPU, 2 LSU), round-robin
 * commit selection, and a 12-cycle pipeline flush.
 *
 * The model is trace-driven: branch wrong paths are approximated by
 * stopping a thread's fetch at a mispredicted branch until it resolves and
 * then charging the flush penalty — the standard trace-driven treatment.
 * Everything the paper studies (window occupancy, partitioning, fetch
 * policy, cache/BP contention) is modeled cycle by cycle.
 */

#ifndef STRETCH_CORE_SMT_CORE_H
#define STRETCH_CORE_SMT_CORE_H

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "bp/branch_unit.h"
#include "cache/memory_hierarchy.h"
#include "core/partition.h"
#include "util/types.h"
#include "workload/generator.h"
#include "workload/op.h"

namespace stretch
{

/** Front-end thread-selection policy. */
enum class FetchPolicy
{
    Icount,     ///< fewest in-flight instructions first (Tullsen et al.)
    RoundRobin, ///< strict alternation
    Throttle,   ///< fixed 1:M fetch-cycle ratio (Section VI-B comparison)
};

/** Static core parameters (defaults mirror Table II). */
struct CoreParams
{
    unsigned fetchWidth = 6;
    unsigned fetchMaxBlocks = 2;   ///< cache blocks per fetch group
    unsigned fetchMaxBranches = 1; ///< branches per fetch group
    unsigned dispatchWidth = 6;
    unsigned issueWidth = 6;
    unsigned commitWidth = 6;

    unsigned robEntries = 192;
    unsigned lsqEntries = 64;
    unsigned fetchBufferEntries = 16; ///< per-thread fetch queue

    unsigned intAluCount = 4;
    unsigned intMulCount = 2;
    unsigned fpuCount = 3;
    unsigned lsuCount = 2;

    unsigned intAluLatency = 1;
    unsigned intMulLatency = 3;
    unsigned fpuLatency = 4;
    unsigned branchLatency = 1;

    unsigned flushPenalty = 12;   ///< mispredict / mode-change flush
    unsigned btbMissPenalty = 5;  ///< decode-stage redirect for taken
                                  ///< branches with correct direction but
                                  ///< no BTB-supplied target

    FetchPolicy fetchPolicy = FetchPolicy::Icount;
    /** Throttle policy: throttled thread gets 1 slot in (1 + ratio). */
    unsigned throttleRatio = 1;
    ThreadId throttledThread = 0;
};

/** Per-thread performance counters over a measurement window. */
struct ThreadStats
{
    std::uint64_t committedOps = 0;
    std::uint64_t fetchedOps = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t btbTargetMisses = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t dispatchStallRob = 0; ///< dispatch blocked: ROB limit
    std::uint64_t dispatchStallLsq = 0; ///< dispatch blocked: LSQ limit
    std::uint64_t robOccupancySum = 0;  ///< per-cycle sum for averaging
    /** Cycles with exactly n outstanding demand misses (n clamped to 8). */
    std::array<std::uint64_t, 9> mlpCycles{};
    /// @name Front-end stall accounting (cycles, by cause).
    /// @{
    std::uint64_t fetchStallICache = 0;
    std::uint64_t fetchStallBranchResolve = 0; ///< waiting + flush penalty
    std::uint64_t fetchStallBtbRedirect = 0;
    std::uint64_t fetchStallFlush = 0; ///< mode-change flush penalty
    /// @}
};

/**
 * The SMT core. Attach one TraceGenerator per hardware thread (or just
 * thread 0 for isolated single-thread runs), then step cycles.
 */
class SmtCore
{
  public:
    SmtCore(const CoreParams &params, MemoryHierarchy &hierarchy,
            BranchUnit &branch_unit);

    /** Bind a workload stream to a hardware thread (nullptr detaches). */
    void attachThread(ThreadId tid, TraceGenerator *gen);

    /// @name Partition control (the Stretch software interface).
    /// @{
    /** Program the ROB partition; takes effect immediately. */
    void configureRob(ShareMode mode, unsigned limit0, unsigned limit1);
    /** Program the LSQ partition. */
    void configureLsq(ShareMode mode, unsigned limit0, unsigned limit1);
    /** ROB resource (for inspection/tests). */
    const PartitionedResource &rob() const { return robRes; }
    /** LSQ resource (for inspection/tests). */
    const PartitionedResource &lsq() const { return lsqRes; }
    /**
     * Squash all in-flight instructions on both threads and charge the
     * flush penalty; squashed ops replay afterwards. Called on a Stretch
     * mode change (Section IV-C).
     */
    void flushAllThreads();
    /// @}

    /** Advance one cycle. */
    void cycle();

    /** Advance @p n cycles. */
    void run(std::uint64_t n);

    /**
     * Run until the given thread has committed @p ops more instructions.
     * @return cycles elapsed. Panics after @p max_cycles without progress.
     */
    std::uint64_t runUntilCommitted(ThreadId tid, std::uint64_t ops,
                                    std::uint64_t max_cycles = ~0ull);

    /**
     * Run until combined commits across both threads reach @p ops more.
     * @return cycles elapsed.
     */
    std::uint64_t runUntilTotalCommitted(std::uint64_t ops,
                                         std::uint64_t max_cycles = ~0ull);

    /** Absolute cycle count since construction. */
    Cycle now() const { return curCycle; }

    /** Cycles elapsed in the current measurement window. */
    Cycle windowCycles() const { return curCycle - statsStartCycle; }

    /** Stats of a thread for the current measurement window. */
    const ThreadStats &stats(ThreadId tid) const { return tstats[tid]; }

    /** Committed user instructions per cycle for a thread, this window. */
    double uipc(ThreadId tid) const;

    /** Start a fresh measurement window (end of warmup). */
    void clearStats();

    /** ROB occupancy of a thread right now (usage register value). */
    unsigned robOccupancy(ThreadId tid) const { return robRes.usage(tid); }

    /** In-flight ops of a thread whose operands are ready but that have
     *  not issued yet (for inspection/tests). */
    unsigned readyOps(ThreadId tid) const;

  private:
    /**
     * In-flight instruction state. A Waiting entry has not issued yet;
     * its bit in the thread's readyMask says whether its operands are
     * ready.
     */
    enum class EntryState : std::uint8_t { Waiting, Issued, Done };

    /** Consumer record; the seq guards against slot reuse after squash. */
    struct Consumer
    {
        std::uint32_t slot;
        std::uint64_t seq;
    };

    struct Entry
    {
        MicroOp op;
        std::uint64_t seq = 0;
        EntryState state = EntryState::Waiting;
        std::uint8_t waitCount = 0;
        bool valid = false;
        bool mispredicted = false; ///< resolves with a full flush penalty
        /** Load/store parked on MshrFull: the epoch to retry with (see
         *  MemoryHierarchy::dataAccess); 0 = not parked. */
        std::uint64_t parkedEpoch = 0;
        std::vector<Consumer> consumers; ///< dependents (same thread)
    };

    struct FetchedOp
    {
        MicroOp op;
        bool mispredicted = false;
    };

    /** Why a thread's fetch is currently blocked (for stall accounting). */
    enum class FetchBlock : std::uint8_t
    {
        None,
        ICache,
        BranchResolve,
        BtbRedirect,
        Flush,
    };

    struct ThreadState
    {
        TraceGenerator *gen = nullptr;
        FetchBlock blockReason = FetchBlock::None;
        // Replay queue holds squashed-but-uncommitted ops (mode-change
        // flush) that must re-enter the pipeline before new trace ops.
        std::deque<MicroOp> replay;
        bool pendingValid = false;
        MicroOp pending; ///< op fetched from the stream but not yet consumed

        // Fetch queue: a ring of fetchBufferEntries slots.
        std::vector<FetchedOp> fetchBuf;
        std::uint32_t fetchHead = 0;
        std::uint32_t fetchCount = 0;
        Cycle fetchBlockedUntil = 0;
        bool waitingBranch = false; ///< mispredict in flight; fetch stopped

        // Circular ROB storage (capacity = robEntries). Ring order from
        // head is dispatch order, hence age order within the thread.
        std::vector<Entry> ring;
        std::uint32_t head = 0; ///< oldest entry slot
        std::uint32_t count = 0;

        // Architectural register producer map: seq/slot of last in-flight
        // writer (seq 0 = register value ready).
        std::array<std::uint64_t, numArchRegs> regSeq{};
        std::array<std::uint32_t, numArchRegs> regSlot{};

        /** Issue queue: bit s set = ring[s] is Waiting with its operands
         *  ready. */
        std::vector<std::uint64_t> readyMask;
    };

    struct Event
    {
        ThreadId tid;
        std::uint32_t slot;
        std::uint64_t seq;
    };

    // Pipeline stages (called oldest-to-youngest each cycle).
    void doCommit();
    void doCompletions();
    void doIssue();
    void doDispatch();
    void doFetch();
    void accountCycle();

    void fetchThread(ThreadId tid, unsigned &budget);
    void dispatchThread(ThreadId tid, unsigned &budget);
    unsigned icount(ThreadId tid) const;
    ThreadId fetchPrimary();

    void scheduleCompletion(ThreadId tid, std::uint32_t slot,
                            std::uint64_t seq, Cycle when);
    void completeEntry(ThreadId tid, std::uint32_t slot);
    void flushThread(ThreadId tid);

    /** a + b on a ring of @p size slots, for a, b < size. */
    static std::uint32_t
    ringAdd(std::uint32_t a, std::uint32_t b, std::uint32_t size)
    {
        std::uint32_t sum = a + b;
        return sum >= size ? sum - size : sum;
    }

    std::uint32_t slotIndex(const ThreadState &ts, std::uint32_t nth) const
    {
        return ringAdd(ts.head, nth, params.robEntries);
    }

    static void
    markReady(ThreadState &ts, std::uint32_t slot)
    {
        ts.readyMask[slot >> 6] |= std::uint64_t(1) << (slot & 63);
    }

    /**
     * Walks one thread's ready slots oldest first. In-flight entries
     * occupy ring slots [head, head + count), wrapping at the ring's end,
     * so the walk visits the ready mask's words from head's word on, in
     * ring order, up to the word holding the youngest entry. When the
     * window wraps back into head's word, that word's second visit takes
     * only the bits below head.
     */
    class ReadyCursor
    {
      public:
        explicit ReadyCursor(const ThreadState &ts)
            : mask(ts.readyMask.data()),
              words(static_cast<std::uint32_t>(ts.readyMask.size())),
              word(ts.head >> 6), headWord(word), headBit(ts.head & 63)
        {
            if (ts.count == 0)
                return;
            auto size = static_cast<std::uint32_t>(ts.ring.size());
            std::uint32_t youngest = ts.head + ts.count - 1;
            visitsLeft = youngest < size
                             ? (youngest >> 6) - headWord
                             : words - headWord + ((youngest - size) >> 6);
            bits = mask[word] & (~std::uint64_t(0) << headBit);
            if (!bits)
                refill();
        }

        bool done() const { return bits == 0; }

        std::uint32_t
        slot() const
        {
            return word * 64 +
                   static_cast<std::uint32_t>(__builtin_ctzll(bits));
        }

        void
        next()
        {
            bits &= bits - 1;
            if (!bits)
                refill();
        }

      private:
        void
        refill()
        {
            while (!bits && visitsLeft > 0) {
                --visitsLeft;
                word = word + 1 == words ? 0 : word + 1;
                bits = mask[word];
                if (word == headWord)
                    bits &= (std::uint64_t(1) << headBit) - 1;
            }
        }

        const std::uint64_t *mask;
        std::uint32_t words;
        std::uint32_t word;
        std::uint32_t headWord;
        std::uint32_t headBit;
        std::uint32_t visitsLeft = 0;
        std::uint64_t bits = 0; ///< unvisited ready bits of the current word
    };

    CoreParams params;
    MemoryHierarchy &mem;
    BranchUnit &bp;

    PartitionedResource robRes;
    PartitionedResource lsqRes;

    std::array<ThreadState, numSmtThreads> threads;
    std::array<ThreadStats, numSmtThreads> tstats;

    Cycle curCycle = 0;
    Cycle statsStartCycle = 0;
    std::uint64_t seqCounter = 1; ///< global age order across threads
    ThreadId commitRr = 0;
    ThreadId fetchRr = 0;

    // Completion-event ring, indexed by cycle modulo its size.
    static constexpr std::size_t evRingSize = 1024;
    std::array<std::vector<Event>, evRingSize> evRing;
};

} // namespace stretch

#endif // STRETCH_CORE_SMT_CORE_H
