/**
 * @file
 * Golden equivalence tests: the bank-sharded incremental scheduler must
 * make exactly the same decision as the naive reference scheduler every
 * cycle, for every policy configuration.
 *
 * Complete controller stacks (separate Channel, AccuracyTracker and
 * handler) receive an identical pre-generated randomized stimulus --
 * enqueues of demands/prefetches/writebacks over a small line pool,
 * promotions, accuracy-moving prefetch-used events and interval ticks.
 * The base pool keeps every line in row 0 of its bank; the shaped
 * combinations add row conflicts, refresh, a deep buffer and a deep
 * write queue (see EquivalenceLoad). One stack runs
 * reference_scheduler=true, one the optimized path ticked every cycle,
 * and one the optimized path that jumps over cycles with
 * nextEventCycle()/skipTo(), as the event-driven system loop does. The
 * test then compares the complete DRAM command streams (IssueRecord
 * logs), the completion/drop event sequences, and every statistic of
 * both optimized stacks against the reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "dram/address_map.hh"
#include "dram/channel.hh"
#include "memctrl/controller.hh"

namespace padc::memctrl
{
namespace
{

/** Records completions and drops in arrival order, comparably. */
class LoggingHandler : public ResponseHandler
{
  public:
    struct Event
    {
        Addr line;
        bool drop;
        bool was_prefetch;
        bool still_prefetch;
        Cycle at;

        bool operator==(const Event &other) const = default;
    };

    void
    dramReadComplete(const Request &req, Cycle now) override
    {
        events.push_back({req.line_addr, false, req.was_prefetch,
                          req.isPrefetch(), now});
    }

    void
    dramPrefetchDropped(const Request &req, Cycle now) override
    {
        events.push_back({req.line_addr, true, req.was_prefetch,
                          req.isPrefetch(), now});
    }

    std::vector<Event> events;
};

/** One controller plus everything it owns, for lockstep driving. */
struct Stack
{
    Stack(const SchedulerConfig &config, std::uint32_t num_cores,
          const dram::TimingParams &timing_params = {})
        : timing(timing_params), channel(timing, 8), map(geometry),
          tracker(num_cores, config.accuracy),
          ctrl(config, channel, tracker, handler, num_cores)
    {
        ctrl.setIssueLog(&issues);
    }

    dram::TimingParams timing;
    dram::Geometry geometry;
    dram::Channel channel;
    dram::AddressMap map;
    AccuracyTracker tracker;
    LoggingHandler handler;
    MemoryController ctrl;
    std::vector<MemoryController::IssueRecord> issues;
};

void
expectStatsEqual(const ControllerStats &a, const ControllerStats &b)
{
    EXPECT_EQ(a.demand_reads, b.demand_reads);
    EXPECT_EQ(a.prefetch_reads, b.prefetch_reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.read_row_hits, b.read_row_hits);
    EXPECT_EQ(a.read_row_closed, b.read_row_closed);
    EXPECT_EQ(a.read_row_conflicts, b.read_row_conflicts);
    EXPECT_EQ(a.demand_row_hits, b.demand_row_hits);
    EXPECT_EQ(a.prefetches_dropped, b.prefetches_dropped);
    EXPECT_EQ(a.prefetches_rejected_full, b.prefetches_rejected_full);
    EXPECT_EQ(a.demands_rejected_full, b.demands_rejected_full);
    EXPECT_EQ(a.promotions, b.promotions);
    EXPECT_EQ(a.forwarded_reads, b.forwarded_reads);
    EXPECT_EQ(a.duplicate_reads, b.duplicate_reads);
    EXPECT_EQ(a.read_queue_occupancy_sum, b.read_queue_occupancy_sum);
    EXPECT_EQ(a.dram_cycles, b.dram_cycles);
    EXPECT_EQ(a.read_service_cycles_sum, b.read_service_cycles_sum);
    for (std::size_t c = 0; c < kRequestClassCount; ++c)
        EXPECT_EQ(a.serviced_by_class[c], b.serviced_by_class[c])
            << "serviced count differs for class "
            << toString(static_cast<RequestClass>(c));
}

/** One pre-generated stimulus operation, applied at its cycle. */
struct Stimulus
{
    enum class Kind : std::uint8_t { Read, Write, Promote, PrefetchUsed };

    Cycle cycle;
    Kind kind;
    Addr addr;
    CoreId core;
    RequestClass cls;
};

/** Apply @p op to @p stack; returns the accept/promote outcome. */
bool
apply(Stack &stack, const Stimulus &op)
{
    switch (op.kind) {
      case Stimulus::Kind::Read:
        return stack.ctrl.enqueueRead(stack.map.map(op.addr),
                                      lineAlign(op.addr), op.core, 0x400,
                                      op.cls, op.cycle);
      case Stimulus::Kind::Write:
        stack.ctrl.enqueueWrite(stack.map.map(op.addr), lineAlign(op.addr),
                                op.core, op.cycle);
        return true;
      case Stimulus::Kind::Promote:
        return stack.ctrl.promote(lineAlign(op.addr), op.cycle);
      case Stimulus::Kind::PrefetchUsed:
        // Moves the accuracy estimate (flips criticality/urgency).
        stack.tracker.onPrefetchUsed(op.core);
        return true;
    }
    return false;
}

/**
 * Drive @p stack through @p ops until @p end, jumping over cycles with
 * the controller's nextEventCycle()/skipTo() the way the event-driven
 * system loop does. Each jump is also bounded by the next stimulus
 * cycle and the tracker's interval boundary. @return cycles skipped.
 */
Cycle
driveWithJumps(Stack &stack, const std::vector<Stimulus> &ops, Cycle end)
{
    Cycle skipped = 0;
    std::size_t next_op = 0;
    for (Cycle now = 0; now < end;) {
        for (; next_op < ops.size() && ops[next_op].cycle == now; ++next_op)
            apply(stack, ops[next_op]);
        stack.tracker.tick(now);
        stack.ctrl.tick(now);
        ++now;
        Cycle next = std::min(end, stack.tracker.nextBoundary());
        if (next_op < ops.size())
            next = std::min(next, ops[next_op].cycle);
        if (next <= now)
            continue;
        next = std::min(next, stack.ctrl.nextEventCycle(now));
        if (next <= now)
            continue;
        stack.ctrl.skipTo(now, next);
        skipped += next - now;
        now = next;
    }
    return skipped;
}

/** Require @p other to show exactly the reference's behaviour. */
void
expectSameBehaviour(const Stack &ref, const Stack &other)
{
    EXPECT_GT(ref.issues.size(), 0u) << "stimulus issued no commands";
    ASSERT_EQ(ref.issues.size(), other.issues.size());
    for (std::size_t i = 0; i < ref.issues.size(); ++i) {
        EXPECT_TRUE(ref.issues[i] == other.issues[i])
            << "command " << i << " differs: cycle " << ref.issues[i].cycle
            << " vs " << other.issues[i].cycle << ", bank "
            << ref.issues[i].bank << " vs " << other.issues[i].bank
            << ", seq " << ref.issues[i].seq << " vs "
            << other.issues[i].seq;
        if (!(ref.issues[i] == other.issues[i]))
            break; // one divergence floods everything after it
    }
    ASSERT_EQ(ref.handler.events.size(), other.handler.events.size());
    for (std::size_t i = 0; i < ref.handler.events.size(); ++i)
        EXPECT_TRUE(ref.handler.events[i] == other.handler.events[i])
            << "completion/drop event " << i << " differs";
    expectStatsEqual(ref.ctrl.stats(), other.ctrl.stats());
    EXPECT_EQ(ref.channel.stats().refreshes, other.channel.stats().refreshes);
}

/** Stimulus and geometry knobs beyond the scheduler policy. */
struct EquivalenceLoad
{
    /** Small by default: exercises rejected-full. 128 (the default
        buffer) with a wider line pool keeps about 9+ reads per bank
        queued, as saturated 4-core runs do. */
    std::uint32_t buffer = 24;

    /** Distinct lines the stimulus touches. A small pool makes
        duplicate enqueues, promotions and write-queue hits common. */
    std::uint64_t lines = 192;

    /** Lines per DRAM row the pool fills (spread over the 8 banks)
        before moving on to the next row. By default the whole pool
        shares row 0, so reads only ever hit or find the bank closed;
        48 (6 columns per bank) gives each bank several rows, so row
        conflicts and precharges are common too. */
    std::uint64_t lines_per_row = 192;

    /** Periodic refresh with a short interval, so refresh closes banks
        under the scheduler many times per run. */
    bool refresh = false;

    /** Writeback arrivals per cycle. */
    double write_rate = 0.05;

    /** Write-drain watermarks. Low ones with many rows per bank keep
        the write queue deep and draining from early on: cached
        per-bank write summaries then absorb many arrivals between
        retires, and open-row flips from interleaved reads invalidate
        them. */
    std::uint32_t drain_high = 10;
    std::uint32_t drain_low = 3;
};

/**
 * Drive reference, optimized and jumping optimized stacks through an
 * identical randomized stimulus and require identical observable
 * behaviour.
 */
void
runEquivalence(SchedulerConfig config, std::uint64_t seed,
               const EquivalenceLoad &load = {})
{
    constexpr std::uint32_t kCores = 4;
    constexpr Cycle kDriveCycles = 12000;
    constexpr Cycle kDrainCycles = 8000;
    constexpr Cycle kEnd = kDriveCycles + kDrainCycles;

    config.request_buffer_size = load.buffer;
    config.write_buffer_size = 16;
    config.write_drain_high = load.drain_high;
    config.write_drain_low = load.drain_low;
    config.accuracy.interval = 1500; // several interval boundaries
    config.accuracy.min_samples = 4;

    dram::TimingParams timing;
    if (load.refresh) {
        timing.refresh_enabled = true;
        timing.tREFI = 300; // about 11 refreshes per run
    }

    SchedulerConfig ref_config = config;
    ref_config.reference_scheduler = true;
    SchedulerConfig opt_config = config;
    opt_config.reference_scheduler = false;

    Stack ref(ref_config, kCores, timing);
    Stack opt(opt_config, kCores, timing);
    Stack jump(opt_config, kCores, timing);

    Rng rng(seed);
    // Consecutive lines interleave across banks, then columns, then rows.
    const std::uint64_t row_stride = 8 * dram::Geometry{}.linesPerRow();
    auto randomLine = [&] {
        const std::uint64_t n = rng.nextBelow(load.lines);
        return lineToAddr(n / load.lines_per_row * row_stride +
                          n % load.lines_per_row);
    };
    auto randomCore = [&] {
        return static_cast<CoreId>(rng.nextBelow(kCores));
    };
    std::vector<Stimulus> ops;
    for (Cycle now = 0; now < kDriveCycles; ++now) {
        if (rng.chance(0.30)) {
            const Addr addr = randomLine();
            const CoreId core = randomCore();
            const RequestClass cls = rng.chance(0.5)
                                         ? RequestClass::Prefetch
                                         : RequestClass::DemandRead;
            ops.push_back({now, Stimulus::Kind::Read, addr, core, cls});
        }
        if (rng.chance(load.write_rate)) {
            const Addr addr = randomLine();
            ops.push_back({now, Stimulus::Kind::Write, addr, randomCore(),
                           RequestClass::Writeback});
        }
        if (rng.chance(0.04)) {
            ops.push_back({now, Stimulus::Kind::Promote, randomLine(), 0,
                           RequestClass::DemandRead});
        }
        if (rng.chance(0.10)) {
            ops.push_back({now, Stimulus::Kind::PrefetchUsed, 0,
                           randomCore(), RequestClass::Prefetch});
        }
    }

    std::uint64_t drive_depth_sum = 0;
    std::size_t peak_writes = 0;
    std::size_t next_op = 0;
    for (Cycle now = 0; now < kEnd; ++now) {
        for (; next_op < ops.size() && ops[next_op].cycle == now;
             ++next_op) {
            const bool a = apply(ref, ops[next_op]);
            const bool b = apply(opt, ops[next_op]);
            ASSERT_EQ(a, b) << "stimulus disagreement at cycle " << now;
        }
        ref.tracker.tick(now);
        opt.tracker.tick(now);
        ref.ctrl.tick(now);
        opt.ctrl.tick(now);
        ASSERT_EQ(ref.issues.size(), opt.issues.size())
            << "issue-count divergence at cycle " << now;
        if (now < kDriveCycles)
            drive_depth_sum += ref.ctrl.readQueueSize();
        peak_writes = std::max(peak_writes, ref.ctrl.writeQueueSize());
    }
    const Cycle skipped = driveWithJumps(jump, ops, kEnd);

    {
        SCOPED_TRACE("optimized scheduler, every cycle ticked");
        expectSameBehaviour(ref, opt);
    }
    {
        SCOPED_TRACE("optimized scheduler, event jumps");
        EXPECT_GT(skipped, 0u) << "the jump stack never jumped";
        expectSameBehaviour(ref, jump);
    }
    if (load.refresh) {
        EXPECT_GT(ref.channel.stats().refreshes, 5u);
    }
    if (load.drain_high < 10) {
        // The low-watermark shape keeps several writes per bank queued.
        EXPECT_GE(peak_writes, 32u) << "the write queue stays shallow";
        EXPECT_GT(ref.ctrl.stats().writes, 100u);
    }
    if (load.buffer > 64) {
        // About 9+ queued reads per bank while the stimulus runs.
        EXPECT_GE(drive_depth_sum, 9 * 8 * kDriveCycles)
            << "the deep buffer barely fills";
    }
}

/**
 * One scheduler configuration. Its bytes are part of the registered
 * test names (gtest prints a parameter without a printer as a byte
 * dump), so it stays five one-byte members with no padding.
 */
struct Combo
{
    SchedPolicyKind kind;
    bool urgency;
    bool ranking;
    bool apd;
    RowPolicy row;
};

std::string
comboName(const Combo &combo)
{
    std::string name;
    switch (combo.kind) {
      case SchedPolicyKind::FrFcfs: name = "FrFcfs"; break;
      case SchedPolicyKind::DemandFirst: name = "DemandFirst"; break;
      case SchedPolicyKind::PrefetchFirst: name = "PrefetchFirst"; break;
      case SchedPolicyKind::Aps: name = "Aps"; break;
    }
    name += combo.urgency ? "_urg" : "_nourg";
    name += combo.ranking ? "_rank" : "_norank";
    name += combo.apd ? "_apd" : "_noapd";
    name += combo.row == RowPolicy::Closed ? "_closed" : "_open";
    return name;
}

/** Run @p combo's configuration under @p load. */
void
runCombo(const Combo &combo, const EquivalenceLoad &load = {})
{
    SchedulerConfig config;
    config.kind = combo.kind;
    config.urgency_enabled = combo.urgency;
    config.ranking_enabled = combo.ranking;
    config.apd_enabled = combo.apd;
    config.row_policy = combo.row;
    // Mid-scale threshold so the randomized used-events actually flip
    // cores between accurate and inaccurate during the run.
    config.promotion_threshold = 0.60;

    runEquivalence(config, 0xC0FFEE ^ static_cast<std::uint64_t>(
                                          combo.kind == SchedPolicyKind::Aps
                                              ? 17
                                              : 3),
                   load);
}

class SchedEquivalence : public ::testing::TestWithParam<Combo>
{
};

TEST_P(SchedEquivalence, DecisionIdentical)
{
    runCombo(GetParam());
}

std::vector<Combo>
allCombos()
{
    std::vector<Combo> combos;
    for (const auto kind :
         {SchedPolicyKind::FrFcfs, SchedPolicyKind::DemandFirst,
          SchedPolicyKind::PrefetchFirst, SchedPolicyKind::Aps}) {
        for (const bool urgency : {false, true}) {
            for (const bool ranking : {false, true}) {
                for (const bool apd : {false, true}) {
                    for (const auto row :
                         {RowPolicy::Open, RowPolicy::Closed}) {
                        combos.push_back({kind, urgency, ranking, apd, row});
                    }
                }
            }
        }
    }
    return combos;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SchedEquivalence,
                         ::testing::ValuesIn(allCombos()),
                         [](const ::testing::TestParamInfo<Combo> &info) {
                             return comboName(info.param);
                         });

/**
 * Stimulus shapes beyond the base one (every line in row 0). Row
 * conflicts change a bank's open row under its queued reads; refresh
 * closes every bank behind the scheduler's back; the deep buffer keeps
 * many reads per bank, so cached per-bank summaries see many arrivals
 * and removals between rescans; the deep write queue does the same for
 * the per-bank write summaries, and the reference walks every write.
 */
enum class Shape : std::uint8_t
{
    Conflicts,
    Refresh,
    RefreshConflicts,
    Deep,
    DeepWrites
};

EquivalenceLoad
loadOf(Shape shape)
{
    switch (shape) {
      case Shape::Conflicts: return {24, 192, 48, false};
      case Shape::Refresh: return {24, 192, 192, true};
      case Shape::RefreshConflicts: return {24, 192, 48, true};
      case Shape::Deep: return {128, 384, 48, false};
      case Shape::DeepWrites: return {24, 384, 48, false, 0.05, 8, 2};
    }
    return {};
}

struct ShapedCombo
{
    Combo combo;
    Shape shape;
};

std::string
shapedComboName(const ShapedCombo &shaped)
{
    std::string name = comboName(shaped.combo);
    switch (shaped.shape) {
      case Shape::Conflicts: return name + "_conflicts";
      case Shape::Refresh: return name + "_refresh";
      case Shape::RefreshConflicts: return name + "_refresh_conflicts";
      case Shape::Deep: return name + "_deep";
      case Shape::DeepWrites: return name + "_deep_writes";
    }
    return name;
}

/** Names the parameter in test listings instead of a byte dump. */
void
PrintTo(const ShapedCombo &shaped, std::ostream *os)
{
    *os << shapedComboName(shaped);
}

class SchedEquivalenceShaped : public ::testing::TestWithParam<ShapedCombo>
{
};

TEST_P(SchedEquivalenceShaped, DecisionIdentical)
{
    runCombo(GetParam().combo, loadOf(GetParam().shape));
}

std::vector<ShapedCombo>
shapedCombos()
{
    std::vector<ShapedCombo> combos;
    for (const Shape shape : {Shape::Conflicts, Shape::Refresh,
                              Shape::RefreshConflicts, Shape::Deep,
                              Shape::DeepWrites}) {
        for (const auto kind :
             {SchedPolicyKind::FrFcfs, SchedPolicyKind::DemandFirst,
              SchedPolicyKind::PrefetchFirst, SchedPolicyKind::Aps}) {
            for (const auto row : {RowPolicy::Open, RowPolicy::Closed}) {
                for (const bool ranking : {false, true})
                    combos.push_back({{kind, true, ranking, true, row}, shape});
            }
        }
    }
    return combos;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SchedEquivalenceShaped, ::testing::ValuesIn(shapedCombos()),
    [](const ::testing::TestParamInfo<ShapedCombo> &info) {
        return shapedComboName(info.param);
    });

/**
 * Directed case for the cached per-bank summary: a demand arriving at a
 * bank that holds only (deprioritized) prefetches blocks them. The
 * prefetches hit the open row, so their column command becomes legal
 * (tRCD) before the demand's precharge does (tRAS); a summary that kept
 * them as candidates would issue a blocked prefetch first.
 */
TEST(SchedEquivalenceDirected, PreferredArrivalBlocksQueuedRowHits)
{
    SchedulerConfig config;
    config.kind = SchedPolicyKind::DemandFirst;
    config.apd_enabled = false;
    SchedulerConfig ref_config = config;
    ref_config.reference_scheduler = true;
    Stack ref(ref_config, 1);
    Stack opt(config, 1);

    // Bank 0: lines 0 and 8 share row 0, line 8 * linesPerRow is row 1.
    const Addr row1 = 8 * dram::Geometry{}.linesPerRow();
    const std::vector<Stimulus> ops = {
        {0, Stimulus::Kind::Read, lineToAddr(0), 0, RequestClass::Prefetch},
        {0, Stimulus::Kind::Read, lineToAddr(8), 0, RequestClass::Prefetch},
        // After the ACT and the round that rescans the bank at cycle 6.
        {7, Stimulus::Kind::Read, lineToAddr(row1), 0,
         RequestClass::DemandRead},
    };
    std::size_t next_op = 0;
    for (Cycle now = 0; now < 2000; ++now) {
        for (; next_op < ops.size() && ops[next_op].cycle == now; ++next_op) {
            apply(ref, ops[next_op]);
            apply(opt, ops[next_op]);
        }
        ref.ctrl.tick(now);
        opt.ctrl.tick(now);
    }
    // The case is what it claims: the reference's command after the ACT
    // serves the demand (seq 2), not a prefetch.
    ASSERT_GE(ref.issues.size(), 2u);
    EXPECT_EQ(ref.issues[1].seq, 2u);
    expectSameBehaviour(ref, opt);
}

/** Duplicate enqueues are coalesced, not asserted on (satellite fix). */
TEST(DuplicateEnqueue, CoalescesInsteadOfCorrupting)
{
    SchedulerConfig config;
    config.kind = SchedPolicyKind::Aps;
    Stack stack(config, 2);

    const Addr addr = lineToAddr(5);
    EXPECT_TRUE(stack.ctrl.enqueueRead(stack.map.map(addr),
                                       lineAlign(addr), 0, 0x400,
                                       RequestClass::Prefetch, 0));
    EXPECT_EQ(stack.ctrl.readQueueSize(), 1u);
    EXPECT_EQ(stack.ctrl.stats().duplicate_reads, 0u);

    // A duplicate prefetch is absorbed.
    EXPECT_TRUE(stack.ctrl.enqueueRead(stack.map.map(addr),
                                       lineAlign(addr), 0, 0x400,
                                       RequestClass::Prefetch, 1));
    EXPECT_EQ(stack.ctrl.readQueueSize(), 1u);
    EXPECT_EQ(stack.ctrl.stats().duplicate_reads, 1u);

    // A duplicate demand promotes the outstanding prefetch.
    EXPECT_TRUE(stack.ctrl.enqueueRead(stack.map.map(addr),
                                       lineAlign(addr), 0, 0x400,
                                       RequestClass::DemandRead, 2));
    EXPECT_EQ(stack.ctrl.readQueueSize(), 1u);
    EXPECT_EQ(stack.ctrl.stats().duplicate_reads, 2u);
    EXPECT_EQ(stack.ctrl.stats().promotions, 1u);
}

} // namespace
} // namespace padc::memctrl
