/**
 * @file
 * Tests for the sweep checkpoint/resume journal: key coverage,
 * bit-identical replay, kill-safety (partial trailing lines, corrupt
 * lines), and the killed-then-resumed sweep acceptance criterion.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/parallel.hh"

namespace padc::sim
{
namespace
{

class JournalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "padc_journal_test." +
                std::to_string(::getpid()) + ".padcjournal";
        std::remove(path_.c_str());
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

SystemConfig
base2()
{
    return SystemConfig::baseline(2);
}

RunOptions
quickOptions()
{
    RunOptions options;
    options.instructions = 2000;
    options.warmup = 0;
    return options;
}

std::vector<SweepPoint>
twoPolicyPoints()
{
    const workload::Mix mix = {"libquantum_06", "milc_06"};
    std::vector<SweepPoint> points;
    for (const auto setup :
         {PolicySetup::DemandFirst, PolicySetup::Padc}) {
        points.push_back(
            {applyPolicy(base2(), setup), mix, quickOptions()});
    }
    return points;
}

void
expectBitIdentical(const Result<MixEvaluation> &a,
                   const Result<MixEvaluation> &b)
{
    EXPECT_EQ(a.outcome.status, b.outcome.status);
    EXPECT_EQ(a.outcome.detail, b.outcome.detail);
    EXPECT_EQ(a.value.summary.ws, b.value.summary.ws);
    EXPECT_EQ(a.value.summary.hs, b.value.summary.hs);
    EXPECT_EQ(a.value.summary.uf, b.value.summary.uf);
    EXPECT_EQ(a.value.summary.speedups, b.value.summary.speedups);
    ASSERT_EQ(a.value.metrics.cores.size(), b.value.metrics.cores.size());
    for (std::size_t c = 0; c < a.value.metrics.cores.size(); ++c) {
        const CoreMetrics &x = a.value.metrics.cores[c];
        const CoreMetrics &y = b.value.metrics.cores[c];
        EXPECT_EQ(x.ipc, y.ipc);
        EXPECT_EQ(x.mpki, y.mpki);
        EXPECT_EQ(x.spl, y.spl);
        EXPECT_EQ(x.acc, y.acc);
        EXPECT_EQ(x.cov, y.cov);
        EXPECT_EQ(x.rbh, y.rbh);
        EXPECT_EQ(x.rbhu, y.rbhu);
        EXPECT_EQ(x.traffic_demand, y.traffic_demand);
        EXPECT_EQ(x.traffic_pref_useful, y.traffic_pref_useful);
        EXPECT_EQ(x.traffic_pref_useless, y.traffic_pref_useless);
        EXPECT_EQ(x.traffic_writeback, y.traffic_writeback);
        EXPECT_EQ(x.instructions, y.instructions);
        EXPECT_EQ(x.cycles, y.cycles);
    }
}

TEST(SweepPointKey, DistinguishesConfigMixSeedAndOptions)
{
    const workload::Mix mix = {"libquantum_06", "milc_06"};
    const SweepPoint point{applyPolicy(base2(), PolicySetup::DemandFirst),
                           mix, quickOptions()};
    const std::uint64_t key = sweepPointKey(point);

    SweepPoint other = point;
    other.config = applyPolicy(base2(), PolicySetup::Padc);
    EXPECT_NE(sweepPointKey(other), key) << "policy not keyed";

    other = point;
    other.mix = {"milc_06", "libquantum_06"};
    EXPECT_NE(sweepPointKey(other), key) << "mix order not keyed";

    other = point;
    other.options.mix_seed = 1;
    EXPECT_NE(sweepPointKey(other), key) << "seed not keyed";

    other = point;
    other.options.instructions += 1;
    EXPECT_NE(sweepPointKey(other), key) << "instructions not keyed";

    other = point;
    other.config.dram.timing.tRCD += 1;
    EXPECT_NE(sweepPointKey(other), key) << "DRAM timing not keyed";

    // Identical points key identically (stability across calls).
    EXPECT_EQ(sweepPointKey(point), key);
}

TEST(SweepPointKey, GoldenKeysOfEveryBaselineAndPolicy)
{
    // Keys of applyPolicy(baseline(n), setup) with an empty mix and
    // default options. Journals and BENCH files persist these values,
    // so any change here breaks --resume and every recorded digest.
    constexpr std::uint32_t kCores[] = {1, 2, 4, 8};
    constexpr int kSetups = static_cast<int>(PolicySetup::ApdOnly) + 1;
    constexpr std::uint64_t kGolden[4][kSetups] = {
        {0x3d53a8fd56375094, 0xa06bfe17e4d589c8, 0x1d0fd33d056a5f2d,
         0x9d53e15e89805be3, 0xd38441936797d03e, 0x1c728b19090dad83,
         0x721cf417b10a4c3e, 0x71b51dab5406c8a3, 0x2274f1b250d12b1e,
         0x27acfdfcfd03574d},
        {0xc6f4aa405f88f49b, 0x095a6192e2fd534f, 0x4a5dc1aa2349fa8a,
         0xb23faa2fb613bde4, 0x020124a97fca71f9, 0x8cf826c524329944,
         0x636872253657f5f9, 0x510bcdd9412d3224, 0x0401a0b29c3f3b19,
         0xbbb89c1b1ab8d96a},
        {0xdf74a9d73eee1619, 0x7d443cbf68d33625, 0x514f77982d5c0520,
         0xeeb727ebd201c216, 0x98a119eeb2ffa3bb, 0x88011f266d1e3cf6,
         0xfa08676a698d27bb, 0x7b1ba773294b44d6, 0x550dd532c81d405b,
         0x69e1e47d589a7d80},
        {0xb19a4bf31097cf02, 0xd82097fae8a1c3de, 0x6690a734e26892d7,
         0x112a8f9f9cd32445, 0xd579811bb559173c, 0x56934177bbec7da5,
         0x36e0ce976be69b3c, 0x040aad4bcb167505, 0xf347655bfe5f4fdc,
         0x9c81da6559297f37},
    };
    for (std::size_t i = 0; i < 4; ++i) {
        for (int s = 0; s < kSetups; ++s) {
            const auto setup = static_cast<PolicySetup>(s);
            const SweepPoint point{
                applyPolicy(SystemConfig::baseline(kCores[i]), setup), {},
                {}};
            EXPECT_EQ(sweepPointKey(point), kGolden[i][s])
                << kCores[i] << " cores, " << policyLabel(setup);
        }
    }
}

TEST_F(JournalTest, RecordedEvalPointsReplayBitIdentical)
{
    const auto points = twoPolicyPoints();
    ParallelExperimentRunner runner(4);

    std::vector<Result<MixEvaluation>> first;
    {
        SweepJournal journal(path_);
        EXPECT_EQ(journal.loadedEntries(), 0u);
        AloneIpcCache alone(base2(), quickOptions());
        first = evaluateSweep(points, alone, runner, &journal);
        EXPECT_EQ(journal.hits(), 0u);
    }

    // A fresh process over the same journal replays without recomputing:
    // the alone cache is never consulted, yet results are bit-identical.
    SweepJournal reopened(path_);
    EXPECT_EQ(reopened.loadedEntries(), points.size());
    AloneIpcCache cold_alone(base2(), quickOptions());
    const auto replayed =
        evaluateSweep(points, cold_alone, runner, &reopened);
    EXPECT_EQ(reopened.hits(), points.size());

    ASSERT_EQ(replayed.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectBitIdentical(first[i], replayed[i]);
}

TEST_F(JournalTest, RunSweepEntriesRoundTrip)
{
    const workload::Mix mix = {"libquantum_06", "milc_06"};
    const std::vector<SweepPoint> points = {
        {applyPolicy(base2(), PolicySetup::DemandFirst), mix,
         quickOptions()}};
    ParallelExperimentRunner runner(2);

    std::vector<Result<RunMetrics>> first;
    {
        SweepJournal journal(path_);
        first = runSweep(points, runner, &journal);
    }
    SweepJournal reopened(path_);
    EXPECT_EQ(reopened.loadedEntries(), 1u);
    const auto replayed = runSweep(points, runner, &reopened);
    EXPECT_EQ(reopened.hits(), 1u);

    ASSERT_EQ(replayed.size(), 1u);
    EXPECT_EQ(replayed[0].outcome.status, first[0].outcome.status);
    ASSERT_EQ(replayed[0].value.cores.size(), first[0].value.cores.size());
    for (std::size_t c = 0; c < first[0].value.cores.size(); ++c) {
        EXPECT_EQ(replayed[0].value.cores[c].ipc,
                  first[0].value.cores[c].ipc);
        EXPECT_EQ(replayed[0].value.cores[c].cycles,
                  first[0].value.cores[c].cycles);
    }
}

TEST_F(JournalTest, EvalAndRunEntriesDoNotCollide)
{
    // The same key recorded under both kinds must stay two entries.
    Result<RunMetrics> run_result;
    run_result.value.cores.resize(1);
    run_result.value.cores[0].ipc = 1.5;
    Result<MixEvaluation> eval_result;
    eval_result.value.summary.ws = 2.5;

    {
        SweepJournal journal(path_);
        journal.record(42, run_result);
        journal.record(42, eval_result);
    }
    SweepJournal reopened(path_);
    EXPECT_EQ(reopened.loadedEntries(), 2u);
    Result<RunMetrics> r;
    Result<MixEvaluation> e;
    EXPECT_TRUE(reopened.lookup(42, &r));
    EXPECT_TRUE(reopened.lookup(42, &e));
    EXPECT_EQ(r.value.cores.at(0).ipc, 1.5);
    EXPECT_EQ(e.value.summary.ws, 2.5);
    EXPECT_TRUE(reopened.containsEval(42));
    EXPECT_FALSE(reopened.containsEval(43));
}

TEST_F(JournalTest, FailedOutcomeRoundTripsWithDetail)
{
    Result<MixEvaluation> failed;
    failed.outcome.status = PointStatus::Failed;
    failed.outcome.detail = "invalid SystemConfig: mshr_per_l2: ...";
    {
        SweepJournal journal(path_);
        journal.record(7, failed);
    }
    SweepJournal reopened(path_);
    Result<MixEvaluation> loaded;
    ASSERT_TRUE(reopened.lookup(7, &loaded));
    EXPECT_EQ(loaded.outcome.status, PointStatus::Failed);
    EXPECT_EQ(loaded.outcome.detail, failed.outcome.detail);
}

TEST_F(JournalTest, PartialTrailingLineIsDropped)
{
    Result<MixEvaluation> result;
    result.value.summary.ws = 1.25;
    {
        SweepJournal journal(path_);
        journal.record(1, result);
    }
    // Simulate a process killed mid-append: a final line with no '\n'.
    {
        std::ofstream out(path_, std::ios::binary | std::ios::app);
        out << "padcj1 e deadbeef 0 - 1 3ff4";
    }
    SweepJournal reopened(path_);
    EXPECT_EQ(reopened.loadedEntries(), 1u);
    Result<MixEvaluation> loaded;
    EXPECT_TRUE(reopened.lookup(1, &loaded));
    EXPECT_EQ(loaded.value.summary.ws, 1.25);
    Result<MixEvaluation> missing;
    EXPECT_FALSE(reopened.lookup(0xdeadbeef, &missing));
}

TEST_F(JournalTest, AppendAfterTornTailDoesNotMergeLines)
{
    Result<MixEvaluation> first;
    first.value.summary.ws = 1.25;
    {
        SweepJournal journal(path_);
        journal.record(1, first);
    }
    // A supervisor killed mid-append leaves a torn final line. A later
    // resume must not glue its first fresh record onto that tail: the
    // journal terminates the tail at open so both stay separate lines.
    {
        std::ofstream out(path_, std::ios::binary | std::ios::app);
        out << "padcj1 e deadbeef 0 - 1 3ff4";
    }
    Result<MixEvaluation> second;
    second.value.summary.hs = 0.75;
    {
        SweepJournal resumed(path_);
        EXPECT_EQ(resumed.loadedEntries(), 1u);
        resumed.record(2, second);
    }
    SweepJournal reopened(path_);
    EXPECT_EQ(reopened.loadedEntries(), 2u);
    Result<MixEvaluation> loaded;
    ASSERT_TRUE(reopened.lookup(1, &loaded));
    EXPECT_EQ(loaded.value.summary.ws, 1.25);
    ASSERT_TRUE(reopened.lookup(2, &loaded));
    EXPECT_EQ(loaded.value.summary.hs, 0.75);
    EXPECT_FALSE(reopened.lookup(0xdeadbeef, &loaded));
}

TEST_F(JournalTest, CorruptCompleteLinesAreSkippedNotFatal)
{
    {
        std::ofstream out(path_, std::ios::binary);
        out << "padcj1 e 10 0 - 1 zz zz\n"; // bad payload tokens
        out << "garbage line entirely\n";
        out << "padcj1 q 11 0 -\n"; // unknown kind
    }
    SweepJournal journal(path_);
    EXPECT_EQ(journal.loadedEntries(), 0u);
    Result<MixEvaluation> out;
    EXPECT_FALSE(journal.lookup(0x10, &out));
    // The journal is still usable for appends after skipping junk.
    Result<MixEvaluation> fresh;
    fresh.value.summary.hs = 0.5;
    journal.record(0x20, fresh);
    EXPECT_TRUE(journal.lookup(0x20, &fresh));
}

TEST_F(JournalTest, KilledThenResumedSweepIsBitIdenticalToStraightRun)
{
    // Four points: two policies x two seeds.
    const workload::Mix mix = {"libquantum_06", "milc_06"};
    std::vector<SweepPoint> points;
    for (const auto setup :
         {PolicySetup::DemandFirst, PolicySetup::Padc}) {
        for (std::uint64_t seed : {0u, 1u}) {
            RunOptions options = quickOptions();
            options.mix_seed = seed;
            points.push_back({applyPolicy(base2(), setup), mix, options});
        }
    }
    ParallelExperimentRunner runner(4);

    // Reference: one uninterrupted, journal-free run.
    AloneIpcCache ref_alone(base2(), quickOptions());
    const auto reference = evaluateSweep(points, ref_alone, runner);

    // "First process": completes only the first half, then dies (the
    // journal object goes away; the file stays).
    {
        SweepJournal journal(path_);
        AloneIpcCache alone(base2(), quickOptions());
        const std::vector<SweepPoint> half(points.begin(),
                                           points.begin() + 2);
        evaluateSweep(half, alone, runner, &journal);
    }

    // "Second process": resumes the full sweep from the journal.
    SweepJournal resumed(path_);
    EXPECT_EQ(resumed.loadedEntries(), 2u);
    AloneIpcCache alone(base2(), quickOptions());
    const auto results = evaluateSweep(points, alone, runner, &resumed);
    EXPECT_EQ(resumed.hits(), 2u); // first half replayed, not rerun

    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectBitIdentical(reference[i], results[i]);
    }
}

TEST(JournalErrors, UnopenablePathThrows)
{
    EXPECT_THROW(SweepJournal("/nonexistent-dir/padc.journal"),
                 std::runtime_error);
}

} // namespace
} // namespace padc::sim
