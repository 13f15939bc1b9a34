/**
 * @file
 * The saturated memory path allocates nothing in steady state.
 *
 * This binary replaces the global operator new with a counting one, so
 * it is built as its own executable. It runs a 4-core PADC system on
 * the prefetch-unfriendly case-study mix (deep read buffers, APD drops,
 * writebacks) past warm-up, then counts heap allocations over a further
 * window of simulated cycles. Every request, MSHR entry, index entry,
 * write-queue entry and reorder-buffer entry reuses storage sized during
 * warm-up, so the window may allocate less than once per 1,000 reads
 * the controller services.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
#include "workload/mixes.hh"

namespace
{

std::atomic<std::uint64_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace padc::sim
{
namespace
{

std::uint64_t
servicedReads(const System &system)
{
    std::uint64_t reads = 0;
    for (std::uint32_t i = 0; i < system.numControllers(); ++i) {
        const auto &stats = system.controller(i).stats();
        reads += stats.demand_reads + stats.prefetch_reads;
    }
    return reads;
}

TEST(AllocFree, SaturatedSystemAllocatesNothingPerRead)
{
    const SystemConfig cfg =
        applyPolicy(SystemConfig::baseline(4), PolicySetup::Padc);
    const workload::Mix mix = workload::caseStudyUnfriendly();
    std::vector<std::unique_ptr<workload::SyntheticTrace>> traces;
    std::vector<core::TraceSource *> sources;
    for (std::uint32_t c = 0; c < cfg.num_cores; ++c) {
        traces.push_back(std::make_unique<workload::SyntheticTrace>(
            workload::traceParamsFor(mix, c, 0)));
        sources.push_back(traces.back().get());
    }
    System system(cfg, std::move(sources));

    // No core reaches this target, so each run() stops at its cycle
    // cap and the next one continues from there.
    constexpr std::uint64_t kNeverDone = ~std::uint64_t{0};
    system.run(kNeverDone, 1000000); // warm-up: queues reach peak depth

    const std::uint64_t reads_before = servicedReads(system);
    std::uint64_t writes_before = 0;
    for (std::uint32_t i = 0; i < system.numControllers(); ++i)
        writes_before += system.controller(i).stats().writes;
    const std::uint64_t allocs_before = g_allocations.load();
    system.run(kNeverDone, 2000000);
    const std::uint64_t allocs = g_allocations.load() - allocs_before;
    const std::uint64_t reads = servicedReads(system) - reads_before;
    std::uint64_t writes = 0;
    for (std::uint32_t i = 0; i < system.numControllers(); ++i)
        writes += system.controller(i).stats().writes;
    writes -= writes_before;

    // The window is the saturated regime the test is about.
    ASSERT_GT(reads, 10000u);
    EXPECT_GT(writes, 100u) << "the window retired too few writebacks";
    EXPECT_LT(allocs * 1000, reads)
        << allocs << " allocations over " << reads << " serviced reads";
}

} // namespace
} // namespace padc::sim
