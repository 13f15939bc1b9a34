/**
 * @file
 * Reference kernel of the simulator benchmark (see README.md in this
 * directory).
 *
 *   perfbench_reference <chunks>
 *
 * Runs a fixed amount of work per chunk and prints each chunk's host
 * seconds, one per line. The work is a data-dependent walk with stores,
 * branchy pointer-chasing code like the simulator's: first over a
 * 2 MiB slice of a table, which the shared cache holds, then over the
 * whole 16 MiB, which it does not. The two phases take about equal
 * time, so the kernel slows both when the host's cores run slower and
 * when its shared cache and memory are busy. It does not depend on the
 * simulator's sources, so it does the same work at every commit; run.py
 * uses its median chunk to measure how fast the host is right now.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

int
main(int argc, char **argv)
{
    const int chunks = argc > 1 ? std::atoi(argv[1]) : 0;
    if (chunks <= 0) {
        std::fprintf(stderr, "usage: perfbench_reference <chunks>\n");
        return 2;
    }
    constexpr std::size_t kEntries = std::size_t(1) << 21;
    constexpr std::size_t kSliceEntries = std::size_t(1) << 18;
    constexpr long kSliceSteps = 1500000;
    constexpr long kTableSteps = 250000;
    std::vector<std::uint64_t> table(kEntries);
    std::uint64_t x = 88172645463325252ull;
    for (auto &v : table) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v = x;
    }
    std::uint64_t acc = 0, i = 1;
    auto walk = [&](std::size_t entries, long steps) {
        for (long k = 0; k < steps; ++k) {
            const std::uint64_t v = table[i & (entries - 1)];
            if (v & 1)
                acc += v >> 3;
            else
                acc ^= v * 31;
            if ((v >> 5) % 3 == 0)
                table[i & (entries - 1)] = v + acc;
            i = (v ^ acc) + static_cast<std::uint64_t>(k);
        }
    };
    for (int c = 0; c < chunks; ++c) {
        const auto start = std::chrono::steady_clock::now();
        walk(kSliceEntries, kSliceSteps);
        walk(kEntries, kTableSteps);
        const std::chrono::duration<double> spent =
            std::chrono::steady_clock::now() - start;
        std::printf("%.9f\n", spent.count());
    }
    // A volatile store keeps the compiler from dropping the walk.
    volatile std::uint64_t sink = acc;
    (void)sink;
    return 0;
}
