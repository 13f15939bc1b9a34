/**
 * @file
 * The committed PADCTRC1 fixture, tests/trace/data/v1_sample.trc.
 *
 * Nothing in the tree writes v1 any more, so the v1 reader is checked
 * against bytes written by the former v1 writer rather than by an
 * encoder in the code under test. The fixture holds v1FixtureOps():
 * six edge-case ops (an escaped compute gap, a 48-bit address, every
 * flag combination) followed by 500 regular strided ops. The verify
 * facts below are what verifyTraceFile reported for it when it was
 * written; the tests pin them.
 */

#ifndef PADC_TESTS_TRACE_V1_FIXTURE_HH
#define PADC_TESTS_TRACE_V1_FIXTURE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.hh"

namespace padc::trace
{

inline std::string
v1FixturePath()
{
    return std::string(PADC_TRACE_FIXTURE_DIR) + "/v1_sample.trc";
}

inline std::vector<core::TraceOp>
v1FixtureOps()
{
    std::vector<core::TraceOp> ops = {
        {3, 0x1000, 0x400, true, false},
        {0, 0xFFFFFFFFFFC0ULL, 0x404, false, true},
        {1000000, 0x40, 0x9999, true, true},
        {62, 0x1040, 0x400, true, false},
        {63, 0x1080, 0x400, false, false},
        {64, 0x10C0, 0x400, true, true},
    };
    for (std::uint32_t i = 0; i < 500; ++i) {
        ops.push_back({i % 16, 0x40000ULL + 32ULL * i,
                       0x400ULL + 4 * (i % 8), i % 4 != 3, i % 5 == 0});
    }
    return ops;
}

constexpr std::uint64_t kV1FixtureOps = 506;
constexpr std::uint64_t kV1FixtureBytes = 16 + 24 * kV1FixtureOps;
constexpr std::uint64_t kV1FixtureChecksum = 0xaf61111e1c6e9354ULL;
constexpr std::uint64_t kV1FixtureDistinctLines = 256;
constexpr std::uint64_t kV1FixtureLoads = 379;
constexpr std::uint64_t kV1FixtureStores = 127;

} // namespace padc::trace

#endif // PADC_TESTS_TRACE_V1_FIXTURE_HH
