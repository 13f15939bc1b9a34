/**
 * @file
 * Unit tests for the record/replay path a core runs on: a trace is
 * recorded with the incremental TraceWriter (as `padc_sim --record`
 * does) and replayed through StreamingFileTrace (as `--replay` does),
 * and the committed PADCTRC1 fixture reads back op for op.
 */

#include <gtest/gtest.h>

#include <unistd.h>
#include <cstdio>
#include <filesystem>

#include "trace/format.hh"
#include "trace/stream.hh"
#include "v1_fixture.hh"
#include "workload/generator.hh"

namespace padc::trace
{
namespace
{

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "padc_trace_file_test." +
                std::to_string(::getpid()) + ".trc";
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    /** Record @p ops the way `padc_sim --record` does. */
    bool
    record(const std::vector<core::TraceOp> &ops, std::string *error)
    {
        TraceWriter writer(path_);
        for (const auto &op : ops)
            writer.append(op);
        return writer.close(error);
    }

    std::string path_;
};

std::vector<core::TraceOp>
sampleOps()
{
    return {
        {3, 0x1000, 0x400, true, false},
        {0, 0xFFFFFFFFFFC0ULL, 0x404, false, true},
        {1000000, 0x40, 0x9999, true, true},
    };
}

void
expectOpsEq(const std::vector<core::TraceOp> &got,
            const std::vector<core::TraceOp> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].addr, want[i].addr) << "op " << i;
        EXPECT_EQ(got[i].pc, want[i].pc) << "op " << i;
        EXPECT_EQ(got[i].compute_gap, want[i].compute_gap) << "op " << i;
        EXPECT_EQ(got[i].is_load, want[i].is_load) << "op " << i;
        EXPECT_EQ(got[i].dependent, want[i].dependent) << "op " << i;
    }
}

TEST_F(TraceFileTest, RoundTrip)
{
    std::string error;
    ASSERT_TRUE(record(sampleOps(), &error)) << error;
    std::vector<core::TraceOp> loaded;
    ASSERT_TRUE(readTraceFileAny(path_, &loaded, &error)) << error;
    expectOpsEq(loaded, sampleOps());

    // Bytes from the former v1 writer decode to the ops it was given.
    std::vector<core::TraceOp> v1;
    ASSERT_TRUE(readTraceFileAny(v1FixturePath(), &v1, &error)) << error;
    expectOpsEq(v1, v1FixtureOps());
}

TEST_F(TraceFileTest, FileTraceReplaysAndLoops)
{
    std::string error;
    ASSERT_TRUE(record(sampleOps(), &error)) << error;
    StreamingFileTrace trace(path_);
    ASSERT_TRUE(trace.ok()) << trace.error();
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.next().addr, 0x1000u);
    EXPECT_EQ(trace.next().addr, 0xFFFFFFFFFFC0ULL);
    EXPECT_EQ(trace.next().addr, 0x40u);
    EXPECT_EQ(trace.next().addr, 0x1000u); // wrapped
    trace.reset();
    EXPECT_EQ(trace.next().addr, 0x1000u);
}

TEST_F(TraceFileTest, MissingFileFails)
{
    std::vector<core::TraceOp> ops;
    std::string error;
    EXPECT_FALSE(readTraceFileAny("/nonexistent/padc.trc", &ops, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
    StreamingFileTrace trace("/nonexistent/padc.trc");
    EXPECT_FALSE(trace.ok());
    EXPECT_FALSE(trace.error().empty());
}

TEST_F(TraceFileTest, UnwritableDirectoryReportsOpenFailure)
{
    TraceWriter writer("/nonexistent-dir/padc.trc");
    for (const auto &op : sampleOps())
        writer.append(op);
    std::string error;
    EXPECT_FALSE(writer.close(&error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
    EXPECT_FALSE(std::filesystem::exists("/nonexistent-dir/padc.trc"));
}

TEST_F(TraceFileTest, SuccessfulWriteLeavesNoTmpSibling)
{
    std::string error;
    ASSERT_TRUE(record(sampleOps(), &error)) << error;
    EXPECT_TRUE(std::filesystem::exists(path_));
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(TraceFileTest, CaptureFromSyntheticGeneratorMatchesReplay)
{
    workload::TraceParams params;
    params.seed = 42;
    workload::SyntheticTrace generator(params);
    TraceWriter writer(path_);
    for (int i = 0; i < 2000; ++i)
        writer.append(generator.next());
    std::string error;
    ASSERT_TRUE(writer.close(&error)) << error;

    StreamingFileTrace trace(path_);
    ASSERT_TRUE(trace.ok()) << trace.error();
    EXPECT_EQ(trace.format(), TraceFormat::V2);
    generator.reset();
    for (int i = 0; i < 2000; ++i) {
        const core::TraceOp a = generator.next();
        const core::TraceOp b = trace.next();
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.compute_gap, b.compute_gap);
        ASSERT_EQ(a.is_load, b.is_load);
    }
}

TEST_F(TraceFileTest, EmptyTraceWritesButDoesNotReplay)
{
    std::string error;
    ASSERT_TRUE(record({}, &error)) << error;
    std::vector<core::TraceOp> ops;
    EXPECT_TRUE(readTraceFileAny(path_, &ops, &error)) << error;
    EXPECT_TRUE(ops.empty());
    StreamingFileTrace trace(path_);
    EXPECT_FALSE(trace.ok()); // empty traces cannot drive a core
}

} // namespace
} // namespace padc::trace
