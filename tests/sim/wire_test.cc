/**
 * @file
 * Tests for the process-pool wire protocol: frame I/O over real pipes,
 * incremental frame reassembly (FrameBuffer), task/result/point
 * round-trips (bit-exact doubles, full-width u64s), a walk over every
 * field-table leaf (key coverage, wire and journal round trips, named
 * errors for missing members), range-checked integer decoding, a golden
 * task frame, and the PADC_FAULT_INJECT parser + schedule.
 */

#include "sim/wire.hh"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/json.hh"
#include "sim/fields.hh"
#include "sim/journal.hh"

namespace padc::sim::wire
{
namespace
{

SweepPoint
fancyPoint()
{
    SweepPoint point;
    point.config = SystemConfig::baseline(2);
    point.config = applyPolicy(point.config, PolicySetup::Padc);
    point.config.prefetcher.degree = 7;
    point.config.sched.promotion_threshold = 0.1875;
    point.config.sched.drop_thresholds = {1, 2, 3, 4};
    point.config.sched.drop_accuracy_bounds = {0.25, 0.5, 0.75};
    point.config.dram.timing.tRCD = 13;
    point.config.dram.geometry.permutation_interleaving = true;
    point.mix = {"mcf_06", "libquantum_06"};
    point.options.instructions = 12345;
    point.options.warmup = 678;
    point.options.max_cycles = 90000;
    // Past 2^53: a double-typed JSON number would corrupt this.
    point.options.mix_seed = (1ULL << 60) + 3;
    return point;
}

std::string
encodePointDoc(const SweepPoint &point)
{
    exp::JsonWriter writer;
    writer.beginObject();
    encodePoint(writer, "point", point);
    writer.endObject();
    return writer.str();
}

/** A metrics result whose every leaf is set and distinct. */
Result<MixEvaluation>
fancyEval()
{
    Result<MixEvaluation> r;
    r.outcome.status = PointStatus::Truncated;
    r.outcome.detail = "cycle cap";
    double v = 0.1;
    std::uint64_t n = (1ULL << 54) + 1; // past 2^53: no double round trip
    for (int c = 0; c < 2; ++c) {
        CoreMetrics core;
        core.ipc = v += 0.37;
        core.mpki = v += 1.1;
        core.spl = std::nextafter(v += 2.3, 100.0);
        core.acc = 1.0 / (3 + c);
        core.cov = v / 7;
        core.rbh = 0.5 + c;
        core.rbhu = 1e-300;
        core.traffic_demand = n++;
        core.traffic_pref_useful = n++;
        core.traffic_pref_useless = n++;
        core.traffic_writeback = n++;
        core.instructions = n++;
        core.cycles = n++;
        r.value.metrics.cores.push_back(core);
    }
    for (std::uint64_t &serviced : r.value.metrics.class_serviced)
        serviced = n++;
    r.value.summary.speedups = {0.1 + 0.2, 2.0 / 3};
    r.value.summary.ws = 1.75;
    r.value.summary.hs = 0.123456789;
    r.value.summary.uf = 2.5;
    return r;
}

/**
 * JSON path of one leaf as the wire decoder names it: member names,
 * with "[i]" stepping into the i-th element of an array of objects.
 */
using LeafPath = std::vector<std::string>;

/** @p path the way decode errors print it ("metrics.cores[1].ipc"). */
std::string
dotted(const LeafPath &path)
{
    std::string out;
    for (const std::string &part : path) {
        if (!out.empty() && part[0] != '[')
            out += '.';
        out += part;
    }
    return out;
}

/**
 * Call fn(path, leaf) for every leaf of a tabled value: each scalar
 * member, each element of a fixed or per-class array, each member of
 * each element of a vector of structs, and each vector of scalars
 * (mix, speedups) as a whole.
 */
template <typename T, typename Fn>
void
forEachLeaf(T &value, LeafPath &path, Fn &fn)
{
    if constexpr (Tabled<T>) {
        forEachField(value, [&](const char *name, auto &&field) {
            path.push_back(name);
            forEachLeaf(field, path, fn);
            path.pop_back();
        });
    } else if constexpr (kIsVector<T>) {
        if constexpr (Tabled<typename T::value_type>) {
            for (std::size_t i = 0; i < value.size(); ++i) {
                path.push_back("[" + std::to_string(i) + "]");
                forEachLeaf(value[i], path, fn);
                path.pop_back();
            }
        } else {
            fn(path, value);
        }
    } else if constexpr (kIsArray<T>) {
        const std::string name = path.back();
        for (std::size_t i = 0; i < value.size(); ++i) {
            path.back() = name + "_" + std::to_string(i);
            fn(path, value[i]);
        }
        path.back() = name;
    } else if constexpr (kIsPerClass<T>) {
        std::size_t c = 0;
        for (auto &count : value) {
            path.push_back(toString(static_cast<RequestClass>(c++)));
            fn(path, count);
            path.pop_back();
        }
    } else {
        fn(path, value);
    }
}

template <typename T>
std::size_t
leafCount(T value)
{
    std::size_t n = 0;
    LeafPath path;
    auto count = [&](const LeafPath &, auto &) { ++n; };
    forEachLeaf(value, path, count);
    return n;
}

/** Change one leaf so that it encodes differently. */
template <typename L>
void
perturb(L &leaf)
{
    if constexpr (std::is_same_v<L, bool>) {
        leaf = !leaf;
    } else if constexpr (std::is_same_v<L, double>) {
        leaf = leaf * 2 + 0.0625;
    } else if constexpr (std::is_same_v<L, std::string>) {
        leaf += "_x";
    } else if constexpr (kIsVector<L>) {
        perturb(leaf.at(0));
    } else if constexpr (std::is_enum_v<L>) {
        leaf = static_cast<L>(static_cast<int>(leaf) + 1);
    } else {
        leaf = static_cast<L>(leaf + 1);
    }
}

/** Perturb the @p k-th leaf of @p value. @return that leaf's path. */
template <typename T>
LeafPath
perturbLeaf(T &value, std::size_t k)
{
    LeafPath path;
    LeafPath hit;
    std::size_t i = 0;
    auto visit = [&](const LeafPath &at, auto &leaf) {
        if (i++ == k) {
            perturb(leaf);
            hit = at;
        }
    };
    forEachLeaf(value, path, visit);
    return hit;
}

/** The bit pattern of every metrics leaf, for bit-exact comparison. */
template <typename T>
std::vector<std::uint64_t>
leafBits(T value)
{
    std::vector<std::uint64_t> bits;
    const auto push = [&](double d) {
        std::uint64_t b = 0;
        std::memcpy(&b, &d, sizeof(b));
        bits.push_back(b);
    };
    LeafPath path;
    auto visit = [&](const LeafPath &, auto &leaf) {
        using L = std::remove_reference_t<decltype(leaf)>;
        if constexpr (std::is_same_v<L, double>) {
            push(leaf);
        } else if constexpr (kIsVector<L>) {
            bits.push_back(leaf.size());
            for (const double d : leaf)
                push(d);
        } else {
            bits.push_back(static_cast<std::uint64_t>(leaf));
        }
    };
    forEachLeaf(value, path, visit);
    return bits;
}

/** Remove the member at @p path below @p root. */
void
eraseMember(exp::JsonValue &root, const LeafPath &path)
{
    exp::JsonValue *at = &root;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        at = path[i][0] == '['
                 ? &at->array.at(std::stoul(path[i].substr(1)))
                 : &at->object.at(path[i]);
    }
    EXPECT_EQ(at->object.erase(path.back()), 1u) << dotted(path);
}

/** Write a parsed document back out (objects, arrays, scalars). */
void
reEmitValue(exp::JsonWriter &w, const std::string *key,
            const exp::JsonValue &v)
{
    using Kind = exp::JsonValue::Kind;
    switch (v.kind) {
      case Kind::Object:
        key != nullptr ? w.beginObject(*key) : w.beginObject();
        for (const auto &[name, member] : v.object)
            reEmitValue(w, &name, member);
        w.endObject();
        return;
      case Kind::Array:
        w.beginArray(*key);
        for (const exp::JsonValue &element : v.array)
            reEmitValue(w, nullptr, element);
        w.endArray();
        return;
      case Kind::String:
        key != nullptr ? w.member(*key, v.string) : w.element(v.string);
        return;
      case Kind::Number:
        key != nullptr ? w.member(*key, v.number) : w.element(v.number);
        return;
      case Kind::Bool:
        w.member(*key, v.boolean);
        return;
      case Kind::Null:
        ADD_FAILURE() << "null in a wire document";
        return;
    }
}

std::string
reEmit(const exp::JsonValue &doc)
{
    exp::JsonWriter writer;
    reEmitValue(writer, nullptr, doc);
    return writer.str();
}

TEST(WirePoint, RoundTripsEveryKeyedField)
{
    const SweepPoint point = fancyPoint();
    const std::string doc = encodePointDoc(point);

    exp::JsonValue parsed;
    std::string error;
    ASSERT_TRUE(exp::parseJson(doc, &parsed, &error)) << error;
    SweepPoint decoded;
    ASSERT_TRUE(decodePoint(*parsed.find("point"), &decoded, &error))
        << error;

    // sweepPointKey hashes every field the executor keys on; equal keys
    // means the decode lost nothing the sweep cares about.
    EXPECT_EQ(sweepPointKey(decoded), sweepPointKey(point));
    EXPECT_EQ(decoded.mix, point.mix);
    EXPECT_EQ(decoded.options.mix_seed, point.options.mix_seed);
    EXPECT_EQ(decoded.config.sched.promotion_threshold,
              point.config.sched.promotion_threshold);
}

TEST(WirePoint, KeyedFieldChangesSurviveTheWire)
{
    // Perturb every leaf of the field table, one at a time. Each must
    // move the key (a field left out of the key would alias two configs
    // onto one journal entry) and must survive the wire (a field the
    // decoder skipped would come back with the base value and key).
    const SweepPoint base = fancyPoint();
    const std::uint64_t base_key = sweepPointKey(base);
    const std::size_t leaves = leafCount(base);
    EXPECT_GT(leaves, 80u);
    for (std::size_t k = 0; k < leaves; ++k) {
        SweepPoint p = base;
        SCOPED_TRACE(dotted(perturbLeaf(p, k)));
        const std::uint64_t key = sweepPointKey(p);
        EXPECT_NE(key, base_key);

        exp::JsonValue parsed;
        std::string error;
        SweepPoint decoded;
        ASSERT_TRUE(exp::parseJson(encodePointDoc(p), &parsed, &error))
            << error;
        ASSERT_TRUE(decodePoint(*parsed.find("point"), &decoded, &error))
            << error;
        EXPECT_EQ(sweepPointKey(decoded), key);
    }
}

TEST(WirePoint, EveryMissingMemberFailsAndIsNamed)
{
    const SweepPoint point = fancyPoint();
    exp::JsonValue doc;
    ASSERT_TRUE(exp::parseJson(encodePointDoc(point), &doc, nullptr));
    const std::size_t leaves = leafCount(point);
    for (std::size_t k = 0; k < leaves; ++k) {
        SweepPoint copy = point;
        const LeafPath path = perturbLeaf(copy, k);
        SCOPED_TRACE(dotted(path));
        exp::JsonValue broken = doc;
        eraseMember(broken.object.at("point"), path);
        SweepPoint decoded;
        std::string error;
        EXPECT_FALSE(
            decodePoint(broken.object.at("point"), &decoded, &error));
        EXPECT_NE(error.find("'" + dotted(path) + "'"), std::string::npos)
            << error;
    }
}

TEST(WirePoint, OutOfRangeIntegersAreRejectedNotTruncated)
{
    exp::JsonValue doc;
    ASSERT_TRUE(exp::parseJson(encodePointDoc(fancyPoint()), &doc, nullptr));
    exp::JsonValue &config = doc.object.at("point").object.at("config");
    const auto decodeWith = [&](exp::JsonValue &member, const char *text,
                                std::string *error) {
        const std::string saved = member.string;
        member.string = text;
        SweepPoint decoded;
        const bool ok =
            decodePoint(doc.object.at("point"), &decoded, error);
        member.string = saved;
        return std::make_pair(ok, decoded);
    };

    // DdpfConfig::threshold is a uint8_t: 258 must not wrap to 2.
    exp::JsonValue &threshold =
        config.object.at("ddpf").object.at("threshold");
    std::string error;
    EXPECT_FALSE(decodeWith(threshold, "258", &error).first);
    EXPECT_NE(error.find("'config.ddpf.threshold'"), std::string::npos)
        << error;
    const auto [ok, decoded] = decodeWith(threshold, "255", &error);
    EXPECT_TRUE(ok) << error;
    EXPECT_EQ(decoded.config.ddpf.threshold, 255u);

    // num_cores is a uint32_t: 2^32 + 4 must not wrap to 4.
    EXPECT_FALSE(decodeWith(config.object.at("num_cores"), "4294967300",
                            &error)
                     .first);
    EXPECT_NE(error.find("'config.num_cores'"), std::string::npos)
        << error;

    // Enums are range-checked against their underlying type.
    EXPECT_FALSE(decodeWith(config.object.at("sched").object.at("kind"),
                            "256", &error)
                     .first);
    EXPECT_NE(error.find("'config.sched.kind'"), std::string::npos)
        << error;

    // The task envelope's uint32_t attempt is checked the same way.
    WireTask task;
    task.point = fancyPoint();
    exp::JsonValue frame;
    ASSERT_TRUE(exp::parseJson(encodeTask(task), &frame, nullptr));
    frame.object.at("attempt").string = "4294967296";
    WireTask back;
    EXPECT_FALSE(decodeTask(reEmit(frame), &back, &error));
    EXPECT_NE(error.find("'attempt'"), std::string::npos) << error;
}

/** A checked-in golden frame, without the file's trailing newline. */
std::string
readGolden(const std::string &name)
{
    const std::string path = std::string(PADC_WIRE_GOLDEN_DIR) + "/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string golden = buffer.str();
    if (!golden.empty() && golden.back() == '\n')
        golden.pop_back();
    return golden;
}

TEST(WireGolden, FancyFramesAreByteStable)
{
    // The frames are pinned byte for byte: a change to the wire format
    // must be deliberate and bump the payload tags (padc-worker-*-v1).
    WireTask task;
    task.kind = WireTask::Kind::Eval;
    task.index = 7;
    task.attempt = 1;
    task.point = fancyPoint();
    task.alone_base = SystemConfig::baseline(2);
    task.alone_options.instructions = 4321;
    const std::string task_frame = readGolden("fancy_eval_task.json");
    EXPECT_EQ(encodeTask(task), task_frame);
    WireTask decoded_task;
    std::string error;
    ASSERT_TRUE(decodeTask(task_frame, &decoded_task, &error)) << error;
    EXPECT_EQ(encodeTask(decoded_task), task_frame);

    WireResult result;
    result.kind = WireTask::Kind::Eval;
    result.index = 3;
    result.eval = fancyEval();
    const std::string result_frame = readGolden("fancy_eval_result.json");
    EXPECT_EQ(encodeResult(result), result_frame);
    WireResult decoded_result;
    ASSERT_TRUE(decodeResult(result_frame, &decoded_result, &error))
        << error;
    EXPECT_EQ(encodeResult(decoded_result), result_frame);
}

TEST(WireTaskCodec, RunAndEvalTasksRoundTrip)
{
    WireTask task;
    task.kind = WireTask::Kind::Eval;
    task.index = (1ULL << 55) + 9;
    task.attempt = 3;
    task.point = fancyPoint();
    task.alone_base = SystemConfig::baseline(1);
    task.alone_options.instructions = 777;

    WireTask decoded;
    std::string error;
    ASSERT_TRUE(decodeTask(encodeTask(task), &decoded, &error)) << error;
    EXPECT_EQ(decoded.kind, WireTask::Kind::Eval);
    EXPECT_EQ(decoded.index, task.index);
    EXPECT_EQ(decoded.attempt, 3u);
    EXPECT_EQ(sweepPointKey(decoded.point), sweepPointKey(task.point));
    EXPECT_EQ(sweepPointKey({decoded.alone_base, {}, decoded.alone_options}),
              sweepPointKey({task.alone_base, {}, task.alone_options}));

    task.kind = WireTask::Kind::Run;
    ASSERT_TRUE(decodeTask(encodeTask(task), &decoded, &error)) << error;
    EXPECT_EQ(decoded.kind, WireTask::Kind::Run);

    EXPECT_FALSE(decodeTask("{\"padc\": \"nope\"}", &decoded, &error));
    EXPECT_FALSE(error.empty());
}

TEST(WireResultCodec, RunResultRoundTripsBitExactly)
{
    WireResult result;
    result.kind = WireTask::Kind::Run;
    result.index = 4;
    result.run.outcome.status = PointStatus::Truncated;
    result.run.outcome.detail = "cycle cap";
    CoreMetrics core;
    core.ipc = 0.1 + 0.2; // not exactly representable: bit-exactness test
    core.mpki = 17.125;
    core.spl = std::nextafter(3.0, 4.0);
    core.traffic_demand = (1ULL << 54) + 1;
    core.instructions = 123456789;
    core.cycles = 987654321;
    result.run.value.cores.push_back(core);

    WireResult decoded;
    std::string error;
    ASSERT_TRUE(decodeResult(encodeResult(result), &decoded, &error))
        << error;
    EXPECT_FALSE(decoded.hello);
    EXPECT_EQ(decoded.index, 4u);
    EXPECT_EQ(decoded.run.outcome.status, PointStatus::Truncated);
    EXPECT_EQ(decoded.run.outcome.detail, "cycle cap");
    ASSERT_EQ(decoded.run.value.cores.size(), 1u);
    EXPECT_EQ(decoded.run.value.cores[0].ipc, core.ipc);
    EXPECT_EQ(decoded.run.value.cores[0].spl, core.spl);
    EXPECT_EQ(decoded.run.value.cores[0].traffic_demand,
              core.traffic_demand);
    EXPECT_EQ(decoded.run.value.cores[0].cycles, core.cycles);
}

TEST(WireResultCodec, EvalResultCarriesSummaryAndHelloDecodes)
{
    WireResult result;
    result.kind = WireTask::Kind::Eval;
    result.index = 2;
    result.eval.outcome.status = PointStatus::Ok;
    result.eval.value.summary.ws = 1.75;
    result.eval.value.summary.hs = 0.875;
    result.eval.value.summary.uf = 1.0625;
    result.eval.value.summary.speedups = {1.0, 0.1 + 0.7};
    CoreMetrics core;
    core.ipc = 0.5;
    result.eval.value.metrics.cores.push_back(core);

    WireResult decoded;
    std::string error;
    ASSERT_TRUE(decodeResult(encodeResult(result), &decoded, &error))
        << error;
    EXPECT_EQ(decoded.eval.value.summary.ws, 1.75);
    EXPECT_EQ(decoded.eval.value.summary.speedups,
              result.eval.value.summary.speedups);
    ASSERT_EQ(decoded.eval.value.metrics.cores.size(), 1u);

    ASSERT_TRUE(decodeResult(encodeHello(), &decoded, &error)) << error;
    EXPECT_TRUE(decoded.hello);

    EXPECT_FALSE(decodeResult("[]", &decoded, &error));
    EXPECT_FALSE(error.empty());
}

TEST(WireResultCodec, EveryMetricsFieldSurvivesTheWireAndTheJournal)
{
    // Perturb every metrics leaf, one at a time; the wire and the
    // journal must both hand back the exact bits.
    const Result<MixEvaluation> base = fancyEval();
    const std::size_t leaves = leafCount(base.value);
    EXPECT_GT(leaves, 30u);
    const std::string path = ::testing::TempDir() + "padc_wire_test." +
                             std::to_string(::getpid()) + ".padcjournal";
    std::remove(path.c_str());
    std::vector<Result<MixEvaluation>> perturbed;
    {
        SweepJournal journal(path);
        for (std::size_t k = 0; k < leaves; ++k) {
            Result<MixEvaluation> r = base;
            SCOPED_TRACE(dotted(perturbLeaf(r.value, k)));
            EXPECT_NE(leafBits(r.value), leafBits(base.value));

            WireResult result;
            result.kind = WireTask::Kind::Eval;
            result.eval = r;
            WireResult decoded;
            std::string error;
            ASSERT_TRUE(
                decodeResult(encodeResult(result), &decoded, &error))
                << error;
            EXPECT_EQ(leafBits(decoded.eval.value), leafBits(r.value));

            journal.record(k, r);
            perturbed.push_back(r);
        }
    }
    SweepJournal reopened(path);
    for (std::size_t k = 0; k < leaves; ++k) {
        Result<MixEvaluation> loaded;
        ASSERT_TRUE(reopened.lookup(k, &loaded)) << k;
        EXPECT_EQ(leafBits(loaded.value), leafBits(perturbed[k].value))
            << k;
        EXPECT_EQ(loaded.outcome.detail, base.outcome.detail);
    }
    std::remove(path.c_str());
}

TEST(WireResultCodec, EveryMissingMetricsMemberFailsAndIsNamed)
{
    WireResult result;
    result.kind = WireTask::Kind::Eval;
    result.eval = fancyEval();
    exp::JsonValue doc;
    ASSERT_TRUE(exp::parseJson(encodeResult(result), &doc, nullptr));
    const std::size_t leaves = leafCount(result.eval.value);
    for (std::size_t k = 0; k < leaves; ++k) {
        Result<MixEvaluation> copy = result.eval;
        const LeafPath path = perturbLeaf(copy.value, k);
        SCOPED_TRACE(dotted(path));
        exp::JsonValue broken = doc;
        eraseMember(broken, path);
        WireResult decoded;
        std::string error;
        EXPECT_FALSE(decodeResult(reEmit(broken), &decoded, &error));
        EXPECT_NE(error.find("'" + dotted(path) + "'"), std::string::npos)
            << error;
    }
}

TEST(FieldTable, MemberCountsSeeEveryMember)
{
    // The compile-time check in forEachField compares these counts with
    // the table sizes; they must count arrays, vectors and pointers as
    // one member each.
    static_assert(detail::memberCount<memctrl::SchedulerConfig>() == 15);
    static_assert(detail::memberCount<dram::TimingParams>() == 17);
    static_assert(detail::memberCount<CoreMetrics>() == 13);
    static_assert(detail::memberCount<SystemConfig>() == 16);
    static_assert(detail::memberCount<SweepPoint>() == 3);
    static_assert(detail::memberCount<MultiCoreMetrics>() == 4);
    static_assert(detail::tabledCount<FieldTable<SystemConfig>>() == 16);
    SUCCEED();
}

TEST(WireFrames, RoundTripOverAPipe)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string payload = "{\"x\": 1}";
    ASSERT_TRUE(writeFrame(fds[1], payload));
    ASSERT_TRUE(writeFrame(fds[1], std::string()));
    std::string read_back;
    ASSERT_TRUE(readFrame(fds[0], &read_back));
    EXPECT_EQ(read_back, payload);
    ASSERT_TRUE(readFrame(fds[0], &read_back));
    EXPECT_TRUE(read_back.empty());
    ::close(fds[1]);
    EXPECT_FALSE(readFrame(fds[0], &read_back)) << "EOF must fail";
    ::close(fds[0]);
}

TEST(WireFrames, OversizedLengthPrefixIsRejected)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::uint32_t huge = kMaxFramePayload + 1;
    char header[4];
    std::memcpy(header, &huge, 4);
    ASSERT_EQ(::write(fds[1], header, 4), 4);
    std::string payload;
    EXPECT_FALSE(readFrame(fds[0], &payload));
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(WireFrames, FrameBufferReassemblesAcrossArbitrarySplits)
{
    const std::string a = "{\"first\": 1}";
    const std::string b = "{\"second\": 2}";
    std::string stream;
    for (const std::string &payload : {a, b}) {
        const std::uint32_t n =
            static_cast<std::uint32_t>(payload.size());
        char header[4];
        header[0] = static_cast<char>(n & 0xff);
        header[1] = static_cast<char>((n >> 8) & 0xff);
        header[2] = static_cast<char>((n >> 16) & 0xff);
        header[3] = static_cast<char>((n >> 24) & 0xff);
        stream.append(header, 4);
        stream += payload;
    }

    // Feed one byte at a time: every split point is exercised.
    FrameBuffer frames;
    std::string got;
    std::vector<std::string> extracted;
    for (const char c : stream) {
        frames.feed(&c, 1);
        while (frames.next(&got))
            extracted.push_back(got);
    }
    ASSERT_EQ(extracted.size(), 2u);
    EXPECT_EQ(extracted[0], a);
    EXPECT_EQ(extracted[1], b);
    EXPECT_FALSE(frames.corrupt());

    const char bad[4] = {'\xff', '\xff', '\xff', '\x7f'};
    frames.feed(bad, 4);
    EXPECT_FALSE(frames.next(&got));
    EXPECT_TRUE(frames.corrupt());
}

TEST(FaultSpecParse, AcceptsTheDocumentedGrammar)
{
    FaultSpec spec = parseFaultSpec("crash:3");
    EXPECT_EQ(spec.mode, FaultSpec::Mode::Crash);
    EXPECT_EQ(spec.every, 3u);

    spec = parseFaultSpec("hang:7");
    EXPECT_EQ(spec.mode, FaultSpec::Mode::Hang);
    EXPECT_EQ(spec.every, 7u);

    spec = parseFaultSpec("exit:42:2");
    EXPECT_EQ(spec.mode, FaultSpec::Mode::Exit);
    EXPECT_EQ(spec.exit_code, 42);
    EXPECT_EQ(spec.every, 2u);

    spec = parseFaultSpec("poison:5");
    EXPECT_EQ(spec.mode, FaultSpec::Mode::Poison);
    EXPECT_EQ(spec.poison_index, 5u);

    EXPECT_FALSE(parseFaultSpec(nullptr).enabled());
    EXPECT_FALSE(parseFaultSpec("").enabled());
}

TEST(FaultSpecParse, MalformedSpecsWarnAndDisable)
{
    // Strict parse, never guess: anything off-grammar disables faults.
    testing::internal::CaptureStderr();
    EXPECT_FALSE(parseFaultSpec("crash").enabled());
    EXPECT_FALSE(parseFaultSpec("crash:").enabled());
    EXPECT_FALSE(parseFaultSpec("crash:0").enabled());
    EXPECT_FALSE(parseFaultSpec("crash:-3").enabled());
    EXPECT_FALSE(parseFaultSpec("crash:3x").enabled());
    EXPECT_FALSE(parseFaultSpec("meteor:3").enabled());
    EXPECT_FALSE(parseFaultSpec("exit:3").enabled());
    EXPECT_FALSE(parseFaultSpec("exit:999:3").enabled());
    EXPECT_FALSE(parseFaultSpec("exit:1:0").enabled());
    EXPECT_FALSE(parseFaultSpec("poison:").enabled());
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("PADC_FAULT_INJECT"), std::string::npos);
}

TEST(FaultSchedule, PeriodicModesFireOnAttemptZeroOnly)
{
    FaultSpec crash;
    crash.mode = FaultSpec::Mode::Crash;
    crash.every = 3;
    // Fires on every third index (2, 5, 8, ...) so crash:1 hits all.
    EXPECT_FALSE(faultFires(crash, 0, 0));
    EXPECT_FALSE(faultFires(crash, 1, 0));
    EXPECT_TRUE(faultFires(crash, 2, 0));
    EXPECT_TRUE(faultFires(crash, 5, 0));
    // Retries must succeed or the merged sweep could never finish.
    EXPECT_FALSE(faultFires(crash, 2, 1));
    EXPECT_FALSE(faultFires(crash, 5, 2));

    FaultSpec none;
    EXPECT_FALSE(faultFires(none, 2, 0));
}

TEST(FaultSchedule, PoisonFiresOnEveryAttemptOfOneIndex)
{
    FaultSpec poison;
    poison.mode = FaultSpec::Mode::Poison;
    poison.poison_index = 4;
    EXPECT_TRUE(faultFires(poison, 4, 0));
    EXPECT_TRUE(faultFires(poison, 4, 1));
    EXPECT_TRUE(faultFires(poison, 4, 7));
    EXPECT_FALSE(faultFires(poison, 3, 0));
    EXPECT_FALSE(faultFires(poison, 5, 0));
}

} // namespace
} // namespace padc::sim::wire
