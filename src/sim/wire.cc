#include "sim/wire.hh"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "sim/fields.hh"

namespace padc::sim::wire
{

namespace
{

// --- low-level pipe I/O -----------------------------------------------

bool
writeAll(int fd, const char *data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::write(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
readAll(int fd, char *data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::read(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF mid-frame
        off += static_cast<std::size_t>(n);
    }
    return true;
}

// --- JSON member helpers ----------------------------------------------

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

/** Decimal u64 as a string member (see file comment of wire.hh). */
std::string
u64s(std::uint64_t value)
{
    return std::to_string(value);
}

/** Strict unsigned decimal parse: whole string, no sign, no overflow. */
bool
parseU64Strict(const char *text, std::uint64_t *out)
{
    if (text == nullptr || *text == '\0' || text[0] == '-' ||
        text[0] == '+')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0')
        return false;
    *out = value;
    return true;
}

bool
getString(const exp::JsonValue &value, const std::string &key,
          std::string *out, std::string *error)
{
    const exp::JsonValue *member = value.find(key);
    if (member == nullptr || !member->isString())
        return fail(error, "missing string member '" + key + "'");
    *out = member->string;
    return true;
}

// --- tabled values ----------------------------------------------------
//
// Points and metrics travel as JSON objects whose member names come
// from the field tables (sim/fields.hh): tabled structs nest as
// objects, vectors become arrays, a fixed array becomes one member per
// element ("drop_thresholds_0", ...), and a per-class array becomes an
// object keyed by class name. Integers and enums are decimal strings,
// doubles numbers and bools booleans (see wire.hh).

template <typename T>
void encodeFields(exp::JsonWriter &w, const T &value);

/** Write @p value as member @p name of the innermost open object. */
template <typename T>
void
encodeMember(exp::JsonWriter &w, const std::string &name, const T &value)
{
    if constexpr (Tabled<T>) {
        w.beginObject(name);
        encodeFields(w, value);
        w.endObject();
    } else if constexpr (std::is_same_v<T, double> ||
                         std::is_same_v<T, bool>) {
        w.member(name, value);
    } else if constexpr (kIsVector<T>) {
        w.beginArray(name);
        for (const auto &element : value) {
            if constexpr (Tabled<typename T::value_type>) {
                w.beginObject();
                encodeFields(w, element);
                w.endObject();
            } else {
                w.element(element);
            }
        }
        w.endArray();
    } else if constexpr (kIsArray<T>) {
        for (std::size_t i = 0; i < value.size(); ++i)
            encodeMember(w, name + "_" + std::to_string(i), value[i]);
    } else if constexpr (kIsPerClass<T>) {
        w.beginObject(name);
        std::size_t c = 0;
        for (const auto &count : value)
            encodeMember(w, toString(static_cast<RequestClass>(c++)), count);
        w.endObject();
    } else {
        w.member(name, u64s(static_cast<std::uint64_t>(value)));
    }
}

/** Write every field of @p value as a member of the open object. */
template <typename T>
void
encodeFields(exp::JsonWriter &w, const T &value)
{
    forEachField(value, [&](const char *name, const auto &field) {
        encodeMember(w, name, field);
    });
}

/** Dotted path of member @p name of the object at @p path. */
std::string
memberPath(const std::string &path, const std::string &name)
{
    return path.empty() ? name : path + "." + name;
}

template <typename T>
bool decodeFields(const exp::JsonValue &object, T &value,
                  const std::string &path, std::string *error);

/** Decode one array element (a tabled struct, number or string). */
template <typename T>
bool
decodeElement(const exp::JsonValue &element, T &value,
              const std::string &path, std::string *error)
{
    if constexpr (Tabled<T>) {
        if (!element.isObject())
            return fail(error, "element '" + path + "' is not an object");
        return decodeFields(element, value, path, error);
    } else if constexpr (std::is_same_v<T, double>) {
        if (!element.isNumber())
            return fail(error, "element '" + path + "' is not a number");
        value = element.number;
        return true;
    } else {
        static_assert(std::is_same_v<T, std::string>);
        if (!element.isString())
            return fail(error, "element '" + path + "' is not a string");
        value = element.string;
        return true;
    }
}

/**
 * Decode member @p name of @p object (the object at @p path) into
 * @p value. Every error names the member's dotted path; an integer
 * that does not fit its field is an error, never truncated.
 */
template <typename T>
bool
decodeMember(const exp::JsonValue &object, const std::string &name,
             T &value, const std::string &path, std::string *error)
{
    const exp::JsonValue *member = object.find(name);
    const auto where = [&] { return memberPath(path, name); };
    const auto missing = [&](const char *kind) {
        return fail(error, std::string("missing ") + kind + " member '" +
                               where() + "'");
    };
    if constexpr (Tabled<T>) {
        if (member == nullptr || !member->isObject())
            return missing("object");
        return decodeFields(*member, value, where(), error);
    } else if constexpr (std::is_same_v<T, double>) {
        if (member == nullptr || !member->isNumber())
            return missing("number");
        value = member->number;
        return true;
    } else if constexpr (std::is_same_v<T, bool>) {
        if (member == nullptr || member->kind != exp::JsonValue::Kind::Bool)
            return missing("bool");
        value = member->boolean;
        return true;
    } else if constexpr (kIsVector<T>) {
        if (member == nullptr || !member->isArray())
            return missing("array");
        if (member->array.size() > kMaxTabledVector)
            return fail(error, "member '" + where() + "' has more than " +
                                   std::to_string(kMaxTabledVector) +
                                   " elements");
        value.clear();
        value.resize(member->array.size());
        for (std::size_t i = 0; i < value.size(); ++i) {
            if (!decodeElement(member->array[i], value[i],
                               where() + "[" + std::to_string(i) + "]",
                               error))
                return false;
        }
        return true;
    } else if constexpr (kIsArray<T>) {
        for (std::size_t i = 0; i < value.size(); ++i) {
            if (!decodeMember(object, name + "_" + std::to_string(i),
                              value[i], path, error))
                return false;
        }
        return true;
    } else if constexpr (kIsPerClass<T>) {
        if (member == nullptr || !member->isObject())
            return missing("object");
        std::size_t c = 0;
        for (auto &count : value) {
            if (!decodeMember(*member,
                              toString(static_cast<RequestClass>(c++)),
                              count, where(), error))
                return false;
        }
        return true;
    } else {
        std::uint64_t v = 0;
        if (member == nullptr || !member->isString())
            return missing("string");
        if (!parseU64Strict(member->string.c_str(), &v))
            return fail(error, "member '" + where() + "' is not a u64: '" +
                                   member->string + "'");
        if (!fitsField<T>(v))
            return fail(error, "member '" + where() + "' = " +
                                   member->string +
                                   " does not fit its field");
        value = static_cast<T>(v);
        return true;
    }
}

/** Decode every field of @p value from the object at @p path. */
template <typename T>
bool
decodeFields(const exp::JsonValue &object, T &value,
             const std::string &path, std::string *error)
{
    return forEachField(value, [&](const char *name, auto &&field) {
        return decodeMember(object, name, field, path, error);
    });
}

// --- outcome --------------------------------------------------------

void
encodeOutcome(exp::JsonWriter &w, const PointOutcome &outcome)
{
    w.member("status", toString(outcome.status));
    w.member("detail", outcome.detail);
}

bool
decodeOutcome(const exp::JsonValue &value, PointOutcome *out,
              std::string *error)
{
    std::string status;
    if (!getString(value, "status", &status, error) ||
        !getString(value, "detail", &out->detail, error))
        return false;
    if (status == "ok")
        out->status = PointStatus::Ok;
    else if (status == "truncated")
        out->status = PointStatus::Truncated;
    else if (status == "failed")
        out->status = PointStatus::Failed;
    else
        return fail(error, "unknown point status '" + status + "'");
    return true;
}

constexpr char kHelloTag[] = "padc-worker-hello-v1";
constexpr char kTaskTag[] = "padc-worker-task-v1";
constexpr char kResultTag[] = "padc-worker-result-v1";

const char *
kindName(WireTask::Kind kind)
{
    return kind == WireTask::Kind::Eval ? "eval" : "run";
}

} // namespace

// --- frame I/O --------------------------------------------------------

bool
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFramePayload)
        return false;
    const auto size = static_cast<std::uint32_t>(payload.size());
    std::string frame;
    frame.reserve(4 + payload.size());
    for (int i = 0; i < 4; ++i)
        frame.push_back(static_cast<char>((size >> (8 * i)) & 0xff));
    frame += payload;
    return writeAll(fd, frame.data(), frame.size());
}

bool
readFrame(int fd, std::string *payload)
{
    unsigned char header[4];
    if (!readAll(fd, reinterpret_cast<char *>(header), sizeof(header)))
        return false;
    const std::uint32_t size =
        static_cast<std::uint32_t>(header[0]) |
        (static_cast<std::uint32_t>(header[1]) << 8) |
        (static_cast<std::uint32_t>(header[2]) << 16) |
        (static_cast<std::uint32_t>(header[3]) << 24);
    if (size > kMaxFramePayload)
        return false;
    payload->assign(size, '\0');
    return size == 0 || readAll(fd, payload->data(), size);
}

void
FrameBuffer::feed(const char *data, std::size_t n)
{
    pending_.append(data, n);
}

bool
FrameBuffer::next(std::string *payload)
{
    if (corrupt_ || pending_.size() < 4)
        return false;
    const auto b = [&](std::size_t i) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(pending_[i]));
    };
    const std::uint32_t size =
        b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
    if (size > kMaxFramePayload) {
        corrupt_ = true;
        return false;
    }
    if (pending_.size() < 4 + static_cast<std::size_t>(size))
        return false;
    *payload = pending_.substr(4, size);
    pending_.erase(0, 4 + static_cast<std::size_t>(size));
    return true;
}

// --- payloads ---------------------------------------------------------

void
encodePoint(exp::JsonWriter &writer, const std::string &key,
            const SweepPoint &point)
{
    encodeMember(writer, key, point);
}

bool
decodePoint(const exp::JsonValue &value, SweepPoint *out,
            std::string *error)
{
    return decodeFields(value, *out, "", error);
}

std::string
encodeHello()
{
    exp::JsonWriter writer;
    writer.beginObject();
    writer.member("padc", kHelloTag);
    writer.endObject();
    return writer.str();
}

std::string
encodeTask(const WireTask &task)
{
    exp::JsonWriter writer;
    writer.beginObject();
    writer.member("padc", kTaskTag);
    writer.member("kind", kindName(task.kind));
    writer.member("index", u64s(task.index));
    writer.member("attempt", u64s(task.attempt));
    encodeMember(writer, "point", task.point);
    if (task.kind == WireTask::Kind::Eval) {
        encodeMember(writer, "alone_config", task.alone_base);
        encodeMember(writer, "alone_options", task.alone_options);
    }
    writer.endObject();
    return writer.str();
}

std::string
encodeResult(const WireResult &result)
{
    exp::JsonWriter writer;
    writer.beginObject();
    writer.member("padc", kResultTag);
    writer.member("kind", kindName(result.kind));
    writer.member("index", u64s(result.index));
    if (result.kind == WireTask::Kind::Eval) {
        encodeOutcome(writer, result.eval.outcome);
        encodeFields(writer, result.eval.value); // metrics, summary
    } else {
        encodeOutcome(writer, result.run.outcome);
        encodeMember(writer, "metrics", result.run.value);
    }
    // Append-only extension (see WireWorkerReport): old supervisors
    // decode by member name and skip this object entirely.
    if (result.worker.present) {
        writer.beginObject("worker");
        writer.member("pid", u64s(result.worker.pid));
        writer.member("tasks", u64s(result.worker.tasks));
        writer.member("sim_cycles", u64s(result.worker.sim_cycles));
        writer.member("exec_seconds", result.worker.exec_seconds);
        writer.endObject();
    }
    writer.endObject();
    return writer.str();
}

namespace
{

bool
decodeKind(const exp::JsonValue &root, WireTask::Kind *kind,
           std::string *error)
{
    std::string text;
    if (!getString(root, "kind", &text, error))
        return false;
    if (text == "run")
        *kind = WireTask::Kind::Run;
    else if (text == "eval")
        *kind = WireTask::Kind::Eval;
    else
        return fail(error, "unknown task kind '" + text + "'");
    return true;
}

bool
parseTagged(const std::string &payload, const char *expected_tag,
            exp::JsonValue *root, std::string *error)
{
    if (!exp::parseJson(payload, root, error))
        return false;
    std::string tag;
    if (!getString(*root, "padc", &tag, error))
        return false;
    if (tag != expected_tag)
        return fail(error, "unexpected payload tag '" + tag + "'");
    return true;
}

} // namespace

bool
decodeTask(const std::string &payload, WireTask *out, std::string *error)
{
    exp::JsonValue root;
    if (!parseTagged(payload, kTaskTag, &root, error))
        return false;
    if (!decodeKind(root, &out->kind, error) ||
        !decodeMember(root, "index", out->index, "", error) ||
        !decodeMember(root, "attempt", out->attempt, "", error) ||
        !decodeMember(root, "point", out->point, "", error)) {
        return false;
    }
    return out->kind != WireTask::Kind::Eval ||
           (decodeMember(root, "alone_config", out->alone_base, "",
                         error) &&
            decodeMember(root, "alone_options", out->alone_options, "",
                         error));
}

bool
decodeResult(const std::string &payload, WireResult *out,
             std::string *error)
{
    exp::JsonValue root;
    if (!exp::parseJson(payload, &root, error))
        return false;
    std::string tag;
    if (!getString(root, "padc", &tag, error))
        return false;
    if (tag == kHelloTag) {
        out->hello = true;
        return true;
    }
    if (tag != kResultTag)
        return fail(error, "unexpected payload tag '" + tag + "'");
    out->hello = false;
    if (!decodeKind(root, &out->kind, error) ||
        !decodeMember(root, "index", out->index, "", error))
        return false;
    // Optional worker self-report: absent from old workers, and a
    // malformed one is dropped rather than failing the whole result
    // (it is advisory observability data, not the payload).
    out->worker = WireWorkerReport{};
    if (const exp::JsonValue *worker = root.find("worker");
        worker != nullptr && worker->isObject()) {
        WireWorkerReport report;
        std::string ignored;
        if (decodeMember(*worker, "pid", report.pid, "", &ignored) &&
            decodeMember(*worker, "tasks", report.tasks, "", &ignored) &&
            decodeMember(*worker, "sim_cycles", report.sim_cycles, "",
                         &ignored) &&
            decodeMember(*worker, "exec_seconds", report.exec_seconds,
                         "", &ignored)) {
            report.present = true;
            out->worker = report;
        }
    }
    if (out->kind == WireTask::Kind::Eval) {
        return decodeOutcome(root, &out->eval.outcome, error) &&
               decodeFields(root, out->eval.value, "", error);
    }
    return decodeOutcome(root, &out->run.outcome, error) &&
           decodeMember(root, "metrics", out->run.value, "", error);
}

// --- fault injection --------------------------------------------------

FaultSpec
parseFaultSpec(const char *text)
{
    FaultSpec spec;
    if (text == nullptr || *text == '\0')
        return spec;

    const auto warn = [&] {
        std::fprintf(stderr,
                     "padc: warning: invalid PADC_FAULT_INJECT=\"%s\" "
                     "(want crash:<every>, hang:<every>, "
                     "exit:<code>:<every>, or poison:<index>); faults "
                     "disabled\n",
                     text);
        return FaultSpec{};
    };

    const std::string value = text;
    const std::size_t colon = value.find(':');
    if (colon == std::string::npos)
        return warn();
    const std::string mode = value.substr(0, colon);
    const std::string rest = value.substr(colon + 1);

    std::uint64_t number = 0;
    if (mode == "crash" || mode == "hang") {
        if (!parseU64Strict(rest.c_str(), &number) || number == 0)
            return warn();
        spec.mode = mode == "crash" ? FaultSpec::Mode::Crash
                                    : FaultSpec::Mode::Hang;
        spec.every = number;
        return spec;
    }
    if (mode == "poison") {
        if (!parseU64Strict(rest.c_str(), &number))
            return warn();
        spec.mode = FaultSpec::Mode::Poison;
        spec.poison_index = number;
        return spec;
    }
    if (mode == "exit") {
        const std::size_t second = rest.find(':');
        if (second == std::string::npos)
            return warn();
        std::uint64_t code = 0;
        if (!parseU64Strict(rest.substr(0, second).c_str(), &code) ||
            code > 255 ||
            !parseU64Strict(rest.substr(second + 1).c_str(), &number) ||
            number == 0) {
            return warn();
        }
        spec.mode = FaultSpec::Mode::Exit;
        spec.exit_code = static_cast<int>(code);
        spec.every = number;
        return spec;
    }
    return warn();
}

FaultSpec
envFaultSpec()
{
    return parseFaultSpec(std::getenv("PADC_FAULT_INJECT"));
}

bool
faultFires(const FaultSpec &spec, std::uint64_t index,
           std::uint32_t attempt)
{
    switch (spec.mode) {
      case FaultSpec::Mode::None:
        return false;
      case FaultSpec::Mode::Crash:
      case FaultSpec::Mode::Hang:
      case FaultSpec::Mode::Exit:
        // Attempt 0 only: the retry always succeeds, keeping the merged
        // sweep bit-identical to a fault-free run.
        return attempt == 0 && (index + 1) % spec.every == 0;
      case FaultSpec::Mode::Poison:
        // Every attempt: this is the schedule that exercises quarantine.
        return index == spec.poison_index;
    }
    return false;
}

} // namespace padc::sim::wire
