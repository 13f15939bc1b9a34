#include "sim/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/fnv.hh"
#include "sim/fields.hh"

namespace padc::sim
{

namespace
{

// --- hashing ----------------------------------------------------------

/** FNV-1a over typed tokens; the canonical sweep-point fingerprint. */
class KeyHash
{
  public:
    void
    u64(std::uint64_t v)
    {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<unsigned char>(v >> (8 * i));
        hash_ = fnv1a(bytes, sizeof(bytes), hash_);
    }

    void
    d(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        hash_ = fnv1a(s.data(), s.size(), hash_);
    }

    std::uint64_t
    digest() const
    {
        return hash_;
    }

  private:
    std::uint64_t hash_ = kFnvOffset;
};

// --- payload serialization --------------------------------------------
//
// One journal line is: "padcj2 <kind> <key> <body...>\n", where every
// token is space-separated, integers are lowercase hex, doubles are the
// hex of their IEEE-754 bit pattern (bit-exact round trip), and the
// outcome detail string is hex-encoded bytes ("-" when empty). The body
// is the outcome followed by the metrics, flattened in field-table
// order (see flatten()).

class TokenWriter
{
  public:
    void
    u64(std::uint64_t v)
    {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%llx",
                      static_cast<unsigned long long>(v));
        append(buf);
    }

    void
    d(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        if (s.empty()) {
            append("-");
            return;
        }
        std::string hex;
        hex.reserve(s.size() * 2);
        static const char digits[] = "0123456789abcdef";
        for (const char c : s) {
            const auto b = static_cast<unsigned char>(c);
            hex.push_back(digits[b >> 4]);
            hex.push_back(digits[b & 0xf]);
        }
        append(hex.c_str());
    }

    const std::string &
    out() const
    {
        return body_;
    }

  private:
    void
    append(const char *token)
    {
        if (!body_.empty())
            body_.push_back(' ');
        body_ += token;
    }

    std::string body_;
};

class TokenReader
{
  public:
    explicit TokenReader(const std::string &body) : in_(body) {}

    bool
    u64(std::uint64_t *v)
    {
        std::string token;
        if (!(in_ >> token))
            return false;
        char *end = nullptr;
        *v = std::strtoull(token.c_str(), &end, 16);
        return end != token.c_str() && *end == '\0';
    }

    bool
    d(double *v)
    {
        std::uint64_t bits = 0;
        if (!u64(&bits))
            return false;
        std::memcpy(v, &bits, sizeof(*v));
        return true;
    }

    bool
    str(std::string *s)
    {
        std::string token;
        if (!(in_ >> token))
            return false;
        s->clear();
        if (token == "-")
            return true;
        if (token.size() % 2 != 0)
            return false;
        for (std::size_t i = 0; i < token.size(); i += 2) {
            int hi = hexVal(token[i]);
            int lo = hexVal(token[i + 1]);
            if (hi < 0 || lo < 0)
                return false;
            s->push_back(static_cast<char>((hi << 4) | lo));
        }
        return true;
    }

    bool
    done()
    {
        std::string token;
        return !(in_ >> token);
    }

  private:
    static int
    hexVal(char c)
    {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        return -1;
    }

    std::istringstream in_;
};

void
writeOutcome(TokenWriter &w, const PointOutcome &outcome)
{
    w.u64(static_cast<std::uint64_t>(outcome.status));
    w.str(outcome.detail);
}

bool
readOutcome(TokenReader &r, PointOutcome *outcome)
{
    std::uint64_t status = 0;
    if (!r.u64(&status) || status > 2)
        return false;
    outcome->status = static_cast<PointStatus>(status);
    return r.str(&outcome->detail);
}

/**
 * Emit @p value to @p out token by token, in field-table order: bools,
 * enums and integers as u64, doubles as their bit pattern, strings and
 * vectors after their length, fixed arrays and tabled structs element
 * by element. sweepPointKey() hashes this stream; the journal writes it.
 */
template <typename Out, typename T>
void
flatten(Out &out, const T &value)
{
    if constexpr (Tabled<T>) {
        forEachField(value, [&](const char *, const auto &field) {
            flatten(out, field);
        });
    } else if constexpr (std::is_same_v<T, double>) {
        out.d(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
        out.str(value);
    } else if constexpr (kIsVector<T>) {
        out.u64(value.size());
        for (const auto &element : value)
            flatten(out, element);
    } else if constexpr (kIsArray<T> || kIsPerClass<T>) {
        for (const auto &element : value)
            flatten(out, element);
    } else {
        out.u64(static_cast<std::uint64_t>(value));
    }
}

/** Read back what flatten() wrote; false on any malformed token. */
template <typename T>
bool
unflatten(TokenReader &in, T &value)
{
    if constexpr (Tabled<T>) {
        return forEachField(value, [&](const char *, auto &&field) {
            return unflatten(in, field);
        });
    } else if constexpr (std::is_same_v<T, double>) {
        return in.d(&value);
    } else if constexpr (std::is_same_v<T, std::string>) {
        return in.str(&value);
    } else if constexpr (kIsVector<T>) {
        std::uint64_t n = 0;
        if (!in.u64(&n) || n > kMaxTabledVector)
            return false;
        value.clear();
        value.resize(n);
        for (auto &element : value) {
            if (!unflatten(in, element))
                return false;
        }
        return true;
    } else if constexpr (kIsArray<T> || kIsPerClass<T>) {
        for (auto &element : value) {
            if (!unflatten(in, element))
                return false;
        }
        return true;
    } else {
        std::uint64_t v = 0;
        if (!in.u64(&v) || !fitsField<T>(v))
            return false;
        value = static_cast<T>(v);
        return true;
    }
}

template <typename T>
std::string
serialize(const Result<T> &result)
{
    TokenWriter w;
    writeOutcome(w, result.outcome);
    flatten(w, result.value);
    return w.out();
}

template <typename T>
bool
deserialize(const std::string &body, Result<T> *result)
{
    TokenReader r(body);
    return readOutcome(r, &result->outcome) &&
           unflatten(r, result->value) && r.done();
}

constexpr char kLineTag[] = "padcj2";

} // namespace

std::uint64_t
sweepPointKey(const SweepPoint &point)
{
    KeyHash h;
    flatten(h, point);
    return h.digest();
}

SweepJournal::SweepJournal(std::string path) : path_(std::move(path))
{
    // Load whatever a previous (possibly killed) run managed to append.
    bool torn_tail = false; // file ends without '\n' (killed mid-write)
    if (std::FILE *in = std::fopen(path_.c_str(), "rb")) {
        std::string line;
        int c = 0;
        bool complete = false;
        auto consume = [&] {
            // A line missing its terminating '\n' is an append the
            // previous process died inside; drop it.
            if (!complete || line.empty())
                return;
            std::istringstream tokens(line);
            std::string tag, kind, key_hex;
            if (!(tokens >> tag >> kind >> key_hex) || tag != kLineTag ||
                kind.size() != 1) {
                return;
            }
            char *end = nullptr;
            const std::uint64_t key =
                std::strtoull(key_hex.c_str(), &end, 16);
            if (end == key_hex.c_str() || *end != '\0')
                return;
            std::string body;
            std::getline(tokens, body);
            // Validate the payload now so a corrupt line surfaces as a
            // miss at load time, not a broken result mid-sweep.
            bool valid = false;
            if (kind[0] == 'e') {
                Result<MixEvaluation> probe;
                valid = deserialize(body, &probe);
            } else if (kind[0] == 'r') {
                Result<RunMetrics> probe;
                valid = deserialize(body, &probe);
            }
            if (!valid)
                return;
            entries_[{kind[0], key}] = body;
            ++loaded_;
        };
        while ((c = std::fgetc(in)) != EOF) {
            if (c == '\n') {
                complete = true;
                consume();
                line.clear();
                complete = false;
            } else {
                line.push_back(static_cast<char>(c));
            }
        }
        consume(); // trailing line without '\n': dropped by `complete`
        torn_tail = !line.empty();
        std::fclose(in);
    }

    // O_APPEND + one write(2) per record is what makes concurrent
    // writers (other threads, other processes) line-atomic.
    append_fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (append_fd_ < 0)
        throw std::runtime_error("SweepJournal: cannot open '" + path_ +
                                 "' for appending");

    // Terminate a torn tail now; otherwise the next record would merge
    // into the partial line and BOTH would be unparseable on reload.
    if (torn_tail) {
        const char nl = '\n';
        while (::write(append_fd_, &nl, 1) < 0 && errno == EINTR) {
        }
    }

    const char *fsync_env = std::getenv("PADC_JOURNAL_FSYNC");
    fsync_each_ = fsync_env != nullptr &&
                  (std::strcmp(fsync_env, "1") == 0 ||
                   std::strcmp(fsync_env, "always") == 0);
}

SweepJournal::~SweepJournal()
{
    if (append_fd_ >= 0)
        ::close(append_fd_);
}

std::size_t
SweepJournal::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

bool
SweepJournal::lookupLine(char kind, std::uint64_t key, std::string *line)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find({kind, key});
    if (it == entries_.end())
        return false;
    *line = it->second;
    ++hits_;
    return true;
}

void
SweepJournal::recordLine(char kind, std::uint64_t key,
                         const std::string &body)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!entries_.emplace(EntryKey{kind, key}, body).second)
        return; // already recorded (e.g. duplicate point in one sweep)

    char head[32];
    std::snprintf(head, sizeof(head), "%s %c %llx ", kLineTag, kind,
                  static_cast<unsigned long long>(key));
    std::string line = head;
    line += body;
    line += '\n';

    // The whole line in one write(2): with O_APPEND this is atomic with
    // respect to other writers of the same file, and a kill mid-write
    // can only tear THIS line (which the loader then drops).
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n =
            ::write(append_fd_, line.data() + off, line.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // journal is best-effort; the sweep must go on
        }
        off += static_cast<std::size_t>(n);
    }
    if (fsync_each_)
        ::fsync(append_fd_);
}

bool
SweepJournal::containsEval(std::uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.find({'e', key}) != entries_.end();
}

bool
SweepJournal::lookup(std::uint64_t key, Result<MixEvaluation> *out)
{
    std::string body;
    return lookupLine('e', key, &body) && deserialize(body, out);
}

bool
SweepJournal::lookup(std::uint64_t key, Result<RunMetrics> *out)
{
    std::string body;
    return lookupLine('r', key, &body) && deserialize(body, out);
}

void
SweepJournal::record(std::uint64_t key, const Result<MixEvaluation> &result)
{
    recordLine('e', key, serialize(result));
}

void
SweepJournal::record(std::uint64_t key, const Result<RunMetrics> &result)
{
    recordLine('r', key, serialize(result));
}

} // namespace padc::sim
