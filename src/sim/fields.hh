/**
 * @file
 * The field table: every member of the structs that describe a sweep
 * point (SystemConfig and its sub-configs, RunOptions, SweepPoint) and
 * of the metrics a point produces (CoreMetrics, RunMetrics,
 * MultiCoreMetrics, MixEvaluation), each named once, in declaration
 * order.
 *
 * Every per-field encoding is derived from these tables instead of
 * listing the fields again:
 *  - sweepPointKey() hashes a point's fields in table order
 *    (journal.cc), so a knob in the table is a knob in the key;
 *  - the journal writes and reads metrics in table order (journal.cc);
 *  - the worker wire encodes and decodes points and metrics as JSON
 *    objects whose member names are the table names (wire.cc).
 *
 * Table order is the key's byte order and the journal's token order:
 * reordering a table changes every persisted key and journal line.
 *
 * Each table lists a struct's members with PADC_FIELD(member), which
 * takes the wire name from the member's own name.
 *
 * Each table is checked at compile time against its struct: the number
 * of entries (plus the `execution_only` members that stay outside the
 * key and the wire) must equal the struct's member count, measured as
 * its aggregate-initialisation arity. Adding a member to a tabled
 * struct without a table entry therefore breaks the build instead of
 * silently aliasing two configs onto one key. The check counts entries;
 * the golden keys and frames in tests/sim pin which members they are.
 */

#ifndef PADC_SIM_FIELDS_HH
#define PADC_SIM_FIELDS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/experiment.hh"

namespace padc::sim
{

/** One table entry: a data member and its name (also the wire key). */
template <typename S, typename M>
struct Field
{
    const char *name;
    M S::*member;

    template <typename T>
    constexpr auto &
    get(T &obj) const
    {
        return obj.*member;
    }
};

/**
 * How a visitor sees an array indexed by RequestClass: like a plain
 * array, except that the wire names its elements by class
 * ("demand-read", "prefetch", ...) rather than by index.
 */
template <typename A>
struct PerClass
{
    A &values;

    auto begin() const { return values.begin(); }
    auto end() const { return values.end(); }
};

/** Table entry of a RequestClass-indexed array member. */
template <typename S, typename M>
struct PerClassField
{
    const char *name;
    M S::*member;

    template <typename T>
    constexpr auto
    get(T &obj) const
    {
        return PerClass<std::remove_reference_t<decltype(obj.*member)>>{
            obj.*member};
    }
};

/** The field table of S; specialised below for every tabled struct. */
template <typename S>
struct FieldTable;

/** Types with a field table (visited member by member). */
template <typename T>
concept Tabled = requires { FieldTable<std::remove_const_t<T>>::fields; };

template <typename T>
inline constexpr bool kIsVector = false;
template <typename E, typename A>
inline constexpr bool kIsVector<std::vector<E, A>> = true;

template <typename T>
inline constexpr bool kIsArray = false;
template <typename E, std::size_t N>
inline constexpr bool kIsArray<std::array<E, N>> = true;

template <typename T>
inline constexpr bool kIsPerClass = false;
template <typename A>
inline constexpr bool kIsPerClass<PerClass<A>> = true;

/**
 * Whether the decoded integer @p v fits a field of type T: an unsigned
 * integer, an enum (its underlying integer) or a bool (0 or 1).
 */
template <typename T>
constexpr bool
fitsField(std::uint64_t v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return v <= 1;
    } else {
        using U = typename std::conditional_t<std::is_enum_v<T>,
                                              std::underlying_type<T>,
                                              std::type_identity<T>>::type;
        static_assert(std::is_unsigned_v<U>,
                      "tabled integer fields are unsigned");
        return v <= std::numeric_limits<U>::max();
    }
}

namespace detail
{

/** Converts to any member type, so S{AnyMember{}...} counts members. */
struct AnyMember
{
    template <typename U>
    operator U() const;
};

/** Number of members of aggregate S (its initialiser arity). */
template <typename S, typename... Init>
constexpr std::size_t
memberCount()
{
    if constexpr (requires { S{Init{}..., AnyMember{}}; })
        return memberCount<S, Init..., AnyMember>();
    else
        return sizeof...(Init);
}

/** Entries of Table, counting its execution_only members. */
template <typename Table>
constexpr std::size_t
tabledCount()
{
    std::size_t n = std::tuple_size_v<decltype(Table::fields)>;
    if constexpr (requires { Table::execution_only; })
        n += std::tuple_size_v<decltype(Table::execution_only)>;
    return n;
}

template <typename Visit, typename Member>
bool
visitOne(Visit &visit, const char *name, Member &&member)
{
    if constexpr (std::is_void_v<decltype(visit(
                      name, std::forward<Member>(member)))>) {
        visit(name, std::forward<Member>(member));
        return true;
    } else {
        return visit(name, std::forward<Member>(member));
    }
}

} // namespace detail

/**
 * Call visit(name, member) for every table entry of @p obj, in table
 * order; constness follows @p obj. Visitors take the member as
 * `auto &&` (a RequestClass-indexed array arrives as a PerClass view).
 * A visitor returning bool stops the walk at its first false.
 * @return false when the visitor stopped the walk.
 */
template <Tabled T, typename Visit>
bool
forEachField(T &obj, Visit &&visit)
{
    using S = std::remove_const_t<T>;
    using Table = FieldTable<S>;
    static_assert(detail::memberCount<S>() == detail::tabledCount<Table>(),
                  "a member of this struct has no FieldTable entry");
    return std::apply(
        [&](const auto &...field) {
            return (detail::visitOne(visit, field.name, field.get(obj)) &&
                    ...);
        },
        Table::fields);
}

#define PADC_FIELD(m) Field<Self, decltype(Self::m)>{#m, &Self::m}
#define PADC_PER_CLASS_FIELD(m)                                             \
    PerClassField<Self, decltype(Self::m)>{#m, &Self::m}
#define PADC_FIELD_TABLE(S, ...)                                            \
    template <>                                                             \
    struct FieldTable<S>                                                    \
    {                                                                       \
        using Self = S;                                                     \
        static constexpr auto fields = std::tuple{__VA_ARGS__};             \
    }

// --- the sweep point --------------------------------------------------

PADC_FIELD_TABLE(core::CoreConfig, PADC_FIELD(window_size),
                 PADC_FIELD(retire_width), PADC_FIELD(fetch_width),
                 PADC_FIELD(lsq_size), PADC_FIELD(mem_issue_width),
                 PADC_FIELD(runahead), PADC_FIELD(runahead_max_ops));

PADC_FIELD_TABLE(cache::CacheConfig, PADC_FIELD(size_bytes), PADC_FIELD(ways),
                 PADC_FIELD(hit_latency), PADC_FIELD(repl));

PADC_FIELD_TABLE(prefetch::PrefetcherConfig, PADC_FIELD(kind),
                 PADC_FIELD(stream_entries), PADC_FIELD(degree),
                 PADC_FIELD(distance), PADC_FIELD(train_window),
                 PADC_FIELD(stride_entries), PADC_FIELD(czone_shift),
                 PADC_FIELD(czone_entries), PADC_FIELD(delta_history),
                 PADC_FIELD(markov_entries), PADC_FIELD(markov_successors));

PADC_FIELD_TABLE(prefetch::DdpfConfig, PADC_FIELD(table_entries),
                 PADC_FIELD(threshold), PADC_FIELD(initial));

PADC_FIELD_TABLE(prefetch::FdpConfig, PADC_FIELD(interval),
                 PADC_FIELD(accuracy_high), PADC_FIELD(accuracy_low),
                 PADC_FIELD(lateness_threshold),
                 PADC_FIELD(pollution_threshold),
                 PADC_FIELD(pollution_filter_bits), PADC_FIELD(initial_level));

PADC_FIELD_TABLE(memctrl::AccuracyConfig, PADC_FIELD(interval),
                 PADC_FIELD(initial_accuracy), PADC_FIELD(min_samples));

PADC_FIELD_TABLE(memctrl::SchedulerConfig, PADC_FIELD(kind),
                 PADC_FIELD(apd_enabled), PADC_FIELD(urgency_enabled),
                 PADC_FIELD(ranking_enabled), PADC_FIELD(promotion_threshold),
                 PADC_FIELD(request_buffer_size),
                 PADC_FIELD(write_buffer_size), PADC_FIELD(write_drain_high),
                 PADC_FIELD(write_drain_low), PADC_FIELD(row_policy),
                 PADC_FIELD(reference_scheduler), PADC_FIELD(age_quantum),
                 PADC_FIELD(drop_thresholds), PADC_FIELD(drop_accuracy_bounds),
                 PADC_FIELD(accuracy));

PADC_FIELD_TABLE(dram::TimingParams, PADC_FIELD(cpu_per_dram_cycle),
                 PADC_FIELD(tRCD), PADC_FIELD(tRP), PADC_FIELD(tCL),
                 PADC_FIELD(tCWL), PADC_FIELD(tRAS), PADC_FIELD(tRC),
                 PADC_FIELD(tBURST), PADC_FIELD(tCCD), PADC_FIELD(tRRD),
                 PADC_FIELD(tFAW), PADC_FIELD(tWTR), PADC_FIELD(tWR),
                 PADC_FIELD(tRTP), PADC_FIELD(tREFI), PADC_FIELD(tRFC),
                 PADC_FIELD(refresh_enabled));

PADC_FIELD_TABLE(dram::Geometry, PADC_FIELD(channels),
                 PADC_FIELD(banks_per_channel), PADC_FIELD(row_bytes),
                 PADC_FIELD(interleave), PADC_FIELD(permutation_interleaving));

PADC_FIELD_TABLE(dram::DramConfig, PADC_FIELD(timing), PADC_FIELD(geometry));

template <>
struct FieldTable<SystemConfig>
{
    using Self = SystemConfig;
    static constexpr auto fields = std::tuple{
        PADC_FIELD(num_cores), PADC_FIELD(core), PADC_FIELD(l1),
        PADC_FIELD(l2), PADC_FIELD(shared_l2), PADC_FIELD(mshr_per_l2),
        PADC_FIELD(prefetch_enabled), PADC_FIELD(prefetcher),
        PADC_FIELD(ddpf_enabled), PADC_FIELD(ddpf),
        PADC_FIELD(fdp_enabled), PADC_FIELD(fdp), PADC_FIELD(sched),
        PADC_FIELD(dram)};

    /** Observers and execution details: outside the key and the wire. */
    static constexpr auto execution_only =
        std::tuple{&Self::collector, &Self::event_skip};
};

PADC_FIELD_TABLE(RunOptions, PADC_FIELD(instructions), PADC_FIELD(warmup),
                 PADC_FIELD(max_cycles), PADC_FIELD(mix_seed));

PADC_FIELD_TABLE(SweepPoint, PADC_FIELD(config), PADC_FIELD(mix),
                 PADC_FIELD(options));

// --- the metrics of a point -------------------------------------------

PADC_FIELD_TABLE(CoreMetrics, PADC_FIELD(ipc), PADC_FIELD(mpki),
                 PADC_FIELD(spl), PADC_FIELD(acc), PADC_FIELD(cov),
                 PADC_FIELD(rbh), PADC_FIELD(rbhu), PADC_FIELD(traffic_demand),
                 PADC_FIELD(traffic_pref_useful),
                 PADC_FIELD(traffic_pref_useless),
                 PADC_FIELD(traffic_writeback), PADC_FIELD(instructions),
                 PADC_FIELD(cycles));

PADC_FIELD_TABLE(RunMetrics, PADC_FIELD(cores),
                 PADC_PER_CLASS_FIELD(class_serviced));

PADC_FIELD_TABLE(MultiCoreMetrics, PADC_FIELD(speedups), PADC_FIELD(ws),
                 PADC_FIELD(hs), PADC_FIELD(uf));

PADC_FIELD_TABLE(MixEvaluation, PADC_FIELD(metrics), PADC_FIELD(summary));

#undef PADC_FIELD
#undef PADC_PER_CLASS_FIELD
#undef PADC_FIELD_TABLE

/**
 * Bound on the length of every tabled vector a decoder accepts: each
 * one is per core (RunMetrics::cores, MultiCoreMetrics::speedups,
 * SweepPoint::mix), so a longer one is corrupt input.
 */
inline constexpr std::size_t kMaxTabledVector = memctrl::kMaxCores;

} // namespace padc::sim

#endif // PADC_SIM_FIELDS_HH
