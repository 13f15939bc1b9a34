/**
 * @file
 * padc_sim: the full command-line face of the library. Configure the
 * CMP, DRAM, prefetcher, and policy from flags, run any workload mix,
 * and get the paper's metrics plus a complete raw statistics dump.
 *
 * Usage:
 *   padc_sim [options] [profile ...]
 *
 * Options:
 *   --policy P        no-pref | demand-first | demand-pref-equal |
 *                     prefetch-first | aps | padc | padc-rank
 *                     (default padc)
 *   --prefetcher P    stream | stride | cdc | markov | none
 *   --instructions N  per-core retire target (default 200000)
 *   --warmup N        per-core warm-up instructions (default N/4)
 *   --channels N      memory controllers (default 1)
 *   --row-kb N        DRAM row-buffer size in KB (default 4)
 *   --l2-kb N         per-core L2 size in KB (default paper baseline)
 *   --shared-l2       one shared L2 instead of private ones
 *   --closed-row      closed-row buffer management
 *   --runahead        enable runahead execution
 *   --ddpf / --fdp    enable the Section 6.12 mechanisms
 *   --seed N          workload seed salt (default 0)
 *   --stats           dump the full raw statistics set
 *   --record FILE N   capture N trace ops of the first profile to FILE
 *                     (PADCTRC2 format) and exit
 *   --replay FILE     drive core 0 from a recorded trace file (either
 *                     format) instead of its profile generator
 *   --list            list available workload profiles and exit
 *
 * Profiles default to the paper's mixed case study when omitted; the
 * core count equals the number of profiles (max 16).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "trace/format.hh"
#include "trace/stream.hh"
#include "workload/mixes.hh"
#include "workload/profile.hh"

namespace
{

using namespace padc;

struct Options
{
    std::string policy = "padc";
    std::string prefetcher = "stream";
    std::uint64_t instructions = 200000;
    std::uint64_t warmup = 0;
    bool warmup_set = false;
    std::uint32_t channels = 1;
    std::uint32_t row_kb = 4;
    std::uint64_t l2_kb = 0;
    bool shared_l2 = false;
    bool closed_row = false;
    bool runahead = false;
    bool ddpf = false;
    bool fdp = false;
    std::uint64_t seed = 0;
    bool dump_stats = false;
    std::string record_path;
    std::uint64_t record_ops = 0;
    std::string replay_path;
    workload::Mix mix;
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options] [profile ...]\n"
                 "run '%s --list' for profile names; see the file "
                 "comment for options\n",
                 argv0, argv0);
    return 2;
}

bool
parse(int argc, char **argv, Options *opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--policy") {
            opt->policy = next("--policy");
        } else if (arg == "--prefetcher") {
            opt->prefetcher = next("--prefetcher");
        } else if (arg == "--instructions") {
            opt->instructions = std::strtoull(next(arg.c_str()), nullptr, 10);
        } else if (arg == "--warmup") {
            opt->warmup = std::strtoull(next(arg.c_str()), nullptr, 10);
            opt->warmup_set = true;
        } else if (arg == "--channels") {
            opt->channels = static_cast<std::uint32_t>(
                std::strtoul(next(arg.c_str()), nullptr, 10));
        } else if (arg == "--row-kb") {
            opt->row_kb = static_cast<std::uint32_t>(
                std::strtoul(next(arg.c_str()), nullptr, 10));
        } else if (arg == "--l2-kb") {
            opt->l2_kb = std::strtoull(next(arg.c_str()), nullptr, 10);
        } else if (arg == "--shared-l2") {
            opt->shared_l2 = true;
        } else if (arg == "--closed-row") {
            opt->closed_row = true;
        } else if (arg == "--runahead") {
            opt->runahead = true;
        } else if (arg == "--ddpf") {
            opt->ddpf = true;
        } else if (arg == "--fdp") {
            opt->fdp = true;
        } else if (arg == "--seed") {
            opt->seed = std::strtoull(next(arg.c_str()), nullptr, 10);
        } else if (arg == "--stats") {
            opt->dump_stats = true;
        } else if (arg == "--record") {
            opt->record_path = next("--record");
            opt->record_ops =
                std::strtoull(next("--record"), nullptr, 10);
        } else if (arg == "--replay") {
            opt->replay_path = next("--replay");
        } else if (arg == "--list") {
            for (const auto &profile : workload::allProfiles()) {
                std::printf("%-16s class %d\n", profile.name.c_str(),
                            profile.cls);
            }
            std::exit(0);
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return false;
        } else {
            if (workload::findProfile(arg) == nullptr) {
                std::fprintf(stderr,
                             "unknown profile '%s' (try --list)\n",
                             arg.c_str());
                return false;
            }
            opt->mix.push_back(arg);
        }
    }
    if (opt->mix.empty())
        opt->mix = workload::caseStudyMixed();
    if (opt->mix.size() > 16) {
        std::fprintf(stderr, "at most 16 profiles\n");
        return false;
    }
    if (!opt->warmup_set)
        opt->warmup = opt->instructions / 4;
    return true;
}

sim::PolicySetup
policyOf(const std::string &name)
{
    if (name == "no-pref")
        return sim::PolicySetup::NoPref;
    if (name == "demand-first")
        return sim::PolicySetup::DemandFirst;
    if (name == "demand-pref-equal" || name == "frfcfs")
        return sim::PolicySetup::DemandPrefEqual;
    if (name == "prefetch-first")
        return sim::PolicySetup::PrefetchFirst;
    if (name == "aps")
        return sim::PolicySetup::ApsOnly;
    if (name == "padc-rank")
        return sim::PolicySetup::PadcRank;
    if (name == "padc")
        return sim::PolicySetup::Padc;
    std::fprintf(stderr, "unknown policy '%s'\n", name.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, &opt))
        return usage(argv[0]);

    const auto cores = static_cast<std::uint32_t>(opt.mix.size());
    sim::SystemConfig cfg = sim::applyPolicy(
        sim::SystemConfig::baseline(cores), policyOf(opt.policy));

    PrefetcherKind kind{};
    if (!parsePrefetcher(opt.prefetcher, &kind)) {
        std::fprintf(stderr, "unknown prefetcher '%s'\n",
                     opt.prefetcher.c_str());
        return 2;
    }
    cfg.prefetcher.kind = kind;
    if (kind == PrefetcherKind::None)
        cfg.prefetch_enabled = false;

    cfg.dram.geometry.channels = opt.channels;
    cfg.dram.geometry.row_bytes = opt.row_kb * 1024;
    if (opt.l2_kb != 0)
        cfg.l2.size_bytes = opt.l2_kb * 1024;
    if (opt.shared_l2) {
        cfg.shared_l2 = true;
        cfg.l2.size_bytes *= cores;
        cfg.l2.ways *= std::max(1u, cores / 2);
        cfg.mshr_per_l2 = cfg.sched.request_buffer_size;
    }
    if (opt.closed_row)
        cfg.sched.row_policy = RowPolicy::Closed;
    cfg.core.runahead = opt.runahead;
    cfg.ddpf_enabled = opt.ddpf;
    cfg.fdp_enabled = opt.fdp;

    if (!cfg.dram.geometry.valid() || !cfg.l1.valid() || !cfg.l2.valid()) {
        std::fprintf(stderr, "invalid configuration (sizes must be "
                             "powers of two)\n");
        return 2;
    }

    sim::RunOptions run;
    run.instructions = opt.instructions;
    run.warmup = opt.warmup;
    run.mix_seed = opt.seed;

    if (!opt.record_path.empty()) {
        workload::SyntheticTrace generator(
            workload::traceParamsFor(opt.mix, 0, run.mix_seed));
        trace::TraceWriter writer(opt.record_path);
        for (std::uint64_t i = 0; i < opt.record_ops; ++i)
            writer.append(generator.next());
        std::string error;
        if (!writer.close(&error)) {
            std::fprintf(stderr, "cannot write %s: %s\n",
                         opt.record_path.c_str(), error.c_str());
            return 1;
        }
        std::printf("recorded %llu ops of %s to %s\n",
                    static_cast<unsigned long long>(writer.opCount()),
                    opt.mix[0].c_str(), opt.record_path.c_str());
        return 0;
    }

    // Build traces and run through the public System API so --stats can
    // inspect the live system afterwards.
    std::unique_ptr<trace::StreamingFileTrace> replay;
    if (!opt.replay_path.empty()) {
        replay = std::make_unique<trace::StreamingFileTrace>(
            opt.replay_path);
        if (!replay->ok()) {
            std::fprintf(stderr, "cannot load trace %s: %s\n",
                         opt.replay_path.c_str(),
                         replay->error().c_str());
            return 1;
        }
    }
    std::vector<std::unique_ptr<workload::SyntheticTrace>> traces;
    std::vector<core::TraceSource *> sources;
    for (std::uint32_t c = 0; c < cores; ++c) {
        if (c == 0 && replay != nullptr) {
            sources.push_back(replay.get());
            continue;
        }
        traces.push_back(std::make_unique<workload::SyntheticTrace>(
            workload::traceParamsFor(opt.mix, c, run.mix_seed)));
        sources.push_back(traces.back().get());
    }
    sim::System system(cfg, std::move(sources));
    system.run(run.instructions, run.max_cycles, run.warmup);
    const sim::RunMetrics metrics = sim::collectMetrics(system);

    std::printf("padc_sim: %u cores, policy %s, prefetcher %s, "
                "%u channel(s), %uKB rows\n",
                cores, opt.policy.c_str(), opt.prefetcher.c_str(),
                opt.channels, opt.row_kb);
    std::printf("%-6s %-16s %8s %8s %8s %6s %6s %6s %6s\n", "core",
                "profile", "IPC", "MPKI", "SPL", "ACC", "COV", "RBH",
                "RBHU");
    for (std::uint32_t c = 0; c < cores; ++c) {
        const auto &m = metrics.cores[c];
        std::printf("%-6u %-16s %8.3f %8.2f %8.1f %6.2f %6.2f %6.2f "
                    "%6.2f\n",
                    c, opt.mix[c].c_str(), m.ipc, m.mpki, m.spl, m.acc,
                    m.cov, m.rbh, m.rbhu);
    }
    std::printf("\nbus traffic (lines): demand %llu, useful prefetch "
                "%llu, useless prefetch %llu, writeback %llu, total "
                "%llu\n",
                static_cast<unsigned long long>(metrics.trafficDemand()),
                static_cast<unsigned long long>(
                    metrics.trafficPrefUseful()),
                static_cast<unsigned long long>(
                    metrics.trafficPrefUseless()),
                static_cast<unsigned long long>(
                    metrics.trafficWriteback()),
                static_cast<unsigned long long>(metrics.totalTraffic()));

    if (opt.dump_stats) {
        std::printf("\n-- raw statistics --\n%s",
                    system.exportStats().toString().c_str());
    }
    return 0;
}
