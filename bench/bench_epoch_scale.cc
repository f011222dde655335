/**
 * @file
 * Flat-epoch scale trail: EpochDriver::tick over a flat registry with
 * the SI/EF property checks on (the default), at growing populations.
 *
 *   bench_epoch_scale [--git-sha SHA] [--out BENCH_epoch_scale.json]
 *
 * Writes one BENCH record per size, N = 1k, 4k, 16k and 64k
 * (`epoch_tick_N<n>`: wall_ns is the median of 45 ticks), plus two
 * EF-check records at N = 1000 — the pairwise sweep
 * (`ef_pairwise_N1000`) and the certificate (`ef_certificate_N1000`),
 * wall_ns per call — so check_bench_regression.py can gate the
 * certificate's speedup. Every record carries nproc, build type and
 * git sha.
 *
 * Exits non-zero when the median tick grows more than 2.5x per
 * doubling of N (an O(N log N) epoch grows ~2x; the pairwise sweep
 * grew 4x), or when the certificate and the pairwise sweep disagree
 * on the reference population.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fairness.hh"
#include "svc/agent_registry.hh"
#include "svc/epoch_driver.hh"
#include "util/random.hh"

#ifndef REF_BUILD_TYPE
#define REF_BUILD_TYPE ""
#endif

namespace {

using namespace ref;
using Clock = std::chrono::steady_clock;

/** Largest allowed growth of the median tick per doubling of N. */
constexpr double kMaxGrowthPerDoubling = 2.5;
constexpr std::size_t kReferenceAgents = 1000;
constexpr std::size_t kSizes[] = {1000, 4000, 16000, 64000};
/** Timed ticks per size: enough that the median, and so the gated
 *  growth, moves little with a noisy host (~3 s in all at 64k). */
constexpr std::size_t kTicks = 45;

struct Options
{
    std::string gitSha = "unknown";
    std::string out;
};

struct Record
{
    std::string name;
    double wallNs;
    std::size_t iterations;
    std::size_t agents;
    double p99Ns;
};

double
percentile(std::vector<double> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[std::max<std::size_t>(rank, 1) - 1];
}

double
elapsedNs(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() -
                                                     start)
        .count();
}

svc::AgentRegistry
population(std::size_t n, Rng &rng)
{
    svc::AgentRegistry registry(
        core::SystemCapacity::fromCapacities({24.0, 12.0}));
    for (std::size_t i = 0; i < n; ++i)
        registry.admit("agent-" + std::to_string(i),
                       {rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)});
    return registry;
}

/** One flat population and its epoch driver. */
struct Population
{
    explicit Population(std::size_t n)
        : rng(n), registry(population(n, rng)), driver(registry)
    {
        driver.tick();  // Warm-up.
    }

    /** One UPDATE, so the epoch reallocates, then a timed tick. */
    double timedTick()
    {
        const std::size_t n = registry.size();
        registry.update("agent-" + std::to_string(rng.uniformInt(n)),
                        {rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)});
        const auto start = Clock::now();
        const svc::EpochResult result = driver.tick();
        const double ns = elapsedNs(start);
        if (!result.propertiesChecked ||
            !result.envyFreeness.satisfied ||
            !result.sharingIncentives.satisfied) {
            std::cerr << "FAIL: epoch at N=" << n
                      << " did not pass its checks\n";
            std::exit(1);
        }
        return ns;
    }

    Rng rng;
    svc::AgentRegistry registry;
    svc::EpochDriver driver;
};

/**
 * Median and p99 tick time per population size. The sizes take
 * turns tick by tick, so a change in host speed during the run moves
 * every size alike instead of skewing the growth between them.
 */
std::vector<Record>
tickRecords()
{
    constexpr std::size_t sizes = std::size(kSizes);
    std::vector<std::unique_ptr<Population>> populations;
    for (const std::size_t n : kSizes)
        populations.push_back(std::make_unique<Population>(n));
    std::vector<std::vector<double>> samples(sizes);
    for (std::size_t t = 0; t < kTicks; ++t)
        for (std::size_t k = 0; k < sizes; ++k)
            samples[k].push_back(populations[k]->timedTick());
    std::vector<Record> records;
    for (std::size_t k = 0; k < sizes; ++k)
        records.push_back(Record{"epoch_tick_N" + std::to_string(kSizes[k]),
                                 percentile(samples[k], 0.5), kTicks,
                                 kSizes[k], percentile(samples[k], 0.99)});
    return records;
}

/** Median time per call of one EF check over the reference
 *  population. */
template <typename Check>
Record
efRecord(const std::string &name, std::size_t calls, Check check)
{
    std::vector<double> samples;
    for (std::size_t c = 0; c < calls; ++c) {
        const auto start = Clock::now();
        check();
        samples.push_back(elapsedNs(start));
    }
    return Record{name, percentile(samples, 0.5), calls,
                  kReferenceAgents, percentile(samples, 0.99)};
}

std::vector<Record>
efRecords()
{
    Rng rng(kReferenceAgents);
    const svc::AgentRegistry registry =
        population(kReferenceAgents, rng);
    const core::AgentList agents = registry.agentList();
    const core::Allocation allocation = registry.allocate();

    const core::PropertyCheck pairwise =
        core::checkEnvyFreenessPairwise(agents, allocation);
    const core::PropertyCheck certificate =
        core::checkEnvyFreeness(agents, allocation);
    if (pairwise.satisfied != certificate.satisfied ||
        std::abs(pairwise.worstSlack - certificate.worstSlack) >
            1e-12) {
        std::cerr << "FAIL: certificate (" << certificate.worstSlack
                  << ") disagrees with the pairwise sweep ("
                  << pairwise.worstSlack << ")\n";
        std::exit(1);
    }
    return {efRecord("ef_pairwise_N1000", 5,
                     [&] {
                         core::checkEnvyFreenessPairwise(agents,
                                                         allocation);
                     }),
            efRecord("ef_certificate_N1000", 101, [&] {
                core::checkEnvyFreeness(agents, allocation);
            })};
}

std::string
toJson(const std::vector<Record> &records, const Options &options)
{
    const std::string buildType =
        *REF_BUILD_TYPE ? REF_BUILD_TYPE : "unspecified";
    std::ostringstream os;
    os.precision(12);
    os << "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        os << "  {\n"
           << "    \"name\": \"" << r.name << "\",\n"
           << "    \"wall_ns\": " << std::llround(r.wallNs) << ",\n"
           << "    \"iterations\": " << r.iterations << ",\n"
           << "    \"agents\": " << r.agents << ",\n"
           << "    \"p99_ns\": " << std::llround(r.p99Ns) << ",\n"
           << "    \"nproc\": " << std::thread::hardware_concurrency()
           << ",\n"
           << "    \"build_type\": \"" << buildType << "\",\n"
           << "    \"git_sha\": \"" << options.gitSha << "\"\n"
           << "  }" << (i + 1 < records.size() ? "," : "") << "\n";
    }
    os << "]\n";
    return os.str();
}

Options
parse(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::cerr << "usage: bench_epoch_scale [--git-sha SHA] "
                         "[--out FILE]\n";
            std::exit(2);
        }
        const std::string value = argv[++i];
        if (flag == "--git-sha") {
            options.gitSha = value;
        } else if (flag == "--out") {
            options.out = value;
        } else {
            std::cerr << "unknown flag " << flag << "\n";
            std::exit(2);
        }
    }
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parse(argc, argv);
    std::vector<Record> records = tickRecords();
    bool ok = true;
    for (std::size_t k = 0; k < records.size(); ++k) {
        const Record &now = records[k];
        std::cout << now.name << ": tick p50 " << now.wallNs / 1e6
                  << " ms, p99 " << now.p99Ns / 1e6 << " ms";
        if (k > 0) {
            const Record &before = records[k - 1];
            const double doublings =
                std::log2(static_cast<double>(now.agents) /
                          static_cast<double>(before.agents));
            const double growth =
                std::pow(now.wallNs / before.wallNs, 1.0 / doublings);
            std::cout << ", " << growth << "x per doubling";
            if (growth > kMaxGrowthPerDoubling) {
                std::cout << " [FAIL: above " << kMaxGrowthPerDoubling
                          << "x]";
                ok = false;
            }
        }
        std::cout << "\n";
    }
    for (const Record &record : efRecords()) {
        std::cout << record.name << ": " << record.wallNs / 1e6
                  << " ms per check\n";
        records.push_back(record);
    }

    const std::string json = toJson(records, options);
    if (options.out.empty()) {
        std::cout << json;
    } else if (!(std::ofstream(options.out) << json)) {
        std::cerr << "FAIL: cannot write " << options.out << "\n";
        return 1;
    }
    return ok ? 0 : 1;
}
