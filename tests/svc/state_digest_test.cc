/**
 * @file
 * The incremental state digest behind stateHash(): after every
 * mutation, tick, snapshot adoption and journal restart it must equal
 * the from-scratch digest of the captured state (digestOf), and that
 * digest must move when any one covered field moves.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "svc/allocation_service.hh"
#include "svc/protocol.hh"
#include "svc/snapshot.hh"
#include "util/digest.hh"

namespace {

using namespace ref;
using svc::AllocationService;
using svc::ServiceConfig;
using svc::ServiceState;

/** The from-scratch digest of @p service's full state, folded. */
std::uint32_t
oracleHash(const AllocationService &service)
{
    std::uint64_t atSeq = 0;
    return svc::foldDigest(svc::digestOf(svc::decodeServiceState(
        service.captureReplicationSnapshot(atSeq))));
}

/** The state_hash= value a STATS command prints, then @p after. */
std::string
statsHash(AllocationService &service, const std::string &after = "")
{
    std::istringstream in("STATS\n" + after);
    std::ostringstream out;
    svc::runSession(service, in, out);
    const std::string text = out.str();
    const std::size_t at = text.find("state_hash=");
    EXPECT_NE(at, std::string::npos) << text;
    return text.substr(at, text.find('\n', at) - at);
}

ServiceConfig
config(bool pooled, const std::string &journal = "")
{
    ServiceConfig config;
    config.pooled = pooled;
    config.buildEnforcement = !pooled;
    config.epoch.verifyIncremental = true;
    config.journal.directory = journal;
    return config;
}

/**
 * Seeded churn: admit, update, depart and tick in both modes, pool
 * create and assign in pooled mode. Checks incremental == scratch
 * after every operation; a tick also runs the --selfcheck compare.
 */
void
churn(AllocationService &service, std::uint32_t seed, int ops,
      std::vector<std::string> &live, int &nextId)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> elasticity(0.05, 1.0);
    std::vector<std::string> pools = {"/"};
    for (int op = 0; op < ops; ++op) {
        const std::uint32_t roll = rng() % 12;
        if (roll < 4 || live.size() < 2) {
            const std::string name = "a" + std::to_string(nextId++);
            service.admit(name, {elasticity(rng), elasticity(rng)});
            live.push_back(name);
        } else if (roll < 6) {
            service.update(live[rng() % live.size()],
                           {elasticity(rng), elasticity(rng)});
        } else if (roll < 8) {
            const std::size_t victim = rng() % live.size();
            service.depart(live[victim]);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(victim));
        } else if (roll < 10) {
            const svc::EpochResult result = service.tick();
            ASSERT_TRUE(result.incrementalMatchesScratch)
                << "epoch " << result.epoch;
        } else if (service.pooled() && roll == 10) {
            const std::string parent = pools[rng() % pools.size()];
            const std::string path =
                parent == "/" ? "p" + std::to_string(op)
                              : parent + "/q" + std::to_string(op);
            if (std::count(path.begin(), path.end(), '/') < 3) {
                service.createPool(path, 1.0);
                pools.push_back(path);
            }
        } else if (service.pooled()) {
            service.assignPool(live[rng() % live.size()],
                               pools[rng() % pools.size()]);
        }
        ASSERT_EQ(service.stateHash(), oracleHash(service))
            << "op " << op << " roll " << roll;
    }
}

class StateDigestTest : public testing::TestWithParam<bool>
{
  protected:
    void SetUp() override
    {
        dir_ = testing::TempDir() + "ref_state_digest_test_" +
               std::to_string(GetParam()) + "_" +
               testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        std::filesystem::remove_all(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string dir_;
};

TEST_P(StateDigestTest, ChurnKeepsIncrementalEqualToFromScratch)
{
    AllocationService service(config(GetParam()));
    std::vector<std::string> live;
    int nextId = 0;
    churn(service, 7, 400, live, nextId);
    EXPECT_EQ(service.metrics().selfCheckFailures, 0u);
}

TEST_P(StateDigestTest, AdoptedStateDigestsLikeItsSource)
{
    AllocationService source(config(GetParam()));
    std::vector<std::string> live;
    int nextId = 0;
    churn(source, 13, 150, live, nextId);

    AllocationService replica(config(GetParam()));
    std::uint64_t atSeq = 0;
    replica.adoptState(svc::decodeServiceState(
        source.captureReplicationSnapshot(atSeq)));
    EXPECT_EQ(replica.stateHash(), source.stateHash());
    EXPECT_EQ(replica.stateHash(), oracleHash(replica));

    // The adopted registry/tree keeps the digest current from here.
    churn(replica, 17, 100, live, nextId);
}

TEST_P(StateDigestTest, JournalRestartReportsTheSameStateHash)
{
    std::vector<std::string> live;
    int nextId = 0;
    std::string before;
    {
        AllocationService service(config(GetParam(), dir_));
        churn(service, 29, 200, live, nextId);
        before = statsHash(service, "SHUTDOWN\n");
    }
    AllocationService recovered(config(GetParam(), dir_));
    EXPECT_EQ(statsHash(recovered), before);
    EXPECT_EQ(recovered.stateHash(), oracleHash(recovered));
    churn(recovered, 31, 100, live, nextId);
}

INSTANTIATE_TEST_SUITE_P(Modes, StateDigestTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool> &info) {
                             return info.param ? "Pooled" : "Flat";
                         });

/** A small state with every section populated. */
ServiceState
populatedState()
{
    ServiceState state;
    state.generation = 4;
    state.capacities = {24.0, 12.0};
    state.agents = {{"a", {0.6, 0.4}, 0, "/"},
                    {"b", {0.2, 0.8}, 1, "p"},
                    {"c", {0.5, 0.5}, 2, "p"}};
    state.churnEvents = 9;
    state.epoch = 3;
    state.lastEnforcedEpoch = 2;
    state.enforcedNames = {"a", "b"};
    state.enforced = core::Allocation(2, 2);
    state.enforced.at(0, 0) = 18.0;
    state.enforced.at(1, 1) = 6.0;
    state.publishedEpoch = 3;
    state.publishedAgents = {"a", "b", "c"};
    state.publishedAllocation = core::Allocation(3, 2);
    state.publishedAllocation.at(2, 1) = 4.0;
    state.propertiesChecked = true;
    state.sharingIncentives = {true, 0.25, "a"};
    state.envyFreeness = {true, 0.125, "b envies a"};
    state.pooled = true;
    state.pools = {{"/", 1.0, 0}, {"p", 2.0, 1}};
    return state;
}

TEST(StateDigest, EveryCoveredFieldMovesTheHash)
{
    const ServiceState base = populatedState();
    const std::uint32_t baseHash = svc::foldDigest(svc::digestOf(base));

    ServiceState sameButGeneration = base;
    sameButGeneration.generation = 99;
    EXPECT_EQ(svc::foldDigest(svc::digestOf(sameButGeneration)),
              baseHash)
        << "generations are process-local and must not count";

    const std::vector<
        std::pair<const char *, std::function<void(ServiceState &)>>>
        edits = {
            {"one elasticity bit",
             [](ServiceState &s) {
                 std::uint64_t bits;
                 std::memcpy(&bits, &s.agents[1].elasticities[0], 8);
                 bits ^= 1;
                 std::memcpy(&s.agents[1].elasticities[0], &bits, 8);
             }},
            {"admittedEpoch",
             [](ServiceState &s) { s.agents[2].admittedEpoch = 7; }},
            {"pool", [](ServiceState &s) { s.agents[0].pool = "p"; }},
            {"order of two agents",
             [](ServiceState &s) {
                 std::swap(s.agents[0], s.agents[1]);
             }},
            {"churnEvents", [](ServiceState &s) { ++s.churnEvents; }},
            {"epoch", [](ServiceState &s) { ++s.epoch; }},
            {"lastEnforcedEpoch",
             [](ServiceState &s) { ++s.lastEnforcedEpoch; }},
            {"published cell",
             [](ServiceState &s) {
                 s.publishedAllocation.at(0, 1) = -0.0;
             }},
            {"enforced cell",
             [](ServiceState &s) { s.enforced.at(1, 0) = 1e-300; }},
            {"a check's binding",
             [](ServiceState &s) {
                 s.envyFreeness.binding = "c envies a";
             }},
            {"capacity",
             [](ServiceState &s) { s.capacities[1] = 16.0; }},
            {"pool weight",
             [](ServiceState &s) { s.pools[1].weight = 3.0; }},
            {"an agent departed",
             [](ServiceState &s) { s.agents.pop_back(); }},
        };
    for (const auto &[what, edit] : edits) {
        ServiceState changed = base;
        edit(changed);
        EXPECT_NE(svc::foldDigest(svc::digestOf(changed)), baseHash)
            << what;
    }
}

TEST(StateDigest, DefinitionIsPinned)
{
    // Primary and followers compare these values across machines:
    // any change to the hash definition shows up here first.
    EXPECT_EQ(agentDigestTerm("a", {0.6, 0.4}, 0, "/"),
              0x28124a78bec38eb7ull);
    const std::string head = "a";
    EXPECT_EQ(orderDigestTerm(&head, "b"), 0xfe13d3d5d92ca034ull);
    EXPECT_EQ(orderDigestTerm(nullptr, "a"), 0x958bc62f02e1014eull);
    EXPECT_EQ(svc::digestOf(populatedState()), 0x4035350c01db2713ull);
}

/** Keeps the last tick's shipped hash. */
class LastTickSink : public svc::ReplicationSink
{
  public:
    void onRecord(const std::string &, bool isTick, std::uint64_t,
                  std::uint32_t stateHash) override
    {
        ++records;
        if (isTick)
            tickHash = stateHash;
    }
    std::uint64_t headSeq() const override { return records; }

    std::uint64_t records = 0;
    std::uint32_t tickHash = 0;
};

TEST(StateDigest, ReplicatedTickIsTimedInMetrics)
{
    AllocationService service(config(false));
    LastTickSink sink;
    service.setReplicationSink(&sink);
    service.admit("a", {0.6, 0.4});
    service.tick();
    EXPECT_EQ(sink.tickHash, service.stateHash());

    // One hash for the shipped TICK, one for the stateHash() above.
    std::ostringstream metrics;
    service.writeMetrics(metrics, svc::MetricsFormat::Prometheus);
    EXPECT_NE(metrics.str().find("ref_svc_state_hash_ns_count 2\n"),
              std::string::npos)
        << metrics.str();
    service.setReplicationSink(nullptr);
}

} // namespace
