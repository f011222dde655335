/**
 * @file
 * End-to-end warm-standby tests: a real SocketServer primary with a
 * ReplicationHub, a real FollowerClient applying the shipped WAL
 * into a second AllocationService, all in one process on loopback.
 *
 * The invariant under test is the paper's bit-identity property:
 * because REF allocation is order-independent and exact, a follower
 * that replays the primary's WAL must reach the same state hash —
 * so these tests assert hash equality, not "roughly similar state".
 */

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../net/net_test_util.hh"
#include "repl/follower.hh"
#include "repl/replication_hub.hh"
#include "svc/allocation_service.hh"

namespace ref::repl {
namespace {

using test::ServerHarness;
using test::TestClient;

/** Poll @p predicate until true or the deadline; true on success. */
bool
waitFor(const std::function<bool()> &predicate, int timeoutMs = 5000)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    while (std::chrono::steady_clock::now() < deadline) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return predicate();
}

/** Primary harness with its hub wired into both layers. */
struct Primary
{
    explicit Primary(std::size_t ringCapacity = 8192)
        : hub(ringCapacity)
    {
        net::ServerOptions options;
        options.replicationHub = &hub;
        options.heartbeatIntervalMs = 50;
        harness =
            std::make_unique<ServerHarness>(svc::ServiceConfig{},
                                            options);
        harness->service().setReplicationSink(&hub);
    }

    ~Primary()
    {
        if (harness)
            harness->service().setReplicationSink(nullptr);
    }

    std::string address() const
    {
        return "127.0.0.1:" + std::to_string(harness->port());
    }

    ReplicationHub hub;
    std::unique_ptr<ServerHarness> harness;
};

/** Drive the primary over the text protocol like any client. */
void
runCommands(std::uint16_t port,
            const std::vector<std::string> &commands)
{
    TestClient client(port);
    for (const auto &command : commands) {
        client.sendAll(command + "\n");
        // TICK <n> answers one EPOCH line per epoch; everything
        // else used here answers a single OK line.
        std::size_t lines = 1;
        if (command.rfind("TICK ", 0) == 0)
            lines = std::stoul(command.substr(5));
        const std::string reply = client.readLines(lines);
        ASSERT_FALSE(reply.empty()) << "no reply to " << command;
        EXPECT_TRUE(reply.rfind("OK", 0) == 0 ||
                    reply.rfind("EPOCH", 0) == 0)
            << command << " -> " << reply;
    }
}

TEST(FollowerRepl, SyncAppliesAndMatchesPrimaryHash)
{
    Primary primary;
    svc::AllocationService standby;
    FollowerClient::Options options;
    options.address = primary.address();
    FollowerClient follower(standby, options);
    follower.start();

    runCommands(primary.harness->port(),
                {"ADMIT web 1.0 0.4", "ADMIT batch 0.2 0.7",
                 "TICK 3"});

    // 3 admits/ticks pipeline through the hub; the last shipped
    // record is the third TICK.
    ASSERT_TRUE(waitFor([&] {
        return follower.stats().lastAppliedSeq >=
               primary.hub.headSeq();
    })) << "follower lagged: applied "
        << follower.stats().lastAppliedSeq << " of "
        << primary.hub.headSeq();

    EXPECT_EQ(standby.stateHash(),
              primary.harness->service().stateHash());
    EXPECT_TRUE(follower.following());
    EXPECT_EQ(follower.stats().divergences, 0u);

    follower.stop();
}

TEST(FollowerRepl, LateJoinerBehindEvictedRingLoadsSnapshot)
{
    // Ring of 2: by the time the follower connects with cursor 0,
    // the tail has been evicted and the primary must answer the
    // SYNC with a full snapshot instead of records.
    Primary primary(2);
    runCommands(primary.harness->port(),
                {"ADMIT a 1 1", "ADMIT b 2 1", "ADMIT c 3 1",
                 "TICK 2"});

    svc::AllocationService standby;
    FollowerClient::Options options;
    options.address = primary.address();
    FollowerClient follower(standby, options);
    follower.start();

    ASSERT_TRUE(waitFor([&] {
        return follower.stats().lastAppliedSeq >=
               primary.hub.headSeq();
    }));
    EXPECT_GE(follower.stats().snapshotsLoaded, 1u);
    EXPECT_EQ(standby.stateHash(),
              primary.harness->service().stateHash());

    // The stream stays live after the snapshot: new primary records
    // keep flowing to the same session.
    runCommands(primary.harness->port(), {"TICK 1"});
    ASSERT_TRUE(waitFor([&] {
        return follower.stats().lastAppliedSeq >=
               primary.hub.headSeq();
    }));
    EXPECT_EQ(standby.stateHash(),
              primary.harness->service().stateHash());

    follower.stop();
}

TEST(FollowerRepl, DivergenceIsDetectedAndHealedBySnapshotResync)
{
    Primary primary;
    svc::AllocationService standby;
    FollowerClient::Options options;
    options.address = primary.address();
    FollowerClient follower(standby, options);
    follower.start();

    runCommands(primary.harness->port(),
                {"ADMIT web 1.0 0.4", "TICK 1"});
    ASSERT_TRUE(waitFor([&] {
        return follower.stats().lastAppliedSeq >=
               primary.hub.headSeq();
    }));

    // Corrupt the standby out-of-band: an agent the primary never
    // shipped. The next shipped TICK's state hash cannot match, so
    // the follower must flag a divergence and resync — never drift.
    standby.admit("phantom", {0.5, 0.5});
    runCommands(primary.harness->port(), {"TICK 1"});

    ASSERT_TRUE(waitFor([&] {
        return follower.stats().divergences >= 1;
    })) << "divergence went undetected";
    ASSERT_TRUE(waitFor([&] {
        return follower.stats().lastAppliedSeq >=
                   primary.hub.headSeq() &&
               standby.stateHash() ==
                   primary.harness->service().stateHash();
    })) << "resync did not converge";
    EXPECT_GE(follower.stats().snapshotsLoaded, 1u);

    follower.stop();
}

TEST(FollowerRepl, PromoteStopsFollowingAndOpensWrites)
{
    Primary primary;
    svc::AllocationService standby;
    FollowerClient::Options options;
    options.address = primary.address();
    FollowerClient follower(standby, options);
    follower.start();

    runCommands(primary.harness->port(),
                {"ADMIT web 1.0 0.4", "TICK 1"});
    ASSERT_TRUE(waitFor([&] {
        return follower.stats().lastAppliedSeq >=
               primary.hub.headSeq();
    }));

    std::string message;
    EXPECT_TRUE(follower.promote(message));
    EXPECT_NE(message.find("serving"), std::string::npos)
        << message;
    EXPECT_FALSE(follower.following());

    // Second promote is a no-op refusal, not a crash.
    std::string again;
    EXPECT_FALSE(follower.promote(again));

    // The promoted standby accepts mutations on its own timeline
    // while retaining the replicated history (snapshots publish on
    // ticks, so tick once to see the admit).
    standby.admit("newcomer", {1.0, 1.0});
    standby.tick();
    EXPECT_EQ(standby.snapshot()->agents.size(), 2u);

    // Records shipped after the flip must not land: the primary
    // ticks, the promoted standby's epoch stays its own.
    const auto epochBefore = standby.snapshot()->epoch;
    runCommands(primary.harness->port(), {"TICK 5"});
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(standby.snapshot()->epoch, epochBefore);

    follower.stop();
}

TEST(FollowerRepl, AutoPromoteFiresOnPrimarySilence)
{
    svc::AllocationService standby;
    FollowerClient::Options options;
    options.promoteTimeoutMs = 300;
    options.reconnectDelayMs = 20;

    {
        Primary primary;
        options.address = primary.address();
        runCommands(primary.harness->port(),
                    {"ADMIT web 1.0 0.4", "TICK 1"});

        FollowerClient follower(standby, options);
        follower.start();
        ASSERT_TRUE(waitFor([&] {
            return follower.stats().lastAppliedSeq >=
                   primary.hub.headSeq();
        }));

        // Primary dies (harness teardown closes the listener and
        // every connection); the follower must flip on its own.
        primary.harness->stop();
        ASSERT_TRUE(waitFor(
            [&] { return !follower.following(); }, 5000))
            << "auto-promote never fired";
        EXPECT_EQ(standby.snapshot()->agents.size(), 1u);
        follower.stop();
    }
}

TEST(FollowerRepl, IdlePrimaryKeepsItsFollowerFollowing)
{
    // A healthy primary with no traffic still heartbeats (every
    // 50 ms here), so a follower with a 300 ms promote timeout must
    // not mistake quiet for death.
    Primary primary;
    svc::AllocationService standby;
    FollowerClient::Options options;
    options.address = primary.address();
    options.promoteTimeoutMs = 300;
    FollowerClient follower(standby, options);
    follower.start();
    ASSERT_TRUE(waitFor([&] {
        return follower.stats().snapshotsLoaded >= 1;
    })) << "follower never synced";

    std::this_thread::sleep_for(std::chrono::milliseconds(1200));
    EXPECT_TRUE(follower.following())
        << "an idle primary's follower promoted itself";
    EXPECT_EQ(follower.stats().reconnects, 0u);
    follower.stop();
}

TEST(FollowerRepl, FollowerChainsAsSecondHopReplica)
{
    // primary -> middle (follower that also runs a hub and server)
    // -> leaf. Chaining works because applyShipped re-journals and
    // re-ships through the middle service's own sink.
    Primary primary;

    ReplicationHub middleHub;
    net::ServerOptions middleOptions;
    middleOptions.replicationHub = &middleHub;
    middleOptions.heartbeatIntervalMs = 50;
    ServerHarness middle(svc::ServiceConfig{}, middleOptions);
    middle.service().setReplicationSink(&middleHub);

    FollowerClient::Options middleFollowOptions;
    middleFollowOptions.address = primary.address();
    FollowerClient middleFollower(middle.service(),
                                  middleFollowOptions);
    middleFollower.start();

    svc::AllocationService leaf;
    FollowerClient::Options leafOptions;
    leafOptions.address =
        "127.0.0.1:" + std::to_string(middle.port());
    FollowerClient leafFollower(leaf, leafOptions);
    leafFollower.start();

    // The commands must reach the middle as shipped records, so that
    // it re-ships them. A middle that first syncs after they ran
    // gets them in its snapshot, and its own hub never moves.
    ASSERT_TRUE(waitFor([&] {
        return middleFollower.stats().snapshotsLoaded >= 1;
    })) << "middle never synced from the primary";

    runCommands(primary.harness->port(),
                {"ADMIT web 1.0 0.4", "ADMIT batch 0.2 0.7",
                 "TICK 4"});

    ASSERT_TRUE(waitFor([&] {
        return middleFollower.stats().lastAppliedSeq >=
                   primary.hub.headSeq() &&
               leafFollower.stats().lastAppliedSeq >=
                   middleHub.headSeq() &&
               middleHub.headSeq() > 0;
    })) << "chain stalled: primary head "
        << primary.hub.headSeq() << ", middle applied "
        << middleFollower.stats().lastAppliedSeq
        << ", leaf applied "
        << leafFollower.stats().lastAppliedSeq;

    const auto primaryHash = primary.harness->service().stateHash();
    EXPECT_EQ(middle.service().stateHash(), primaryHash);
    EXPECT_EQ(leaf.stateHash(), primaryHash);

    leafFollower.stop();
    middleFollower.stop();
    middle.service().setReplicationSink(nullptr);
}

TEST(FollowerRepl, RecordsFromEveryShardReachTheFollowerPromptly)
{
    // Two shards share one hub; the follower subscribes on one of
    // them. A record accepted on the other shard is appended off the
    // follower's loop, so only the hub's wake gets it shipped before
    // that loop's one-second poll timeout: heartbeats are off, so
    // nothing else would wake it.
    ReplicationHub hub;
    net::ServerOptions options;
    options.replicationHub = &hub;
    options.heartbeatIntervalMs = 0;
    test::ShardedHarness primary(2, options);
    primary.service().setReplicationSink(&hub);

    svc::AllocationService standby;
    FollowerClient::Options followOptions;
    followOptions.address =
        "127.0.0.1:" + std::to_string(primary.port());
    FollowerClient follower(standby, followOptions);
    follower.start();
    ASSERT_TRUE(waitFor([&] {
        return follower.stats().snapshotsLoaded >= 1;
    })) << "follower never synced";

    // SO_REUSEPORT spreads these connections over both shards.
    constexpr int kClients = 16;
    std::chrono::steady_clock::duration slowest{};
    for (int i = 0; i < kClients; ++i) {
        TestClient client(primary.port());
        client.sendAll("ADMIT c" + std::to_string(i) + " 0.5 0.5\n");
        ASSERT_EQ(client.readLines(1).rfind("OK admitted", 0), 0u);
        const auto sent = std::chrono::steady_clock::now();
        ASSERT_TRUE(waitFor([&] {
            return follower.stats().lastAppliedSeq >= hub.headSeq();
        })) << "record " << i << " never reached the follower";
        slowest = std::max(slowest,
                           std::chrono::steady_clock::now() - sent);
    }
    EXPECT_LT(slowest, std::chrono::milliseconds(400));
    EXPECT_EQ(standby.stateHash(), primary.service().stateHash());

    follower.stop();
    const net::ShardedStats &stats = primary.stop();
    primary.service().setReplicationSink(nullptr);

    // The timing check bites only if the other shard took clients.
    ASSERT_EQ(stats.shards.size(), 2u);
    const bool onShard0 = stats.shards[0].replicas == 1;
    const net::ServerStats &followed = stats.shards[onShard0 ? 0 : 1];
    const net::ServerStats &other = stats.shards[onShard0 ? 1 : 0];
    EXPECT_EQ(followed.replicas, 1u);
    EXPECT_GT(other.lines, 0u);
    EXPECT_GE(followed.wakeWrites, 1u);
}

TEST(FollowerRepl, OffLoopAppendStormNeverStrandsAWake)
{
    // Writers on their own threads append records while the loop
    // drains its self-pipe, so wakes land on every side of the
    // drain. Heartbeats are off and the poll timeout is one second:
    // if one wake were lost with the flag left set, no later wake
    // would write again, and the loop would sleep out the second.
    // Each round times the storm's catch-up and then one record
    // appended to an idle loop, which only the self-pipe can
    // deliver; the stop must be prompt too.
    ReplicationHub hub;
    net::ServerOptions options;
    options.replicationHub = &hub;
    options.heartbeatIntervalMs = 0;
    ServerHarness primary(svc::ServiceConfig{}, options);
    primary.service().setReplicationSink(&hub);

    svc::AllocationService standby;
    FollowerClient::Options followOptions;
    followOptions.address =
        "127.0.0.1:" + std::to_string(primary.port());
    FollowerClient follower(standby, followOptions);
    follower.start();
    ASSERT_TRUE(waitFor([&] {
        return follower.stats().snapshotsLoaded >= 1;
    })) << "follower never synced";

    constexpr int kRounds = 40;
    constexpr int kWriters = 4;
    constexpr int kPairsPerWriter = 50;
    std::chrono::steady_clock::duration slowest{};
    for (int round = 0; round < kRounds; ++round) {
        std::vector<std::thread> writers;
        for (int w = 0; w < kWriters; ++w) {
            writers.emplace_back([&, w] {
                const std::string name = "w" + std::to_string(w);
                for (int i = 0; i < kPairsPerWriter; ++i) {
                    primary.service().admit(name, {0.5, 0.5});
                    primary.service().depart(name);
                }
            });
        }
        for (auto &writer : writers)
            writer.join();
        auto appended = std::chrono::steady_clock::now();
        ASSERT_TRUE(waitFor([&] {
            return follower.stats().lastAppliedSeq >= hub.headSeq();
        })) << "round " << round << " never reached the follower";
        slowest = std::max(slowest,
                           std::chrono::steady_clock::now() - appended);

        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        primary.service().admit("last", {0.5, 0.5});
        appended = std::chrono::steady_clock::now();
        const std::uint64_t head = hub.headSeq();
        ASSERT_TRUE(waitFor([&] {
            return follower.stats().lastAppliedSeq >= head;
        })) << "round " << round << "'s last record never arrived";
        slowest = std::max(slowest,
                           std::chrono::steady_clock::now() - appended);
        primary.service().depart("last");
    }
    EXPECT_LT(slowest, std::chrono::milliseconds(400));
    EXPECT_EQ(hub.headSeq(),
              static_cast<std::uint64_t>(kRounds *
                                         (kWriters * kPairsPerWriter + 1) *
                                         2));
    ASSERT_TRUE(waitFor([&] {
        return follower.stats().lastAppliedSeq >= hub.headSeq();
    }));
    EXPECT_EQ(standby.stateHash(), primary.service().stateHash());

    follower.stop();
    const auto stopAsked = std::chrono::steady_clock::now();
    const net::ServerStats &stats = primary.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - stopAsked,
              std::chrono::milliseconds(400))
        << "the stop request's wake was lost";
    primary.service().setReplicationSink(nullptr);
    EXPECT_GE(stats.wakeWrites, 1u);
}

} // namespace
} // namespace ref::repl
