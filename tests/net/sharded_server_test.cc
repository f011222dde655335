/**
 * @file
 * Multi-shard front-end: N SO_REUSEPORT event loops over one
 * service. Checks the structural contract (all shards share one
 * port, connections land somewhere, per-connection ordering holds,
 * state is shared), the shutdown fan-out (SHUTDOWN on whichever
 * shard stops them all), aggregate accounting, and the {shard="i"}
 * metric labelling.
 */

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net_test_util.hh"
#include "net/sharded_server.hh"
#include "obs/metrics.hh"
#include "svc/wire.hh"
#include "util/logging.hh"

namespace ref::test {
namespace {

namespace wire = svc::wire;

TEST(ShardedServer, SingleShardDegeneratesToClassicServer)
{
    ShardedHarness harness(1);
    TestClient client(harness.port());
    client.sendAll("ADMIT solo 0.6 0.4\nSHUTDOWN\n");
    const std::string transcript = client.readToEof();
    EXPECT_NE(transcript.find("OK admitted solo"),
              std::string::npos);
    EXPECT_NE(transcript.find("OK shutdown"), std::string::npos);
    const net::ShardedStats &stats = harness.stop();
    ASSERT_EQ(stats.shards.size(), 1u);
    EXPECT_TRUE(stats.total.shutdown);
    EXPECT_EQ(stats.total.accepted, 1u);
}

TEST(ShardedServer, ClientsShareOneServiceAcrossShards)
{
    ShardedHarness harness(3);
    // Enough connections that SO_REUSEPORT scatters them; each
    // admits its own agent, then every client must see every agent.
    constexpr std::size_t kClients = 12;
    std::vector<std::unique_ptr<TestClient>> clients;
    for (std::size_t i = 0; i < kClients; ++i) {
        clients.push_back(
            std::make_unique<TestClient>(harness.port()));
        std::ostringstream admit;
        admit << "ADMIT agent" << i << " 0.6 0.4\n";
        clients.back()->sendAll(admit.str());
        const std::string reply = clients.back()->readLines(1);
        ASSERT_EQ(reply.rfind("OK admitted", 0), 0u) << reply;
    }
    // One tick folds every admit into the epoch snapshot all
    // clients query below.
    clients.front()->sendAll("TICK\n");
    ASSERT_EQ(clients.front()->readLines(1).rfind("EPOCH", 0), 0u);
    for (auto &client : clients) {
        client->sendAll("QUERY\n");
        const std::string snapshot =
            client->readLines(1 + kClients);
        EXPECT_EQ(countPrefixed(snapshot, "SHARE "), kClients);
    }
    clients.clear();
    const net::ShardedStats &stats = harness.stop();
    ASSERT_EQ(stats.shards.size(), 3u);
    EXPECT_EQ(stats.total.accepted, kClients);
    std::uint64_t sum = 0;
    for (const net::ServerStats &shard : stats.shards)
        sum += shard.accepted;
    EXPECT_EQ(sum, kClients);
}

TEST(ShardedServer, ShutdownOnAnyShardStopsAll)
{
    ShardedHarness harness(2);
    // Several open connections (scattered over both shards by the
    // kernel), one of which sends SHUTDOWN: every peer must see its
    // connection drain and close, and the run must end without
    // requestStop.
    std::vector<std::unique_ptr<TestClient>> idle;
    for (std::size_t i = 0; i < 6; ++i) {
        idle.push_back(std::make_unique<TestClient>(harness.port()));
        idle.back()->sendAll("STATS\n");
        ASSERT_FALSE(idle.back()->readLines(1).empty());
    }
    TestClient killer(harness.port());
    killer.sendAll("SHUTDOWN\n");
    EXPECT_NE(killer.readLines(1).find("OK shutdown"),
              std::string::npos);
    EXPECT_TRUE(killer.waitForClose());
    for (auto &client : idle)
        EXPECT_TRUE(client->waitForClose());
    const net::ShardedStats &stats = harness.stop();
    EXPECT_TRUE(stats.total.shutdown);
    EXPECT_EQ(stats.total.accepted, 7u);
}

TEST(ShardedServer, BinaryAndTextMixAcrossShards)
{
    ShardedHarness harness(2);
    TestClient binary(harness.port());
    ASSERT_TRUE(binary.negotiateBinary());
    TestClient text(harness.port());

    svc::Command admit;
    admit.op = svc::Command::Op::Admit;
    admit.name = "mixed";
    admit.elasticities = {0.5, 0.5};
    binary.sendFrame(wire::encodeCommand(admit));
    std::string payload;
    ASSERT_TRUE(binary.readFrameUnit(payload));
    EXPECT_EQ(wire::decodeReply(payload).status,
              wire::ReplyStatus::Ok);

    svc::Command tick;
    tick.op = svc::Command::Op::Tick;
    tick.tickCount = 1;
    binary.sendFrame(wire::encodeCommand(tick));
    ASSERT_TRUE(binary.readFrameUnit(payload));

    text.sendAll("QUERY mixed\n");
    EXPECT_EQ(text.readLines(1).rfind("SHARE mixed", 0), 0u);

    binary.close();
    text.close();
    const net::ShardedStats &stats = harness.stop();
    EXPECT_EQ(stats.total.binaryConnections, 1u);
    EXPECT_EQ(stats.total.frames, 2u);
}

TEST(ShardedServer, ShardsLabelTheirMetricSeries)
{
    {
        ShardedHarness harness(2);
        TestClient client(harness.port());
        client.sendAll("STATS\n");
        ASSERT_FALSE(client.readLines(1).empty());
    }
    std::ostringstream scrape;
    obs::MetricsRegistry::global().writePrometheus(scrape);
    const std::string text = scrape.str();
    // Per-shard series exist and share one HELP header with the
    // unlabeled (single-shard) series.
    EXPECT_NE(text.find("ref_net_accepted_total{shard=\"0\"}"),
              std::string::npos);
    EXPECT_NE(text.find("ref_net_accepted_total{shard=\"1\"}"),
              std::string::npos);
    const std::string help = "# HELP ref_net_accepted_total";
    const std::size_t first = text.find(help);
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find(help, first + 1), std::string::npos)
        << "HELP header duplicated for labeled series";
}

TEST(ShardedServer, MultiShardRequiresTcp)
{
    svc::AllocationService service(svc::ServiceConfig{});
    net::ServerOptions options;
    options.unixPath = "/tmp/ref_sharded_test.sock";
    net::ShardedServer server(service, options, 2);
    EXPECT_THROW(server.start(), FatalError);
}

} // namespace
} // namespace ref::test
