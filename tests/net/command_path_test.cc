/**
 * @file
 * The per-command path of the socket front-end: every reply a loop
 * formats goes through one reused reply stream, and the replication
 * hub wakes a loop through a coalesced self-pipe.
 *
 * Reply reuse must be invisible: after a long reply (a METRICS prom
 * scrape, a whole-snapshot QUERY) the next reply carries none of its
 * bytes, and a rejected command leaves nothing behind that spoils
 * the reply after it — on text lines and binary frames alike. Each
 * deterministic reply is checked byte for byte against a stdio
 * session over the same state.
 *
 * Wake coalescing: a record the loop appends itself is pumped at
 * the end of that pass, so a burst of on-loop writes costs no
 * self-pipe write at all.
 */

#include <sstream>
#include <string>

#include "net_test_util.hh"
#include "repl/replication_hub.hh"
#include "svc/protocol.hh"
#include "svc/wire.hh"

namespace ref::test {
namespace {

namespace wire = svc::wire;

constexpr std::size_t kAgents = 300;

/** ADMIT kAgents agents, then one TICK to publish them. */
std::string
populateScript()
{
    std::string script;
    for (std::size_t i = 0; i < kAgents; ++i)
        script += "ADMIT a" + std::to_string(i) + " 0." +
                  std::to_string(1 + i % 9) + " 0." +
                  std::to_string(1 + (i / 9) % 9) + "\n";
    return script + "TICK\n";
}

/** The reply a stdio session gives @p command after the populate
 *  script: the byte-exact oracle for the socket replies. */
std::string
stdioReply(const std::string &command)
{
    svc::AllocationService service;
    std::istringstream setup(populateScript());
    std::ostringstream ignored;
    svc::runSession(service, setup, ignored);
    std::istringstream in(command + "\n");
    std::ostringstream out;
    svc::runSession(service, in, out);
    return out.str();
}

/** True when @p text looks like one whole Prometheus exposition and
 *  nothing else: every line a comment or a "series value" sample. */
bool
isExposition(const std::string &text)
{
    if (text.empty() || text.back() != '\n' ||
        text.find("# TYPE") == std::string::npos)
        return false;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line.rfind("OK", 0) == 0 ||
            line.rfind("ERR", 0) == 0 ||
            line.rfind("SHARE", 0) == 0 ||
            line.rfind("SNAPSHOT", 0) == 0)
            return false;
        if (line[0] != '#' && line.find(' ') == std::string::npos)
            return false;
    }
    return true;
}

TEST(CommandPath, TextRepliesAreByteExactAfterLongOnes)
{
    net::ServerOptions options;
    options.maxLineBytes = 256;
    ServerHarness harness({}, options);
    TestClient client(harness.port());
    client.sendAll(populateScript());
    ASSERT_FALSE(client.readLines(kAgents + 1).empty());

    // A text reply has no length, so the scrape is read up to the
    // first line of the reply after it.
    client.sendAll("METRICS prom\nQUERY a0\n");
    const std::string shareA0 = stdioReply("QUERY a0");
    std::string scrape;
    for (std::string line = client.readLines(1);
         line != shareA0; line = client.readLines(1)) {
        ASSERT_FALSE(line.empty()) << "scrape never ended";
        scrape += line;
    }
    EXPECT_TRUE(isExposition(scrape)) << scrape;

    client.sendAll("QUERY\n");
    EXPECT_EQ(client.readLines(kAgents + 1), stdioReply("QUERY"));
    client.sendAll("QUERY a1\n");
    EXPECT_EQ(client.readLines(1), stdioReply("QUERY a1"));
    client.sendAll("DEPART nobody\n");
    const std::string rejected = client.readLines(1);
    EXPECT_EQ(rejected, stdioReply("DEPART nobody"));
    EXPECT_EQ(rejected.rfind("ERR ", 0), 0u) << rejected;
    client.sendAll("QUERY a1\n");
    EXPECT_EQ(client.readLines(1), stdioReply("QUERY a1"));

    // The transport's own rejection rides the same reused stream.
    client.sendAll(std::string(300, 'x') + "\nQUERY a2\n");
    EXPECT_EQ(client.readLines(1), "ERR line exceeds 256 byte bound\n");
    EXPECT_EQ(client.readLines(1), stdioReply("QUERY a2"));
}

/** One binary request and its decoded reply. */
wire::Reply
roundTrip(TestClient &client, const std::string &line)
{
    const std::vector<std::string_view> tokens =
        svc::tokenizeLine(line);
    svc::Command command;
    if (tokens[0] == "METRICS") {
        command.op = svc::Command::Op::Metrics;
        command.metricsFormat = std::string(tokens[1]);
    } else if (tokens[0] == "QUERY") {
        command.op = svc::Command::Op::Query;
        command.hasName = tokens.size() == 2;
        if (command.hasName)
            command.name = std::string(tokens[1]);
    } else {
        command.op = svc::Command::Op::Depart;
        command.name = std::string(tokens[1]);
    }
    client.sendFrame(wire::encodeCommand(command));
    std::string payload;
    EXPECT_TRUE(client.readFrameUnit(payload)) << "no reply to " << line;
    return wire::decodeReply(payload);
}

TEST(CommandPath, BinaryRepliesAreByteExactAfterLongOnes)
{
    ServerHarness harness;
    {
        TestClient setup(harness.port());
        setup.sendAll(populateScript());
        ASSERT_FALSE(setup.readLines(kAgents + 1).empty());
    }
    TestClient client(harness.port());
    ASSERT_TRUE(client.negotiateBinary());

    const wire::Reply scrape = roundTrip(client, "METRICS prom");
    EXPECT_EQ(scrape.status, wire::ReplyStatus::Ok);
    EXPECT_TRUE(isExposition(scrape.text)) << scrape.text;

    const wire::Reply snapshot = roundTrip(client, "QUERY");
    EXPECT_EQ(snapshot.status, wire::ReplyStatus::Ok);
    EXPECT_EQ(snapshot.text, stdioReply("QUERY"));

    const wire::Reply shortReply = roundTrip(client, "QUERY a1");
    EXPECT_EQ(shortReply.status, wire::ReplyStatus::Ok);
    EXPECT_EQ(shortReply.text, stdioReply("QUERY a1"));

    const wire::Reply rejected = roundTrip(client, "DEPART nobody");
    EXPECT_EQ(rejected.status, wire::ReplyStatus::Err);
    EXPECT_EQ(rejected.text, stdioReply("DEPART nobody"));

    const wire::Reply after = roundTrip(client, "QUERY a1");
    EXPECT_EQ(after.status, wire::ReplyStatus::Ok);
    EXPECT_EQ(after.text, stdioReply("QUERY a1"));
}

TEST(CommandPath, OnLoopRecordBurstWritesNoWakeByte)
{
    repl::ReplicationHub hub;
    net::ServerOptions options;
    options.replicationHub = &hub;
    ServerHarness harness({}, options);
    harness.service().setReplicationSink(&hub);

    // Every ADMIT below is journaled on the loop's own thread, and
    // the hub fires the loop's wake callback for each of them.
    constexpr std::size_t kBurst = 2000;
    std::string burst;
    for (std::size_t i = 0; i < kBurst; ++i)
        burst += "ADMIT b" + std::to_string(i) + " 0.5 0.5\n";
    TestClient client(harness.port());
    client.sendAll(burst);
    const std::string replies = client.readLines(kBurst);
    EXPECT_EQ(countPrefixed(replies, "OK admitted"), kBurst);
    EXPECT_EQ(hub.headSeq(), kBurst);

    client.sendAll("METRICS prom\n");
    std::string scrape;
    for (std::string line = client.readLines(1);
         !line.empty() && scrape.find("ref_net_wake_writes_total ") ==
                              std::string::npos;
         line = client.readLines(1, 500))
        scrape += line;
    EXPECT_NE(scrape.find("ref_net_wake_writes_total "),
              std::string::npos);

    client.close();
    const net::ServerStats &stats = harness.stop();
    harness.service().setReplicationSink(nullptr);
    // The only self-pipe write is the stop request's.
    EXPECT_LE(stats.wakeWrites, 1u);
}

} // namespace
} // namespace ref::test
