#include "sharded_server.hh"

#include <string>
#include <thread>

#include "util/logging.hh"

namespace ref::net {

ShardedServer::ShardedServer(svc::AllocationService &service,
                             ServerOptions options,
                             std::size_t shardCount)
    : service_(service), options_(std::move(options)),
      requestedShards_(shardCount)
{
    REF_REQUIRE(shardCount >= 1, "shard count must be at least 1");
}

void
ShardedServer::start()
{
    REF_REQUIRE(shards_.empty(), "start() called twice");

    if (requestedShards_ == 1) {
        // Degenerate to the classic single server: unlabeled metric
        // series, no SO_REUSEPORT, Unix listener as configured.
        shards_.push_back(
            std::make_unique<SocketServer>(service_, options_));
        shards_.back()->start();
        return;
    }

    REF_REQUIRE(!options_.listenAddress.empty(),
                "multi-shard serving needs a TCP --listen address");

    // Shard 0 binds the configured address (port 0 allowed) and
    // thereby picks the concrete port the rest must join.
    ServerOptions first = options_;
    first.reusePort = true;
    first.shardIndex = 0;
    first.shardCount = requestedShards_;
    shards_.push_back(
        std::make_unique<SocketServer>(service_, first));
    shards_.back()->start();

    const std::string &spec = options_.listenAddress;
    const std::string host = spec.substr(0, spec.rfind(':'));
    const std::string joined =
        host + ":" + std::to_string(shards_.front()->tcpPort());
    for (std::size_t i = 1; i < requestedShards_; ++i) {
        ServerOptions opts = options_;
        opts.reusePort = true;
        opts.shardIndex = i;
        opts.shardCount = requestedShards_;
        opts.listenAddress = joined;
        opts.unixPath.clear();  // Unix listener lives on shard 0.
        shards_.push_back(
            std::make_unique<SocketServer>(service_, opts));
        shards_.back()->start();
    }
}

std::uint16_t
ShardedServer::tcpPort() const
{
    REF_REQUIRE(!shards_.empty(), "tcpPort() before start()");
    return shards_.front()->tcpPort();
}

void
ShardedServer::requestStop()
{
    for (auto &shard : shards_)
        shard->requestStop();
}

ShardedStats
ShardedServer::run()
{
    REF_REQUIRE(!shards_.empty(), "run() before start()");

    ShardedStats stats;
    stats.shards.resize(shards_.size());

    std::vector<std::thread> threads;
    threads.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        threads.emplace_back([this, i, &stats] {
            stats.shards[i] = shards_[i]->run();
            // First shard out (SHUTDOWN command, stop flag) stops
            // the rest; their self-pipes wake idle polls promptly.
            requestStop();
        });
    }
    for (auto &thread : threads)
        thread.join();
    // Joins above give us happens-before on every shard's stats.

    for (const ServerStats &shard : stats.shards) {
        ServerStats &total = stats.total;
        total.accepted += shard.accepted;
        total.dropped += shard.dropped;
        total.idleTimeouts += shard.idleTimeouts;
        total.writeTimeouts += shard.writeTimeouts;
        total.overflowDrops += shard.overflowDrops;
        total.acceptRejects += shard.acceptRejects;
        total.ioErrors += shard.ioErrors;
        total.bytesIn += shard.bytesIn;
        total.bytesOut += shard.bytesOut;
        total.lines += shard.lines;
        total.overlongLines += shard.overlongLines;
        total.frames += shard.frames;
        total.badFrames += shard.badFrames;
        total.binaryConnections += shard.binaryConnections;
        total.replicas += shard.replicas;
        total.wakeWrites += shard.wakeWrites;
        total.protocol.commands += shard.protocol.commands;
        total.protocol.errors += shard.protocol.errors;
        total.protocol.epochFailures += shard.protocol.epochFailures;
        total.protocol.shutdown |= shard.protocol.shutdown;
        total.shutdown |= shard.shutdown;
    }
    return stats;
}

} // namespace ref::net
