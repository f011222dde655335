/**
 * @file
 * In-process replay of a workload's command stream through the public
 * functions of each layer, with a span around every call.
 *
 * The replay drives one AllocationService as the socket front-end
 * does: binary commands go through wire decode, protocol execution and
 * reply encoding, text commands through CommandSession::executeLine.
 * The transport runs the group-commit barrier once per flush pass
 * before it replies; the replay models that as one barrier per batch
 * of commands (one per connection), to time a single barrier. How
 * often the server really fsyncs is read from its STATS in the socket
 * run, not from this cadence. A timed
 * ReplicationSink wraps the replication hub that ref_serve attaches.
 * The program's own spans (cmd.*, epoch.tick, journal.*,
 * snapshot.write) are collected from obs::Tracer and nest under these
 * by time.
 *
 * The epoch's phases have no spans inside the program, so on every
 * Nth TICK the replay calls the same public functions on the same
 * inputs right after the tick ("shadow" spans, parented to the TICK's
 * op span): allocation, SI and EF checks, enforcement plan, state
 * hash and fairness-series appends. A shadow registry or pool tree
 * mirrors the population for this, and its allocation is compared bit
 * for bit with the published snapshot.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench.hh"
#include "core/fairness.hh"
#include "obs/fairness_series.hh"
#include "obs/trace.hh"
#include "pool/pool_tree.hh"
#include "repl/replication_hub.hh"
#include "svc/agent_registry.hh"
#include "svc/enforcement_bridge.hh"
#include "svc/wire.hh"
#include "util/logging.hh"
#include "util/record_io.hh"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace svc = ref::svc;
namespace wire = ref::svc::wire;

/** Shadow calls run on every Nth TICK, to keep the replay short. */
constexpr std::size_t kShadowEvery = 4;

/** One span; parent -1 means "nest by time within the request". */
struct SpanRecord
{
    const char *name;
    const char *category;
    std::uint64_t startNs;
    std::uint64_t durationNs;
    std::int64_t id;
    std::int64_t parent;
    std::uint64_t request;
};

/** In-memory span store; the clock is the program tracer's. */
class Spans
{
  public:
    bool on = false;
    std::vector<SpanRecord> records;
    std::uint64_t request = 0;

    std::uint64_t now() const
    {
        return on ? ref::obs::Tracer::global().nowNs() : nowNs();
    }
    std::int64_t nextId() { return nextId_++; }

  private:
    std::int64_t nextId_ = 0;
};

class Scoped
{
  public:
    Scoped(Spans &spans, const char *name, const char *category,
           std::int64_t parent = -1)
        : spans_(spans), name_(name), category_(category),
          parent_(parent), id_(spans.on ? spans.nextId() : -1),
          start_(spans.on ? spans.now() : 0)
    {}
    ~Scoped()
    {
        if (spans_.on)
            spans_.records.push_back({name_, category_, start_,
                                      spans_.now() - start_, id_,
                                      parent_, spans_.request});
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    std::int64_t id() const { return id_; }

  private:
    Spans &spans_;
    const char *name_;
    const char *category_;
    std::int64_t parent_;
    std::int64_t id_;
    std::uint64_t start_;
};

/** The hub ref_serve attaches in socket mode, with a span per call. */
class TimedSink final : public svc::ReplicationSink
{
  public:
    explicit TimedSink(Spans &spans) : spans_(spans) {}
    void onRecord(const std::string &payload, bool isTick,
                  std::uint64_t epoch, std::uint32_t stateHash) override
    {
        Scoped span(spans_, "repl.on_record", "repl");
        hub_.onRecord(payload, isTick, epoch, stateHash);
    }
    std::uint64_t headSeq() const override { return hub_.headSeq(); }
    void onStateAdopted() override { hub_.onStateAdopted(); }

  private:
    Spans &spans_;
    ref::repl::ReplicationHub hub_;
};

/** ServiceConfig as ref_serve builds it from the same flags. */
svc::ServiceConfig
configFrom(const std::vector<std::string> &argv, const std::string &workdir)
{
    svc::ServiceConfig config;
    std::string capacity = "24,12";
    for (std::size_t i = 1; i < argv.size(); ++i) {
        const std::string &arg = argv[i];
        const auto value = [&]() -> const std::string & {
            REF_REQUIRE(i + 1 < argv.size(), "missing value for " << arg);
            return argv[++i];
        };
        if (arg == "--capacity") {
            capacity = value();
        } else if (arg == "--pooled") {
            config.pooled = true;
        } else if (arg == "--journal") {
            value();
            config.journal.directory = workdir + "/replay-journal";
        } else if (arg == "--fsync-policy") {
            const std::string policy = value();
            const std::size_t comma = policy.find(',');
            REF_REQUIRE(policy.starts_with("group:") &&
                            comma != std::string::npos,
                        "replay supports --fsync-policy group:B,U only");
            config.journal.groupBytes = std::stoull(policy.substr(6));
            config.journal.groupUsec = std::stoull(policy.substr(comma + 1));
        } else if (arg == "--listen" || arg == "--shards") {
            value();
        } else {
            REF_FATAL("replay does not model ref_serve flag " << arg);
        }
    }
    std::vector<double> capacities;
    std::stringstream cells(capacity);
    std::string cell;
    while (std::getline(cells, cell, ','))
        capacities.push_back(std::stod(cell));
    config.capacity = ref::core::SystemCapacity::fromCapacities(capacities);
    config.buildEnforcement = !config.pooled && capacities.size() == 2;
    return config;
}

const char *
opSpanName(Kind kind)
{
    switch (kind) {
    case Kind::Admit:
        return "op.admit";
    case Kind::Update:
        return "op.update";
    case Kind::Depart:
        return "op.depart";
    case Kind::Tick:
        return "op.tick";
    case Kind::Query:
        return "op.query";
    case Kind::Assign:
        return "op.assign";
    default:
        return "op.other";
    }
}

const char *
poolSpanName(Kind kind)
{
    switch (kind) {
    case Kind::Admit:
        return "pool.admit";
    case Kind::Update:
        return "pool.update";
    case Kind::Depart:
        return "pool.depart";
    case Kind::Assign:
        return "pool.assign";
    default:
        return "pool.shares";
    }
}

bool
bitIdentical(const ref::core::Allocation &a, const ref::core::Allocation &b)
{
    if (a.agents() != b.agents() || a.resources() != b.resources())
        return false;
    for (std::size_t i = 0; i < a.agents(); ++i)
        for (std::size_t r = 0; r < a.resources(); ++r)
            if (a.at(i, r) != b.at(i, r))
                return false;
    return true;
}

/** The flat registry or pool tree mirrored beside the service. */
struct Shadow
{
    explicit Shadow(const svc::ServiceConfig &config)
        : registry(config.capacity),
          tree(config.capacity, config.poolShards), pooled(config.pooled)
    {}

    void apply(const Op &op)
    {
        const ref::svc::Command &c = op.command;
        if (pooled) {
            switch (op.kind) {
            case Kind::Create:
                tree.createPool(c.poolPath, c.poolWeight);
                break;
            case Kind::Admit:
                tree.admit(c.name, c.elasticities);
                break;
            case Kind::Update:
                tree.update(c.name, c.elasticities);
                break;
            case Kind::Depart:
                tree.depart(c.name);
                break;
            case Kind::Assign:
                tree.assign(c.name, c.poolPath);
                break;
            case Kind::Query:
                tree.sharesOf(c.name);
                break;
            default:
                break;
            }
            return;
        }
        switch (op.kind) {
        case Kind::Admit:
            registry.admit(c.name, c.elasticities);
            break;
        case Kind::Update:
            registry.update(c.name, c.elasticities);
            break;
        case Kind::Depart:
            registry.depart(c.name);
            break;
        default:
            break;
        }
    }

    svc::AgentRegistry registry;
    ref::pool::PoolTree tree;
    bool pooled;
    ref::obs::FairnessSeries series{1 << 12};
};

struct RunResult
{
    std::vector<std::uint64_t> opNs;
    std::uint64_t failures = 0;
    std::uint64_t epochFailures = 0;
    std::uint64_t allocationMismatches = 0;
    std::uint64_t recoveryNs = 0;
    std::uint64_t poolSetupNs = 0;
    std::vector<std::uint64_t> liveAtTick;
};

/** Collect the program's own spans recorded since the last drain. */
void
drainTracer(Spans &spans)
{
    ref::obs::Tracer &tracer = ref::obs::Tracer::global();
    for (const ref::obs::TraceEvent &event : tracer.events())
        spans.records.push_back({event.name, event.category,
                                 event.startNs, event.durationNs,
                                 spans.nextId(), -1, spans.request});
    tracer.clear();
}

/** Shadow calls for one sampled TICK (see file comment). */
void
shadowTick(Spans &spans, std::int64_t parent, Shadow &shadow,
           svc::AllocationService &service,
           const svc::ServiceConfig &config, RunResult &result)
{
    const auto snapshot = service.snapshot();
    const ref::core::FairnessTolerance tolerance =
        svc::EpochConfig{}.tolerance;
    if (!shadow.pooled) {
        ref::core::Allocation allocation;
        {
            Scoped span(spans, "epoch.allocate", "shadow", parent);
            allocation = shadow.registry.allocate();
        }
        if (!bitIdentical(allocation, snapshot->allocation))
            ++result.allocationMismatches;
        const ref::core::AgentList agents = shadow.registry.agentList();
        {
            Scoped span(spans, "epoch.si_check", "shadow", parent);
            ref::core::checkSharingIncentives(agents, config.capacity,
                                              allocation, tolerance);
        }
        {
            Scoped span(spans, "epoch.ef_check", "shadow", parent);
            ref::core::checkEnvyFreeness(agents, allocation, tolerance);
        }
        if (config.buildEnforcement &&
            snapshot->enforcement.epoch == snapshot->epoch) {
            Scoped span(spans, "epoch.plan", "shadow", parent);
            svc::buildEnforcementPlan(snapshot->agents, allocation,
                                      config.capacity,
                                      config.associativity);
        }
    }
    // A pooled TICK builds no dense allocation and, above
    // kPooledPropertyCheckCap agents, checks nothing: no phases to time.
    {
        Scoped span(spans, "service.state_hash", "shadow", parent);
        service.stateHash();
    }
    {
        // One global sample per epoch, plus one labelled sample per
        // pool on a pooled service, as the service records them.
        Scoped span(spans, "obs.fairness_append", "shadow", parent);
        ref::obs::FairnessSample sample;
        sample.epoch = snapshot->epoch;
        sample.agents = service.liveAgents();
        shadow.series.append(sample);
        if (shadow.pooled)
            for (const ref::pool::PoolView &view : shadow.tree.pools())
                shadow.series.appendLabelled(view.path, sample);
    }
    result.liveAtTick.push_back(service.liveAgents());
}

RunResult
runOnce(const Params &params, const svc::ServiceConfig &config,
        Spans &spans, std::size_t ops)
{
    RunResult result;
    if (config.journal.enabled())
        fs::remove_all(config.journal.directory);
    {
        svc::AllocationService service(config);
        TimedSink sink(spans);
        service.setReplicationSink(&sink);
        svc::CommandSession session(service);
        Stream stream(params);
        std::optional<Shadow> shadow;
        if (spans.on)
            shadow.emplace(config);

        const bool tracing = spans.on;
        spans.on = false;
        std::ostringstream discard;
        for (const Op &op : stream.preload())
            REF_REQUIRE(session.executeCommand(op.command, discard) ==
                            svc::CommandSession::LineStatus::Executed,
                        "preload '" << op.line << "' failed");
        session.executeCommand(makeTick().command, discard);
        service.journalBarrier();
        if (shadow) {
            const std::uint64_t start = nowNs();
            for (const Op &op : stream.preload())
                shadow->apply(op);
            result.poolSetupNs = config.pooled ? nowNs() - start : 0;
        }
        spans.on = tracing;
        if (tracing)
            ref::obs::Tracer::global().enable(1 << 16);

        std::size_t ticks = 0;
        for (std::size_t i = 0; i < ops; ++i) {
            const Op op = stream.next(i % params.conns);
            const std::string frame =
                params.binary ? ref::frameRecord(wire::encodeCommand(
                                    op.command))
                              : std::string();
            spans.request = i;
            std::ostringstream reply;
            auto status = svc::CommandSession::LineStatus::Idle;
            const std::uint64_t start = spans.now();
            std::int64_t opId = -1;
            {
                Scoped opSpan(spans, opSpanName(op.kind), "bench");
                opId = opSpan.id();
                if (params.binary) {
                    svc::Command command;
                    {
                        Scoped span(spans, "wire.decode", "wire");
                        std::size_t offset = 0;
                        std::string_view payload;
                        REF_REQUIRE(ref::readFrame(frame, offset, payload) ==
                                        ref::FrameStatus::Ok,
                                    "bad frame");
                        command = wire::decodeCommand(payload);
                    }
                    {
                        Scoped span(spans, "protocol.execute", "protocol");
                        status = session.executeCommand(command, reply);
                    }
                    {
                        Scoped span(spans, "wire.encode_reply", "wire");
                        ref::frameRecord(wire::encodeReply(
                            status == svc::CommandSession::LineStatus::
                                          Rejected
                                ? wire::ReplyStatus::Err
                                : wire::ReplyStatus::Ok,
                            reply.str()));
                    }
                } else {
                    Scoped span(spans, "protocol.execute", "protocol");
                    status = session.executeLine(op.line, reply);
                }
                if ((i + 1) % params.conns == 0) {
                    Scoped span(spans, "journal.barrier", "journal");
                    service.journalBarrier();
                }
            }
            result.opNs.push_back(spans.now() - start);
            if (status != svc::CommandSession::LineStatus::Executed)
                ++result.failures;
            const std::string text = reply.str();
            if (op.kind == Kind::Tick &&
                (text.find("VIOLATED") != std::string::npos ||
                 text.find("FAIL") != std::string::npos))
                ++result.epochFailures;
            if (!shadow)
                continue;
            drainTracer(spans);
            if (config.pooled && op.kind != Kind::Tick) {
                Scoped span(spans, poolSpanName(op.kind), "shadow", opId);
                shadow->apply(op);
            } else {
                shadow->apply(op);
            }
            if (op.kind == Kind::Tick && ++ticks % kShadowEvery == 0)
                shadowTick(spans, opId, *shadow, service, config, result);
        }
        if (tracing)
            ref::obs::Tracer::global().disable();
        service.setReplicationSink(nullptr);
    }
    if (config.journal.enabled()) {
        const std::uint64_t start = nowNs();
        svc::AllocationService recovered(config);
        result.recoveryNs = nowNs() - start;
    }
    return result;
}

void
writeTrace(const std::string &path, const std::vector<SpanRecord> &records)
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const SpanRecord &r = records[i];
        out << (i ? ",\n" : "") << "{\"name\": \"" << r.name
            << "\", \"cat\": \"" << r.category
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << r.startNs / 1000 << "." << (r.startNs % 1000) / 100
            << (r.startNs % 100) / 10 << r.startNs % 10
            << ", \"dur\": " << r.durationNs / 1000 << "."
            << (r.durationNs % 1000) / 100 << (r.durationNs % 100) / 10
            << r.durationNs % 10 << ", \"args\": {\"id\": " << r.id
            << ", \"parent\": " << r.parent << ", \"req\": " << r.request
            << "}}";
    }
    out << "\n]}\n";
    REF_REQUIRE(out.good(), "cannot write " << path);
}

template <typename T>
std::string
list(const std::vector<T> &values)
{
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out << (i ? ", " : "") << values[i];
    out << "]";
    return out.str();
}

std::uint64_t
sum(const std::vector<std::uint64_t> &values, std::size_t count)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < std::min(count, values.size()); ++i)
        total += values[i];
    return total;
}

} // namespace

int
replay(const Params &params, const ReplayOptions &options)
{
    const svc::ServiceConfig config =
        configFrom(options.server, options.workdir);
    const std::size_t prefix = std::min(options.untracedOps, options.ops);
    Spans untraced;
    const RunResult off = runOnce(params, config, untraced, prefix);
    Spans traced;
    traced.on = true;
    const RunResult on = runOnce(params, config, traced, options.ops);
    writeTrace(options.trace, traced.records);

    std::ofstream out(options.out);
    out << "{\"ops\": " << options.ops << ", \"untraced_ops\": " << prefix
        << ", \"traced_prefix_ns\": " << sum(on.opNs, prefix)
        << ", \"untraced_prefix_ns\": " << sum(off.opNs, prefix)
        << ", \"failures\": " << on.failures + off.failures
        << ", \"epoch_failures\": " << on.epochFailures + off.epochFailures
        << ", \"allocation_mismatches\": " << on.allocationMismatches
        << ", \"recovery_ns\": " << on.recoveryNs
        << ", \"pool_setup_ns\": " << on.poolSetupNs
        << ", \"live_at_tick\": " << list(on.liveAtTick) << "}\n";
    REF_REQUIRE(out.good(), "cannot write " << options.out);
    return 0;
}

} // namespace perfbench
