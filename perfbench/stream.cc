#include "stream.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace perfbench {

using ref::svc::Command;

const char *
kindName(Kind kind)
{
    switch (kind) {
    case Kind::Admit:
        return "admit";
    case Kind::Update:
        return "update";
    case Kind::Depart:
        return "depart";
    case Kind::Tick:
        return "tick";
    case Kind::Query:
        return "query";
    case Kind::Assign:
        return "assign";
    case Kind::Create:
        return "create";
    case Kind::Stats:
        return "stats";
    case Kind::Shutdown:
        return "shutdown";
    }
    return "other";
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    return next() % bound;
}

double
Rng::unit()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

namespace {

ref::linalg::Vector
parseElasticities(const Agent &agent)
{
    ref::linalg::Vector values;
    for (const std::string &text : agent.elasticity)
        values.push_back(std::strtod(text.c_str(), nullptr));
    return values;
}

Op
withName(Kind kind, Command::Op op, const char *verb,
         const std::string &name)
{
    Op result;
    result.kind = kind;
    result.line = std::string(verb) + " " + name;
    result.command.op = op;
    result.command.name = name;
    return result;
}

} // namespace

Op
makeAdmit(const Agent &agent)
{
    Op op = withName(Kind::Admit, Command::Op::Admit, "ADMIT",
                     agent.name);
    for (const std::string &text : agent.elasticity)
        op.line += " " + text;
    op.command.elasticities = parseElasticities(agent);
    return op;
}

Op
makeUpdate(const Agent &agent)
{
    Op op = withName(Kind::Update, Command::Op::Update, "UPDATE",
                     agent.name);
    for (const std::string &text : agent.elasticity)
        op.line += " " + text;
    op.command.elasticities = parseElasticities(agent);
    return op;
}

Op
makeDepart(const std::string &name)
{
    return withName(Kind::Depart, Command::Op::Depart, "DEPART", name);
}

Op
makeTick()
{
    Op op;
    op.kind = Kind::Tick;
    op.line = "TICK";
    op.command.op = Command::Op::Tick;
    op.command.tickCount = 1;
    return op;
}

Op
makeQuery(const std::string &name)
{
    Op op = withName(Kind::Query, Command::Op::Query, "QUERY", name);
    op.command.hasName = true;
    return op;
}

Op
makeAssign(const std::string &name, const std::string &pool)
{
    Op op;
    op.kind = Kind::Assign;
    op.line = "POOL ASSIGN " + name + " " + pool;
    op.command.op = Command::Op::Pool;
    op.command.poolOp = Command::PoolOp::Assign;
    op.command.name = name;
    op.command.poolPath = pool;
    return op;
}

Op
makeCreate(const std::string &pool)
{
    Op op;
    op.kind = Kind::Create;
    op.line = "POOL CREATE " + pool;
    op.command.op = Command::Op::Pool;
    op.command.poolOp = Command::PoolOp::Create;
    op.command.poolPath = pool;
    op.command.poolWeight = 1.0;
    return op;
}

Op
makeStats()
{
    Op op;
    op.kind = Kind::Stats;
    op.line = "STATS";
    op.command.op = Command::Op::Stats;
    return op;
}

Op
makeShutdown()
{
    Op op;
    op.kind = Kind::Shutdown;
    op.line = "SHUTDOWN";
    op.command.op = Command::Op::Shutdown;
    return op;
}

Stream::Stream(const Params &params) : params_(params)
{
    REF_REQUIRE(params.conns >= 1, "need at least one connection");
    REF_REQUIRE(params.mix[0] == params.mix[2],
                "ADMIT and DEPART weights must match (one-for-one "
                "churn)");
    REF_REQUIRE(params.agents >= 4 * params.conns,
                "need at least 4 agents per connection");
    double total = 0;
    for (std::size_t k = 0; k < params.pools; ++k) {
        total += 1.0 / static_cast<double>(k + 1);
        poolCdf_.push_back(total);
    }
    for (double &cdf : poolCdf_)
        cdf /= total;

    Rng root(params.seed);
    for (std::size_t c = 0; c < params.conns; ++c)
        conns_.emplace_back(root.next());

    for (std::size_t k = 0; k < params.pools; ++k)
        preload_.push_back(makeCreate("p" + std::to_string(k)));
    Rng rng(root.next());
    for (std::size_t i = 0; i < params.agents; ++i) {
        Agent agent = drawAgent(rng, "a" + std::to_string(i));
        preload_.push_back(makeAdmit(agent));
        if (params.pools > 0)
            preload_.push_back(makeAssign(agent.name, drawPool(rng)));
        Conn &conn = conns_[i % params.conns];
        if ((i / params.conns) % 2 == 0)
            conn.stable.push_back(std::move(agent));
        else
            conn.slots.push_back(std::move(agent));
    }
}

Agent
Stream::drawAgent(Rng &rng, std::string name) const
{
    Agent agent;
    agent.name = std::move(name);
    for (std::string &text : agent.elasticity) {
        char buffer[16];
        std::snprintf(buffer, sizeof buffer, "0.%04u",
                      static_cast<unsigned>(500 + rng.below(9001)));
        text = buffer;
    }
    return agent;
}

std::string
Stream::drawPool(Rng &rng) const
{
    const double u = rng.unit();
    const auto it = std::upper_bound(poolCdf_.begin(), poolCdf_.end(), u);
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(it - poolCdf_.begin()),
        poolCdf_.size() - 1);
    return "p" + std::to_string(k);
}

Op
Stream::next(std::size_t c)
{
    Conn &conn = conns_.at(c);
    if (conn.pending.empty()) {
        if (conn.deck.empty()) {
            // Each deck holds the mix exactly, shuffled, so every run
            // sends the same proportions and only the order varies.
            // ADMIT and DEPART are one replacement card that emits
            // both, so their shares still match the mix.
            const auto &mix = params_.mix;
            for (const Kind kind : {Kind::Admit, Kind::Update, Kind::Tick,
                                    Kind::Query})
                conn.deck.insert(conn.deck.end(),
                                 mix[static_cast<std::size_t>(kind)], kind);
            for (std::size_t i = conn.deck.size(); i > 1; --i)
                std::swap(conn.deck[i - 1], conn.deck[conn.rng.below(i)]);
        }
        const Kind card = conn.deck.back();
        conn.deck.pop_back();
        if (card == Kind::Admit) {
            Agent &slot = conn.slots[conn.rng.below(conn.slots.size())];
            conn.pending.push_back(makeDepart(slot.name));
            slot = drawAgent(conn.rng, "c" + std::to_string(c) + "x" +
                                           std::to_string(conn.fresh++));
            conn.pending.push_back(makeAdmit(slot));
            if (params_.pools > 0)
                conn.pending.push_back(
                    makeAssign(slot.name, drawPool(conn.rng)));
        } else if (card == Kind::Update) {
            conn.pending.push_back(update(c));
        } else if (card == Kind::Tick) {
            conn.pending.push_back(makeTick());
        } else {
            const Agent &agent =
                conn.stable[conn.rng.below(conn.stable.size())];
            conn.pending.push_back(makeQuery(agent.name));
        }
    }
    Op op = std::move(conn.pending.front());
    conn.pending.pop_front();
    return op;
}

Op
Stream::update(std::size_t c)
{
    Conn &conn = conns_.at(c);
    const std::size_t live = conn.stable.size() + conn.slots.size();
    const std::size_t pick = conn.rng.below(live);
    Agent &agent = pick < conn.stable.size()
                       ? conn.stable[pick]
                       : conn.slots[pick - conn.stable.size()];
    agent.elasticity = drawAgent(conn.rng, agent.name).elasticity;
    return makeUpdate(agent);
}

std::vector<Agent>
Stream::live() const
{
    std::vector<Agent> agents;
    for (const Conn &conn : conns_) {
        agents.insert(agents.end(), conn.stable.begin(), conn.stable.end());
        agents.insert(agents.end(), conn.slots.begin(), conn.slots.end());
    }
    return agents;
}

const std::string &
Stream::stableName(std::size_t conn, std::size_t index) const
{
    const Conn &owner = conns_.at(conn);
    return owner.stable[index % owner.stable.size()].name;
}

} // namespace perfbench
