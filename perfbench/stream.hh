/**
 * @file
 * Seeded command streams for the service benchmark.
 *
 * A workload is a fixed population of agents owned by a fixed set of
 * client connections. Agent i belongs to connection i % conns, so
 * every command about one agent travels on one connection and the
 * server sees them in order whatever the interleaving across
 * connections. Half of each connection's agents are stable: they are
 * never departed and are the only QUERY targets, so every QUERY names
 * an agent that was published by the warm-up TICK. The other half sit
 * in churn slots, where a DEPART of the occupant is always followed by
 * the ADMIT of a fresh agent (and, in pooled workloads, its POOL
 * ASSIGN), so the live population stays constant.
 *
 * Each connection draws from its own generator, so its command
 * sequence depends only on the seed, never on timing. It deals its op
 * kinds from shuffled decks that hold the mix exactly, so a run's
 * proportions do not drift with the seed.
 */

#ifndef PERFBENCH_STREAM_HH
#define PERFBENCH_STREAM_HH

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "svc/protocol.hh"

namespace perfbench {

/** What a workload sends; parsed from the command line. */
struct Params
{
    std::uint64_t seed = 1;
    std::size_t agents = 1000;
    /** Unit-weight pools; 0 runs the flat service. */
    std::size_t pools = 0;
    /** Weights of ADMIT, UPDATE, DEPART, TICK, QUERY. ADMIT and
     *  DEPART must be equal: churn is one for one. */
    std::array<unsigned, 5> mix{1, 8, 1, 1, 9};
    bool binary = false;
    std::size_t conns = 4;
};

enum class Kind : std::uint8_t
{
    Admit,
    Update,
    Depart,
    Tick,
    Query,
    Assign,
    Create,
    Stats,
    Shutdown,
};

const char *kindName(Kind kind);

/** One command in both framings. */
struct Op
{
    Kind kind = Kind::Stats;
    std::string line;  //!< Text framing, without the newline.
    ref::svc::Command command;
};

/** An agent as the generator last sent it. */
struct Agent
{
    std::string name;
    std::array<std::string, 2> elasticity;  //!< Exact decimal text.
};

/** splitmix64: small, portable, and identical on every platform. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform integer in [0, bound). */
    std::uint64_t below(std::uint64_t bound);
    /** Uniform double in [0, 1). */
    double unit();

  private:
    std::uint64_t state_;
};

Op makeAdmit(const Agent &agent);
Op makeUpdate(const Agent &agent);
Op makeDepart(const std::string &name);
Op makeTick();
Op makeQuery(const std::string &name);
Op makeAssign(const std::string &name, const std::string &pool);
Op makeCreate(const std::string &pool);
Op makeStats();
Op makeShutdown();

/** The workload's command source (see file comment). */
class Stream
{
  public:
    explicit Stream(const Params &params);

    /** Pool creates, then every agent's ADMIT (and POOL ASSIGN).
     *  The warm-up TICK is not included. */
    const std::vector<Op> &preload() const { return preload_; }

    /** Next command of connection @p conn; advances its model. */
    Op next(std::size_t conn);

    /** An UPDATE of a live agent of connection @p conn, outside its
     *  deck; advances its model. */
    Op update(std::size_t conn);

    /** True while connection @p conn is inside a DEPART, ADMIT(,
     *  ASSIGN) replacement; the run must send those commands before
     *  live() describes the server's population. */
    bool hasPending(std::size_t conn) const
    {
        return !conns_.at(conn).pending.empty();
    }

    /** Live agents as the generator last sent them. */
    std::vector<Agent> live() const;

    /** A stable agent of connection @p conn (never departed). */
    const std::string &stableName(std::size_t conn,
                                  std::size_t index) const;

  private:
    struct Conn
    {
        explicit Conn(std::uint64_t seed) : rng(seed) {}
        Rng rng;
        std::vector<Agent> stable;
        std::vector<Agent> slots;
        std::vector<Kind> deck;  //!< Op kinds left in this deck.
        std::deque<Op> pending;
        std::uint64_t fresh = 0;
    };

    Agent drawAgent(Rng &rng, std::string name) const;
    std::string drawPool(Rng &rng) const;

    Params params_;
    std::vector<Conn> conns_;
    std::vector<Op> preload_;
    /** Zipf(1) cumulative weights over the pools. */
    std::vector<double> poolCdf_;
};

} // namespace perfbench

#endif // PERFBENCH_STREAM_HH
