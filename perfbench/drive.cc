/**
 * @file
 * Socket load generator: one thread multiplexing the workload's
 * connections with poll(2) against a ref_serve child process.
 */

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench.hh"
#include "svc/wire.hh"
#include "util/logging.hh"
#include "util/record_io.hh"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace wire = ref::svc::wire;

constexpr std::size_t kWindow = 1024;  //!< Pipelined set-up depth.
/** ref_serve's default --snapshot-every: the journal compacts after
 *  this many records. */
constexpr std::uint64_t kSnapshotEvery = 1024;
/** Journaled servers: wal records after the last snapshot when a
 *  server is shut down for restarts, every kTailTickEvery-th of them a
 *  TICK (the last one too), so every restart replays the same work. */
constexpr std::uint64_t kTailRecords = 100;
constexpr std::uint64_t kTailTickEvery = 10;
constexpr std::uint64_t kDrainNs = 30'000'000'000ULL;

struct Reply
{
    bool ok = false;
    std::string text;
};

/** A command in flight. */
struct Pending
{
    Kind kind = Kind::Stats;
    std::uint64_t sentNs = 0;
    /** Sent while another connection's TICK was outstanding. */
    bool afterTick = false;
};

/** One measured command. */
struct Sample
{
    Kind kind;
    std::uint64_t latencyNs;
    bool ok;
    bool afterTick;
};

class Conn
{
  public:
    Conn(int port, bool binary) : binary_(binary)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        REF_REQUIRE(fd_ >= 0, "socket: " << std::strerror(errno));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        REF_REQUIRE(::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                              sizeof addr) == 0,
                    "connect: " << std::strerror(errno));
        int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        if (binary_) {
            sendBytes(std::string(wire::helloMagic()));
            Reply hello;
            while (!nextReply(Kind::Stats, hello))
                readSome(true);
        }
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    int fd() const { return fd_; }

    /** Frame @p op for this connection. */
    std::string encode(const Op &op) const
    {
        if (binary_)
            return ref::frameRecord(wire::encodeCommand(op.command));
        return op.line + "\n";
    }

    void sendBytes(const std::string &bytes)
    {
        std::size_t done = 0;
        while (done < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + done,
                                     bytes.size() - done, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            REF_REQUIRE(n > 0, "send: " << std::strerror(errno));
            done += static_cast<std::size_t>(n);
        }
        bytesOut += bytes.size();
    }

    void send(const Op &op, bool afterTick = false)
    {
        const std::uint64_t sentNs = nowNs();
        sendBytes(encode(op));
        pending.push_back({op.kind, sentNs, afterTick});
    }

    /** Read what the socket holds (blocking when @p wait). */
    void readSome(bool wait)
    {
        char buffer[65536];
        const ssize_t n =
            ::recv(fd_, buffer, sizeof buffer, wait ? 0 : MSG_DONTWAIT);
        if (n < 0 && (errno == EAGAIN || errno == EINTR))
            return;
        REF_REQUIRE(n > 0, "server closed the connection");
        in_.append(buffer, static_cast<std::size_t>(n));
        bytesIn += static_cast<std::size_t>(n);
    }

    /** Take one complete reply to a @p kind command, if buffered. */
    bool nextReply(Kind kind, Reply &reply)
    {
        if (binary_) {
            std::string_view payload;
            std::size_t offset = pos_;
            const ref::FrameStatus status =
                ref::readFrame(in_, offset, payload);
            if (status != ref::FrameStatus::Ok) {
                REF_REQUIRE(status != ref::FrameStatus::Corrupt,
                            "corrupt reply frame");
                return false;
            }
            const wire::Reply decoded = wire::decodeReply(payload);
            reply.ok = decoded.status != wire::ReplyStatus::Err;
            reply.text = decoded.text;
            consume(offset);
            return true;
        }
        // Every command this benchmark sends replies with one line,
        // except STATS, whose block ends with its state_hash line.
        std::size_t start = pos_;
        while (true) {
            const std::size_t end = in_.find('\n', start);
            if (end == std::string::npos)
                return false;
            const std::string_view line(in_.data() + start, end - start);
            const bool last = kind != Kind::Stats ||
                              line.starts_with("state_hash=") ||
                              line.starts_with("ERR");
            start = end + 1;
            if (last) {
                reply.text.assign(in_, pos_, start - pos_);
                reply.ok = !reply.text.starts_with("ERR");
                consume(start);
                return true;
            }
        }
    }

    std::deque<Pending> pending;
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;

  private:
    void consume(std::size_t upTo)
    {
        pos_ = upTo;
        if (pos_ > 65536 && pos_ * 2 > in_.size()) {
            in_.erase(0, pos_);
            pos_ = 0;
        }
    }

    int fd_ = -1;
    bool binary_;
    std::string in_;
    std::size_t pos_ = 0;
};

/** Send @p op and wait for its reply. */
Reply
request(Conn &conn, const Op &op)
{
    conn.send(op);
    Reply reply;
    while (!conn.nextReply(op.kind, reply))
        conn.readSome(true);
    conn.pending.pop_front();
    return reply;
}

/** Send @p ops with up to kWindow in flight, refilled half a window
 *  at a time; replies in order. */
std::vector<Reply>
pipeline(Conn &conn, const std::vector<Op> &ops)
{
    std::vector<Reply> replies;
    replies.reserve(ops.size());
    std::size_t sent = 0;
    while (replies.size() < ops.size()) {
        if (sent - replies.size() <= kWindow / 2) {
            std::string batch;
            for (; sent < ops.size() && sent - replies.size() < kWindow;
                 ++sent)
                batch += conn.encode(ops[sent]);
            if (!batch.empty())
                conn.sendBytes(batch);
        }
        Reply reply;
        while (!conn.nextReply(ops[replies.size()].kind, reply))
            conn.readSome(true);
        replies.push_back(std::move(reply));
    }
    return replies;
}

void
requireOk(const Reply &reply, const Op &op)
{
    REF_REQUIRE(reply.ok, "'" << op.line << "' failed: " << reply.text);
}

bool
epochOk(const Reply &reply)
{
    return reply.ok && reply.text.starts_with("EPOCH") &&
           reply.text.find("VIOLATED") == std::string::npos &&
           reply.text.find("FAIL") == std::string::npos;
}

/** A ref_serve child; killed if still running when destroyed. */
class Server
{
  public:
    explicit Server(const std::vector<std::string> &argv)
    {
        int fds[2];
        REF_REQUIRE(::pipe2(fds, O_CLOEXEC) == 0, "pipe failed");
        pid_ = ::fork();
        REF_REQUIRE(pid_ >= 0, "fork failed");
        if (pid_ == 0) {
            ::dup2(fds[1], 2);
            const int null = ::open("/dev/null", O_WRONLY);
            ::dup2(null, 1);
            std::vector<char *> args;
            for (const std::string &arg : argv)
                args.push_back(const_cast<char *>(arg.c_str()));
            args.push_back(nullptr);
            ::execv(args[0], args.data());
            ::_exit(127);
        }
        ::close(fds[1]);
        err_ = fds[0];
        // The server announces its ephemeral port on stderr.
        while (true) {
            const std::size_t nl = log_.find('\n');
            if (nl != std::string::npos) {
                const std::string line = log_.substr(0, nl);
                log_.erase(0, nl + 1);
                if (line.starts_with("LISTENING")) {
                    const std::size_t addr = line.find("addr=");
                    const std::size_t colon = line.find(':', addr);
                    REF_REQUIRE(addr != std::string::npos &&
                                    colon != std::string::npos,
                                "unexpected line: " << line);
                    port_ = std::atoi(line.c_str() + colon + 1);
                    break;
                }
                continue;
            }
            REF_REQUIRE(readErr(), "ref_serve exited before listening");
        }
    }
    ~Server()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        if (err_ >= 0)
            ::close(err_);
    }
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    int port() const { return port_; }
    pid_t pid() const { return pid_; }

    /** SHUTDOWN through @p conn; true when the server exits 0. */
    bool shutdown(Conn &conn)
    {
        const Reply reply = request(conn, makeShutdown());
        while (readErr()) {
        }
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return reply.ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

    /** utime + stime in clock ticks. */
    std::uint64_t cpuTicks() const
    {
        std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
        std::string text((std::istreambuf_iterator<char>(stat)),
                         std::istreambuf_iterator<char>());
        std::istringstream fields(text.substr(text.rfind(')') + 2));
        std::string field;
        std::uint64_t utime = 0;
        std::uint64_t stime = 0;
        // Fields after the command name start at field 3 (state);
        // utime and stime are fields 14 and 15.
        for (int index = 3; index <= 15 && fields >> field; ++index) {
            if (index == 14)
                utime = std::stoull(field);
            if (index == 15)
                stime = std::stoull(field);
        }
        return utime + stime;
    }

    /** Peak resident set (VmHWM) in KiB. */
    std::uint64_t peakKb() const
    {
        std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(status, line))
            if (line.starts_with("VmHWM:"))
                return std::stoull(line.substr(6));
        return 0;
    }

  private:
    bool readErr()
    {
        char buffer[4096];
        const ssize_t n = ::read(err_, buffer, sizeof buffer);
        if (n < 0 && errno == EINTR)
            return true;
        if (n <= 0)
            return false;
        log_.append(buffer, static_cast<std::size_t>(n));
        return true;
    }

    pid_t pid_ = -1;
    int err_ = -1;
    int port_ = 0;
    std::string log_;
};

/** A started server with the workload's connections open. */
struct Session
{
    Session(const std::vector<std::string> &argv, const Params &params)
        : server(argv)
    {
        for (std::size_t c = 0; c < params.conns; ++c)
            conns.push_back(
                std::make_unique<Conn>(server.port(), params.binary));
    }
    Server server;
    std::vector<std::unique_ptr<Conn>> conns;
};

/** Preload the population and run the warm-up TICK. */
void
loadPopulation(Session &session, const Stream &stream)
{
    Conn &conn = *session.conns[0];
    const std::vector<Reply> replies = pipeline(conn, stream.preload());
    for (std::size_t i = 0; i < replies.size(); ++i)
        requireOk(replies[i], stream.preload()[i]);
    const Reply warm = request(conn, makeTick());
    REF_REQUIRE(epochOk(warm), "warm-up TICK: " << warm.text);
}

std::string
journalDir(const std::vector<std::string> &argv)
{
    for (std::size_t i = 0; i + 1 < argv.size(); ++i)
        if (argv[i] == "--journal")
            return argv[i + 1];
    return "";
}

/** The value of "key=" in a STATS reply. */
std::string
statsField(const Reply &reply, const std::string &key)
{
    const std::size_t at = reply.text.find(key + "=");
    REF_REQUIRE(at != std::string::npos, "STATS without " << key);
    const std::size_t start = at + key.size() + 1;
    return reply.text.substr(start, reply.text.find('\n', at) - start);
}

std::string
stateHash(const Reply &reply)
{
    return statsField(reply, "state_hash");
}

template <typename T>
void
writeList(std::ostream &out, const char *key, const std::vector<T> &values,
          bool quote = false)
{
    out << "\"" << key << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i)
        out << (i ? ", " : "") << (quote ? "\"" : "") << values[i]
            << (quote ? "\"" : "");
    out << "]";
}

std::vector<std::string>
withJournal(std::vector<std::string> argv, const std::string &dir)
{
    for (std::size_t i = 0; i + 1 < argv.size(); ++i)
        if (argv[i] == "--journal")
            argv[i + 1] = dir;
    return argv;
}

std::uint64_t
journalRecords(Conn &conn)
{
    return std::stoull(statsField(request(conn, makeStats()),
                                  "journal_records"));
}

/** Untimed: fill the wal with UPDATEs up to the next snapshot, then
 *  send the fixed tail, so that a restart replays kTailRecords records
 *  wherever the load stopped. Returns the failed epochs. */
std::uint64_t
sendTail(Conn &conn, Stream &stream)
{
    const std::uint64_t records = journalRecords(conn);
    std::vector<Op> ops((kSnapshotEvery - records % kSnapshotEvery) %
                        kSnapshotEvery);
    for (Op &op : ops)
        op = stream.update(0);
    for (std::uint64_t i = 1; i <= kTailRecords; ++i)
        ops.push_back(i % kTailTickEvery == 0 ? makeTick()
                                              : stream.update(0));
    const std::vector<Reply> replies = pipeline(conn, ops);
    std::uint64_t failures = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        requireOk(replies[i], ops[i]);
        if (ops[i].kind == Kind::Tick && !epochOk(replies[i]))
            ++failures;
    }
    return failures;
}

/** Restarts on copies of a journal, each timed until the first STATS
 *  reply, with the state hash expected after them. */
struct Recovery
{
    std::vector<std::uint64_t> ns;
    std::vector<std::string> hashes;
    std::vector<std::string> expected;
    std::vector<std::string> replayed;

    void restart(const std::vector<std::string> &server,
                 const Params &params, const std::string &journal,
                 const std::string &hash)
    {
        const std::string copy =
            journal + ".r" + std::to_string(ns.size());
        fs::remove_all(copy);
        fs::copy(journal, copy, fs::copy_options::recursive);
        const std::uint64_t start = nowNs();
        Session restarted(withJournal(server, copy), params);
        Conn &probe = *restarted.conns[0];
        const Reply stats = request(probe, makeStats());
        ns.push_back(nowNs() - start);
        hashes.push_back(stateHash(stats));
        expected.push_back(hash);
        replayed.push_back(statsField(stats, "recovery_replayed_records"));
        REF_REQUIRE(restarted.server.shutdown(probe),
                    "restarted server failed");
        fs::remove_all(copy);
    }
};

/** The measured window: a closed loop with one command outstanding on
 *  every connection. */
struct Window
{
    std::vector<Sample> samples;
    std::uint64_t sent = 0;
    std::uint64_t errors = 0;
    std::uint64_t epochFailures = 0;
    std::uint64_t elapsedNs = 0;
};

Window
measure(Session &session, Stream &stream, double seconds)
{
    Window window;
    auto &conns = session.conns;
    const std::size_t n = conns.size();
    const std::uint64_t start = nowNs();
    const std::uint64_t end =
        start + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t lastReply = start;
    std::uint64_t inFlight = 0;

    const auto sendNext = [&](std::size_t c) {
        // A TICK still outstanding may already be done at the server,
        // its reply unread, so afterTick can be set on a command that
        // did not wait; it is never clear on one that did.
        bool afterTick = false;
        for (std::size_t o = 0; o < n; ++o)
            afterTick |= o != c && !conns[o]->pending.empty() &&
                         conns[o]->pending.front().kind == Kind::Tick;
        conns[c]->send(stream.next(c), afterTick);
        ++window.sent;
        ++inFlight;
    };
    for (std::size_t c = 0; c < n; ++c)
        sendNext(c);

    std::vector<pollfd> fds(n);
    for (std::size_t c = 0; c < n; ++c)
        fds[c] = {conns[c]->fd(), POLLIN, 0};
    while (inFlight > 0) {
        REF_REQUIRE(nowNs() < end + kDrainNs,
                    inFlight << " replies missing after the drain");
        const int ready = ::poll(fds.data(), n, 100);
        REF_REQUIRE(ready >= 0 || errno == EINTR,
                    "poll: " << std::strerror(errno));
        for (std::size_t c = 0; c < n; ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Conn &conn = *conns[c];
            conn.readSome(false);
            Reply reply;
            while (!conn.pending.empty() &&
                   conn.nextReply(conn.pending.front().kind, reply)) {
                const Pending done = conn.pending.front();
                conn.pending.pop_front();
                --inFlight;
                const std::uint64_t at = nowNs();
                lastReply = at;
                if (!reply.ok)
                    ++window.errors;
                if (done.kind == Kind::Tick && !epochOk(reply))
                    ++window.epochFailures;
                window.samples.push_back(
                    {done.kind, at - done.sentNs, reply.ok, done.afterTick});
                if (at < end)
                    sendNext(c);
            }
        }
    }
    window.elapsedNs = lastReply - start;
    return window;
}

} // namespace

int
drive(const Params &params, const DriveOptions &options)
{
    REF_REQUIRE(!options.server.empty(), "no server command");
    Stream stream(params);
    const std::string journal = journalDir(options.server);
    std::ofstream out(options.out);
    REF_REQUIRE(out.good(), "cannot write " << options.out);

    // The host's speed drifts over tens of seconds, so half of the
    // restarts run before the window, on a journal of the preloaded
    // population with the same fixed tail (a stream of its own keeps
    // the run's stream untouched), and half after it, on the run's.
    Recovery recovery;
    std::uint64_t setupEpochFailures = 0;
    const std::size_t early = journal.empty() ? 0 : options.restarts / 2;
    if (early > 0) {
        const std::string dir = journal + ".setup";
        fs::remove_all(dir);
        Stream side(params);
        Session loaded(withJournal(options.server, dir), params);
        loadPopulation(loaded, side);
        Conn &conn = *loaded.conns[0];
        setupEpochFailures = sendTail(conn, side);
        const std::string hash = stateHash(request(conn, makeStats()));
        REF_REQUIRE(loaded.server.shutdown(conn),
                    "set-up journal server did not shut down cleanly");
        for (std::size_t r = 0; r < early; ++r)
            recovery.restart(options.server, params, dir, hash);
    }

    std::vector<std::uint64_t> setupNs;
    std::unique_ptr<Session> session;
    for (std::size_t k = 0; k < std::max<std::size_t>(1, options.setups);
         ++k) {
        if (session) {
            REF_REQUIRE(session->server.shutdown(*session->conns[0]),
                        "set-up server did not shut down cleanly");
            session.reset();
        }
        if (!journal.empty())
            fs::remove_all(journal);
        const std::uint64_t start = nowNs();
        session = std::make_unique<Session>(options.server, params);
        loadPopulation(*session, stream);
        setupNs.push_back(nowNs() - start);
    }

    std::vector<std::uint64_t> rttNs;
    for (std::size_t i = 0; i < options.probes; ++i) {
        const Op op = makeQuery(stream.stableName(0, i));
        const std::uint64_t start = nowNs();
        requireOk(request(*session->conns[0], op), op);
        rttNs.push_back(nowNs() - start);
    }

    Conn &conn = *session->conns[0];
    // The journal's own counters over the window (0 without one).
    const auto journalCounters = [&] {
        const Reply stats = request(conn, makeStats());
        return std::array<std::uint64_t, 3>{
            std::stoull(statsField(stats, "journal_records")),
            std::stoull(statsField(stats, "journal_bytes")),
            std::stoull(statsField(stats, "journal_fsyncs"))};
    };
    const std::array<std::uint64_t, 3> journalBefore = journalCounters();
    std::uint64_t bytesBefore = 0;
    for (const auto &c : session->conns)
        bytesBefore += c->bytesIn + c->bytesOut;
    const std::uint64_t cpuBefore = session->server.cpuTicks();
    Window window = measure(*session, stream, options.seconds);
    window.epochFailures += setupEpochFailures;
    const std::uint64_t cpuTicks = session->server.cpuTicks() - cpuBefore;
    const std::uint64_t peakKb = session->server.peakKb();
    std::uint64_t bytes = 0;
    for (const auto &c : session->conns)
        bytes += c->bytesIn + c->bytesOut;
    bytes -= bytesBefore;
    const std::array<std::uint64_t, 3> journalAfter = journalCounters();
    // Finish any half-sent replacement so the population is whole.
    for (std::size_t c = 0; c < session->conns.size(); ++c)
        while (stream.hasPending(c)) {
            const Op op = stream.next(c);
            requireOk(request(*session->conns[c], op), op);
        }

    // Oracle data: one untimed TICK (the last of the tail on a
    // journaled server), then every live agent's share.
    if (!journal.empty())
        window.epochFailures += sendTail(conn, stream);
    else if (!epochOk(request(conn, makeTick())))
        ++window.epochFailures;
    const std::vector<Agent> live = stream.live();
    std::vector<Op> queries;
    for (const Agent &agent : live)
        queries.push_back(makeQuery(agent.name));
    const std::vector<Reply> shares = pipeline(conn, queries);
    {
        std::ofstream oracle(options.oracle);
        for (std::size_t i = 0; i < live.size(); ++i)
            oracle << live[i].name << " " << live[i].elasticity[0] << " "
                   << live[i].elasticity[1] << " | " << shares[i].text;
        REF_REQUIRE(oracle.good(), "cannot write " << options.oracle);
    }
    const std::string hash = stateHash(request(conn, makeStats()));
    const bool cleanExit = session->server.shutdown(conn);
    session.reset();

    for (std::size_t r = early; !journal.empty() && r < options.restarts;
         ++r)
        recovery.restart(options.server, params, journal, hash);

    {
        std::ofstream samples(options.samples);
        for (const Sample &sample : window.samples)
            samples << kindName(sample.kind) << " " << sample.latencyNs
                    << " " << (sample.ok ? 1 : 0) << " "
                    << (sample.afterTick ? 1 : 0) << "\n";
        REF_REQUIRE(samples.good(), "cannot write " << options.samples);
    }
    out << "{";
    writeList(out, "setup_ns", setupNs);
    out << ", ";
    writeList(out, "rtt_ns", rttNs);
    out << ", ";
    writeList(out, "recovery_ns", recovery.ns);
    out << ", ";
    writeList(out, "recovery_hashes", recovery.hashes, true);
    out << ", ";
    writeList(out, "recovery_expected", recovery.expected, true);
    out << ", ";
    writeList(out, "recovery_replayed", recovery.replayed);
    out << ", \"state_hash\": \"" << hash << "\""
        << ", \"sent\": " << window.sent
        << ", \"errors\": " << window.errors
        << ", \"epoch_failures\": " << window.epochFailures
        << ", \"elapsed_ns\": " << window.elapsedNs
        << ", \"cpu_ticks\": " << cpuTicks
        << ", \"clk_tck\": " << ::sysconf(_SC_CLK_TCK)
        << ", \"peak_kb\": " << peakKb << ", \"bytes\": " << bytes
        << ", \"journal_bytes\": " << journalAfter[1] - journalBefore[1]
        << ", \"journal_fsyncs\": " << journalAfter[2] - journalBefore[2]
        << ", \"tail_records\": " << (journal.empty() ? 0 : kTailRecords)
        << ", \"clean_exit\": " << (cleanExit ? "true" : "false")
        << ", \"live_agents\": " << live.size() << "}\n";
    REF_REQUIRE(out.good(), "cannot write " << options.out);
    return 0;
}

} // namespace perfbench
