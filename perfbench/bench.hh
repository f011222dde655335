/**
 * @file
 * Entry points of the perfbench program (see README.md).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stream.hh"

namespace perfbench {

/** Steady-clock nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Socket run against a real ref_serve. */
struct DriveOptions
{
    double seconds = 10;
    /** Servers started and loaded; set-up time is their median and
     *  the last one takes the measured load. */
    std::size_t setups = 9;
    /** Journaled servers: restarts timed on copies of a journal, half
     *  made before the window and the rest left by the run. */
    std::size_t restarts = 9;
    /** Idle one-at-a-time QUERY round trips timed before the load. */
    std::size_t probes = 0;
    std::string out;      //!< Summary JSON.
    std::string samples;  //!< One line per measured command.
    std::string oracle;   //!< Final elasticities and QUERY replies.
    /** ref_serve and its flags; --listen must pick port 0. */
    std::vector<std::string> server;
};

/** In-process replay through the service's public functions. */
struct ReplayOptions
{
    /** Commands replayed with spans on. */
    std::size_t ops = 1000;
    /** Leading commands replayed again with spans off. */
    std::size_t untracedOps = 500;
    std::string workdir;  //!< Journal directory parent.
    std::string out;      //!< Summary JSON.
    std::string trace;    //!< Span dump (Chrome trace-event JSON).
    /** The ref_serve flags the socket run uses; the replay builds
     *  the same service configuration from them. */
    std::vector<std::string> server;
};

/** Print the seeded command stream: preload, then @p ops commands
 *  taken from the connections in turn. */
void printStream(const Params &params, std::size_t ops);

int drive(const Params &params, const DriveOptions &options);
int replay(const Params &params, const ReplayOptions &options);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
