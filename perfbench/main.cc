/**
 * @file
 * perfbench: the service benchmark's load generator and traced replay.
 *
 *   perfbench stream WORKLOAD-FLAGS --ops N
 *   perfbench drive  WORKLOAD-FLAGS --seconds S
 *                    [--setups K] [--restarts K] [--probes N] --out F
 *                    --samples F --oracle F -- REF_SERVE-ARGV...
 *   perfbench replay WORKLOAD-FLAGS --ops N --untraced-ops M
 *                    --workdir D --out F --trace F
 *                    -- REF_SERVE-ARGV...
 *
 * WORKLOAD-FLAGS: --seed N --agents N [--pools N] --mix A,U,D,T,Q
 * [--binary] [--conns N]. perfbench/run.py picks them per workload.
 */

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "bench.hh"
#include "util/logging.hh"

namespace perfbench {

void
printStream(const Params &params, std::size_t ops)
{
    Stream stream(params);
    for (const Op &op : stream.preload())
        std::cout << "setup " << op.line << "\n";
    for (std::size_t i = 0; i < ops; ++i) {
        const std::size_t conn = i % params.conns;
        std::cout << "c" << conn << " " << stream.next(conn).line << "\n";
    }
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    try {
        REF_REQUIRE(argc >= 2, "usage: perfbench stream|drive|replay ...");
        const std::string mode = argv[1];
        Params params;
        DriveOptions drive;
        ReplayOptions replay;
        std::size_t ops = 0;
        std::vector<std::string> server;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--") {
                server.assign(argv + i + 1, argv + argc);
                break;
            }
            if (arg == "--binary") {
                params.binary = true;
                continue;
            }
            REF_REQUIRE(i + 1 < argc, "missing value for " << arg);
            const std::string value = argv[++i];
            const auto count = [&] {
                return static_cast<std::size_t>(std::stoull(value));
            };
            if (arg == "--seed") {
                params.seed = std::stoull(value);
            } else if (arg == "--agents") {
                params.agents = count();
            } else if (arg == "--pools") {
                params.pools = count();
            } else if (arg == "--conns") {
                params.conns = count();
            } else if (arg == "--mix") {
                std::stringstream cells(value);
                std::string cell;
                for (unsigned &weight : params.mix) {
                    REF_REQUIRE(std::getline(cells, cell, ','),
                                "--mix wants five weights");
                    weight = static_cast<unsigned>(std::stoul(cell));
                }
            } else if (arg == "--ops") {
                ops = count();
            } else if (arg == "--seconds") {
                drive.seconds = std::stod(value);
            } else if (arg == "--setups") {
                drive.setups = count();
            } else if (arg == "--restarts") {
                drive.restarts = count();
            } else if (arg == "--probes") {
                drive.probes = count();
            } else if (arg == "--samples") {
                drive.samples = value;
            } else if (arg == "--oracle") {
                drive.oracle = value;
            } else if (arg == "--untraced-ops") {
                replay.untracedOps = count();
            } else if (arg == "--workdir") {
                replay.workdir = value;
            } else if (arg == "--trace") {
                replay.trace = value;
            } else if (arg == "--out") {
                drive.out = value;
                replay.out = value;
            } else {
                REF_FATAL("unknown argument " << arg);
            }
        }
        if (mode == "stream") {
            printStream(params, ops);
            return 0;
        }
        if (mode == "drive") {
            drive.server = server;
            return perfbench::drive(params, drive);
        }
        if (mode == "replay") {
            replay.ops = ops;
            replay.server = server;
            return perfbench::replay(params, replay);
        }
        REF_FATAL("unknown mode " << mode);
    } catch (const std::exception &error) {
        std::cerr << "perfbench: " << error.what() << "\n";
        return 2;
    }
}
