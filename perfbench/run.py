#!/usr/bin/env python3
"""The REF allocation service benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. Builds ref_serve and the perfbench
program (Release, into $CARGO_TARGET_DIR or .bench_build), then:

  --trace 0  drives an unmodified ref_serve over loopback sockets and
             prints the end-to-end metrics;
  --trace 1  repeats a shorter socket run for the transport figures and
             replays the same seeded command stream in process with a
             span around every layer call, printing per-layer metrics.

Every run checks the service's answers (see README.md) and prints, as
its last stdout line, {"correct", "attempted", "failed", "metrics"}.
The full record, with machine, build and server flags, goes to
.bench_out/. --workload all runs every workload in turn.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

DEFAULT_SEED = 1
# Held out while the benchmark was tuned; confirm claims on it too.
HELDOUT_SEED = 9001

SERVER_BASE = ["--capacity", "24,12", "--listen", "127.0.0.1:0",
               "--shards", "1"]
CONNECTIONS = 4
# Servers set up per socket run (setup_s is their median), and
# restarts of a journaled server (recovery_s is their median).
SETUPS = 9
RESTARTS = 15

# Mix weights are ADMIT:UPDATE:DEPART:TICK:QUERY. README.md says why
# each workload exists, and why durable_churn_64 is not one of them.
WORKLOADS = {
    "epoch_flat_1k": {
        "agents": 1000, "pools": 0, "mix": "1,8,1,1,9", "binary": True,
        "server": ["--journal", "{journal}",
                   "--fsync-policy", "group:65536,2000"],
        "replay_ops": 2200,
    },
    "pooled_100k": {
        "agents": 100000, "pools": 64, "mix": "1,4,1,2,4", "binary": False,
        "server": ["--pooled"], "replay_ops": 800,
    },
}

PROBES = 200


class Failure(Exception):
    pass


def build():
    """Configure and build in Release; returns (perfbench, ref_serve)."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(os.path.abspath(root), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs,
                 "--target", "perfbench", "ref_serve"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850).returncode != 0:
            raise Failure("build failed: " + " ".join(cmd))
    return (os.path.join(out, "perfbench"),
            os.path.join(out, "ref", "tools", "ref_serve"), out)


def call(cmd, timeout):
    """Run cmd in its own process group; on timeout the whole group,
    ref_serve children included, is killed and reaped."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise Failure(f"timed out after {timeout}s: {cmd[1]}")
    if code != 0:
        raise Failure(f"perfbench {cmd[1]} exited {code}")


def workload_flags(w, seed):
    flags = ["--seed", str(seed), "--agents", str(w["agents"]),
             "--pools", str(w["pools"]), "--mix", w["mix"],
             "--conns", str(CONNECTIONS)]
    return flags + (["--binary"] if w["binary"] else [])


def machine(build_dir):
    """What the numbers came from."""
    info = {"nproc": os.cpu_count(), "build_type": "Release",
            "python": platform.python_version(), "kernel": platform.release()}
    for path in sorted(_glob(os.path.join(build_dir, "CMakeFiles"),
                             "CMakeCXXCompiler.cmake")):
        text = open(path).read()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            info["compiler"] = f"{ident.group(1)} {version.group(1)}"
    git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    info["git_sha"] = git.stdout.strip() if git.returncode == 0 else None
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        for path in sorted(_glob(os.path.join(ROOT, top), "")):
            digest.update(os.path.relpath(path, ROOT).encode())
            digest.update(open(path, "rb").read())
    info["source_sha256"] = digest.hexdigest()
    return info


def _glob(top, suffix):
    if os.path.isfile(top):
        return [top]
    found = []
    for dirpath, _, files in os.walk(top):
        found += [os.path.join(dirpath, f) for f in files
                  if f.endswith(suffix)]
    return found


def drive(perfbench, w, seed, seconds, server, work, setups, restarts,
          probes):
    cmd = [perfbench, "drive", *workload_flags(w, seed),
           "--seconds", str(seconds),
           "--setups", str(setups), "--restarts", str(restarts),
           "--probes", str(probes),
           "--out", os.path.join(work, "drive.json"),
           "--samples", os.path.join(work, "samples.txt"),
           "--oracle", os.path.join(work, "oracle.txt"), "--", *server]
    call(cmd, timeout=seconds + 150)
    summary = json.load(open(os.path.join(work, "drive.json")))
    samples = benchlib.parse_samples(
        open(os.path.join(work, "samples.txt")).read())
    rows = benchlib.parse_oracle(open(os.path.join(work, "oracle.txt")).read())
    return summary, samples, rows


def check_drive(summary, rows, w):
    """Everything that makes a socket run wrong; empty when it is right."""
    problems = benchlib.check_shares(rows)[:5]
    if len(rows) != w["agents"]:
        problems.append(f"{len(rows)} live agents, expected {w['agents']}")
    if summary["epoch_failures"]:
        problems.append(f"{summary['epoch_failures']} EPOCH replies failed "
                        "a property or self check")
    if not summary["clean_exit"]:
        problems.append("ref_serve did not exit cleanly after SHUTDOWN")
    # Restarts run on journaled workloads only.
    if summary["recovery_hashes"] != summary["recovery_expected"]:
        problems.append(f"state_hash {summary['recovery_expected']} before "
                        f"restart, {summary['recovery_hashes']} after")
    if any(n != summary["tail_records"]
           for n in summary["recovery_replayed"]):
        problems.append(f"restarts replayed {summary['recovery_replayed']} "
                        f"wal records, expected {summary['tail_records']}")
    if summary["errors"]:
        problems.append(f"{summary['errors']} ERR replies")
    return problems


def run_workload(name, seed, seconds, trace, tools):
    perfbench, ref_serve, build_dir = tools
    w = WORKLOADS[name]
    work = os.path.abspath(os.path.join(
        ".bench_run", f"{name}-seed{seed}-{os.getpid()}"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    journal = os.path.join(work, "journal")
    server = [ref_serve, *SERVER_BASE,
              *[a.format(journal=journal) for a in w["server"]]]
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "loop": "closed", "connections": CONNECTIONS,
              "ref_serve_flags": server[1:], "machine": machine(build_dir)}
    problems = []
    metrics = {}
    try:
        if not trace:
            summary, samples, rows = drive(
                perfbench, w, seed, seconds, server, work, SETUPS, RESTARTS,
                0)
            problems += check_drive(summary, rows, w)
            metrics = benchlib.end_to_end(summary, samples)
            units = benchlib.E2E_UNITS
        else:
            summary, samples, rows = drive(
                perfbench, w, seed, seconds / 2, server, work, 1, 1, PROBES)
            problems += check_drive(summary, rows, w)
            out = os.path.join(work, "replay.json")
            trace_path = os.path.join(work, "trace.json")
            call([perfbench, "replay", *workload_flags(w, seed),
                  "--ops", str(w["replay_ops"]),
                  "--untraced-ops", str(w["replay_ops"] // 2),
                  "--workdir", work, "--out", out, "--trace", trace_path,
                  "--", *server], timeout=170)
            replay = json.load(open(out))
            for key in ("failures", "epoch_failures",
                        "allocation_mismatches"):
                if replay[key]:
                    problems.append(f"replay: {replay[key]} {key}")
            tr = benchlib.Trace(json.load(open(trace_path))["traceEvents"])
            metrics = benchlib.per_layer(tr, replay, summary, samples)
            units = benchlib.LAYER_UNITS
            os.makedirs(".bench_out", exist_ok=True)
            shutil.copy(trace_path, os.path.join(
                ".bench_out", f"trace-{name}-seed{seed}.json"))
        attempted = summary["sent"]
        failed = summary["errors"]
    except ValueError as error:  # a percentile without enough samples
        problems.append(str(error))
        attempted, failed = 1, 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update({"correct": not problems, "problems": problems,
                   "attempted": attempted, "failed": failed,
                   "err_frac": failed / max(1, attempted),
                   "metrics": {k: {"value": v, "unit": units[k]}
                               for k, v in metrics.items()}})
    os.makedirs(".bench_out", exist_ok=True)
    path = os.path.join(".bench_out",
                        f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    for problem in problems:
        print(f"{name}: FAILED CHECK: {problem}", file=sys.stderr)
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        tools = build()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                                tools) for n in names]
    except (Failure, OSError, subprocess.SubprocessError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    for r in records:
        for k, m in r["metrics"].items():
            print(f"{r['workload']:18} {k:28} {m['value']:14.6g} {m['unit']}")
        print(f"{r['workload']:18} {'err_frac':28} {r['err_frac']:14.6g} "
              "frac")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m
                   for r in records for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
