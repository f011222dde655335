"""Pure functions of the service benchmark: percentiles, the REF
oracle, span trees and the metric tables. run.py does the I/O."""

import math
import statistics

# Every reported percentile must leave at least this many samples above
# it in every run, so that one outlier cannot move it.
MIN_BEYOND = 10

CAPACITY = (24.0, 12.0)

WRITE_KINDS = ("admit", "update", "depart", "assign")
OP_KINDS = ("admit", "update", "depart", "tick", "query", "assign")

# Units of every metric; BENCHMARK.json lists the same names.
E2E_UNITS = {
    "ops_per_s": "1/s", "tick_alone_p75_ms": "ms",
    "write_stall_p75_ms": "ms", "query_stall_p75_ms": "ms",
    "setup_s": "s", "recovery_s": "s",
    "server_cpu_ms_per_op": "ms", "server_rss_mb": "MiB",
}
LAYER_UNITS = {
    "epoch.ef_check_ms": "ms", "epoch.si_check_ms": "ms",
    "epoch.allocate_ms": "ms", "epoch.plan_ms": "ms",
    "epoch.unattributed_ms": "ms", "epoch.live_agents": "count",
    "service.tick_p50_ms": "ms", "service.tick_p90_ms": "ms",
    "service.write_us": "us", "service.query_us": "us",
    "service.state_hash_ms": "ms",
    "journal.append_us": "us", "journal.barrier_ms": "ms",
    "journal.bytes_per_op": "B", "journal.fsyncs_per_1k_ops": "count",
    "journal.compact_ms": "ms", "journal.replay_ms": "ms",
    "repl.on_record_us": "us",
    "wire.decode_ns": "ns", "wire.encode_reply_ns": "ns",
    **{f"protocol.exec_us.{k}": "us" for k in OP_KINDS},
    "protocol.text_parse_ns": "ns",
    "pool.admit_us": "us", "pool.assign_us": "us", "pool.update_us": "us",
    "pool.depart_us": "us", "pool.shares_us": "us", "pool.setup_ms": "ms",
    "obs.fairness_append_us": "us",
    "net.rtt_p50_us": "us", "net.bytes_per_op": "B",
    "net.queue_wait_p95_ms": "ms",
    **{f"self.{layer}_us_per_op": "us" for layer in
       ("bench", "wire", "protocol", "svc", "journal", "repl")},
    "trace.overhead_frac": "frac",
}


def beyond(n, pct):
    """Samples strictly above the nearest-rank pct-th percentile of n."""
    return n - math.ceil(pct / 100.0 * n)


def percentile(values, pct):
    """Nearest-rank percentile; raises when fewer than MIN_BEYOND
    samples lie beyond it."""
    n = len(values)
    if n == 0 or beyond(n, pct) < MIN_BEYOND:
        raise ValueError(
            f"p{pct} of {n} samples leaves {beyond(n, pct) if n else 0} "
            f"beyond it; need {MIN_BEYOND}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


def ref_shares(elasticities, capacity=CAPACITY):
    """REF's closed form (Eq. 13): each agent's elasticities re-scaled
    to sum to one, then every resource split in proportion to them.
    The per-resource sums use math.fsum, so the result does not depend
    on agent order."""
    rescaled = [[e / sum(row) for e in row] for row in elasticities]
    totals = [math.fsum(row[r] for row in rescaled)
              for r in range(len(capacity))]
    return [[row[r] / totals[r] * capacity[r] for r in range(len(capacity))]
            for row in rescaled]


def check_shares(rows, capacity=CAPACITY, rel_tol=1e-9):
    """rows: (name, [elasticity text], reply line). Returns the list of
    problems; empty when every QUERY reply matches the closed form."""
    expected = ref_shares([[float(e) for e in es] for _, es, _ in rows],
                          capacity)
    problems = []
    for (name, _, reply), want in zip(rows, expected):
        fields = reply.split()
        if len(fields) != 2 + len(capacity) or fields[:2] != ["SHARE", name]:
            problems.append(f"{name}: unexpected reply {reply!r}")
            continue
        got = [float(f) for f in fields[2:]]
        if not all(math.isclose(g, w, rel_tol=rel_tol, abs_tol=0.0)
                   for g, w in zip(got, want)):
            problems.append(f"{name}: got {got}, closed form {want}")
    return problems


def parse_oracle(text):
    """Lines 'name e0 e1 | SHARE ...' written by perfbench drive."""
    rows = []
    for line in text.splitlines():
        left, _, reply = line.partition(" | ")
        name, *es = left.split()
        rows.append((name, es, reply))
    return rows


def parse_samples(text):
    """Lines 'kind latency_ns ok after_tick' written by perfbench drive;
    after_tick is 1 when another connection's TICK was outstanding as
    the command was sent."""
    samples = []
    for line in text.splitlines():
        kind, lat, ok, after_tick = line.split()
        samples.append((kind, int(lat), ok == "1", after_tick == "1"))
    return samples


def stalled(values, ticks):
    """The commands among values (ms) that queued behind a TICK: those
    that took at least half the run's median TICK latency. The rest
    cost one round trip, at least ten times less on both workloads."""
    cut = median(ticks) / 2
    return [v for v in values if v >= cut]


def end_to_end(summary, samples):
    """The socket run's metrics (see README.md)."""
    ticks = [s[1] / 1e6 for s in samples if s[0] == "tick"]
    alone = [s[1] / 1e6 for s in samples if s[0] == "tick" and not s[3]]
    writes = [s[1] / 1e6 for s in samples if s[0] in WRITE_KINDS]
    queries = [s[1] / 1e6 for s in samples if s[0] == "query"]
    completed = len(samples)
    cpu_ms = summary["cpu_ticks"] * 1000.0 / summary["clk_tck"]
    return {
        "ops_per_s": completed / (summary["elapsed_ns"] / 1e9),
        "tick_alone_p75_ms": percentile(alone, 75),
        "write_stall_p75_ms": percentile(stalled(writes, ticks), 75),
        "query_stall_p75_ms": percentile(stalled(queries, ticks), 75),
        "setup_s": median(summary["setup_ns"]) / 1e9,
        # A memory-only server recovers by being set up again, which
        # is what setup_ns times; a journaled one restarts on its wal.
        "recovery_s": median(summary["recovery_ns"]
                             or summary["setup_ns"]) / 1e9,
        "server_cpu_ms_per_op": cpu_ms / max(1, completed),
        "server_rss_mb": summary["peak_kb"] / 1024.0,
    }


class Trace:
    """Spans of the traced replay with parents and self times.

    Spans with an explicit parent (the replay's shadow calls) keep it;
    the rest nest by time inside their request, which is how the
    program's own spans find the replay span that called them. A span's
    self time is its duration minus the time its nested children cover;
    shadow calls run after their parent closes, so they do not count."""

    def __init__(self, events):
        self.spans = []
        for e in events:
            a = e["args"]
            self.spans.append({"name": e["name"], "cat": e["cat"],
                               "start": round(e["ts"] * 1000),
                               "dur": round(e["dur"] * 1000),
                               "id": a["id"], "parent": a["parent"],
                               "req": a["req"], "nested_ns": 0})
        self.by_id = {s["id"]: s for s in self.spans}
        by_req = {}
        for s in self.spans:
            if s["parent"] < 0:
                by_req.setdefault(s["req"], []).append(s)
        for group in by_req.values():
            group.sort(key=lambda s: (s["start"], -s["dur"]))
            stack = []
            for s in group:
                end = s["start"] + s["dur"]
                while stack and stack[-1]["start"] + stack[-1]["dur"] < end:
                    stack.pop()
                if stack:
                    s["parent"] = stack[-1]["id"]
                    stack[-1]["nested_ns"] += s["dur"]
                stack.append(s)
        self.children = {}
        for s in self.spans:
            s["self"] = s["dur"] - s["nested_ns"]
            self.children.setdefault(s["parent"], []).append(s)

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def kids(self, span):
        return self.children.get(span["id"], [])

    def op_kind(self, span):
        """The kind of the op.<kind> span a span runs under."""
        while span["parent"] in self.by_id:
            span = self.by_id[span["parent"]]
        return span["name"][3:] if span["name"].startswith("op.") else "other"


# Program and replay span categories that make up the request path.
LAYER_OF_CATEGORY = {"bench": "bench", "wire": "wire", "protocol": "protocol",
                     "proto": "protocol", "svc": "svc", "journal": "journal",
                     "repl": "repl"}
PATH_LAYERS = ("bench", "wire", "protocol", "svc", "journal", "repl")
EPOCH_PHASES = ("epoch.allocate", "epoch.si_check", "epoch.ef_check",
                "epoch.plan")


def per_layer(trace, replay, probe, probe_samples):
    """The traced run's metrics (see README.md). probe is the socket
    run's summary, probe_samples its commands."""
    def med(name, scale):
        return median([s["dur"] / scale for s in trace.named(name)])

    ops = replay["ops"]
    tick_of_req = {s["req"]: s for s in trace.named("epoch.tick")}
    unattributed = []
    for op in trace.named("op.tick"):
        shadows = {k["name"]: k["dur"] for k in trace.kids(op)}
        if "service.state_hash" not in shadows or op["req"] not in tick_of_req:
            continue
        timed = sum(shadows.get(n, 0) for n in EPOCH_PHASES)
        unattributed.append((tick_of_req[op["req"]]["dur"] - timed
                             - shadows["service.state_hash"]) / 1e6)

    cmd_of_req = {s["req"]: s for s in trace.spans
                  if s["name"].startswith("cmd.")}
    exec_by_kind = {}
    parse_ns = []
    for s in trace.named("protocol.execute"):
        exec_by_kind.setdefault(trace.op_kind(s), []).append(s["dur"])
        if s["req"] in cmd_of_req:
            parse_ns.append(s["dur"] - cmd_of_req[s["req"]]["dur"])
    op_by_kind = {}
    for s in trace.spans:
        if s["name"].startswith("op."):
            op_by_kind.setdefault(s["name"][3:], []).append(s["dur"])

    barriers = [s["dur"] / 1e6 for s in trace.named("journal.barrier")
                if any(k["name"] == "journal.fsync" for k in trace.kids(s))]
    self_ns = {}
    for s in trace.spans:
        layer = LAYER_OF_CATEGORY.get(s["cat"])
        if layer:
            self_ns[layer] = self_ns.get(layer, 0) + s["self"]
    tick_ms = [s["dur"] / 1e6 for s in trace.named("epoch.tick")]

    m = {
        "epoch.ef_check_ms": med("epoch.ef_check", 1e6),
        "epoch.si_check_ms": med("epoch.si_check", 1e6),
        "epoch.allocate_ms": med("epoch.allocate", 1e6),
        "epoch.plan_ms": med("epoch.plan", 1e6),
        "epoch.unattributed_ms": median(unattributed),
        "epoch.live_agents": median(replay["live_at_tick"]),
        "service.tick_p50_ms": percentile(tick_ms, 50),
        "service.tick_p90_ms": percentile(tick_ms, 90),
        "service.write_us": median([s["dur"] / 1e3 for s in trace.spans
                                    if s["name"] in ("cmd.admit", "cmd.update",
                                                     "cmd.depart",
                                                     "cmd.pool")]),
        "service.query_us": med("cmd.query", 1e3),
        "service.state_hash_ms": med("service.state_hash", 1e6),
        "journal.append_us": med("journal.append", 1e3),
        "journal.barrier_ms": median(barriers),
        "journal.bytes_per_op": probe["journal_bytes"] / probe["sent"],
        "journal.fsyncs_per_1k_ops": (probe["journal_fsyncs"] * 1000.0
                                      / probe["sent"]),
        "journal.compact_ms": med("snapshot.write", 1e6),
        "journal.replay_ms": replay["recovery_ns"] / 1e6,
        "repl.on_record_us": med("repl.on_record", 1e3),
        "wire.decode_ns": med("wire.decode", 1),
        "wire.encode_reply_ns": med("wire.encode_reply", 1),
        "protocol.text_parse_ns": median(parse_ns),
        "pool.admit_us": med("pool.admit", 1e3),
        "pool.assign_us": med("pool.assign", 1e3),
        "pool.update_us": med("pool.update", 1e3),
        "pool.depart_us": med("pool.depart", 1e3),
        "pool.shares_us": med("pool.shares", 1e3),
        "pool.setup_ms": replay["pool_setup_ns"] / 1e6,
        "obs.fairness_append_us": med("obs.fairness_append", 1e3),
        "trace.overhead_frac": (replay["traced_prefix_ns"]
                                / replay["untraced_prefix_ns"] - 1.0),
    }
    for kind in OP_KINDS:
        m[f"protocol.exec_us.{kind}"] = median(exec_by_kind.get(kind, [])) / 1e3
    for layer in PATH_LAYERS:
        m[f"self.{layer}_us_per_op"] = self_ns.get(layer, 0) / 1e3 / ops

    # The transport: the idle round trip beyond the in-process QUERY,
    # and the wait a loaded command spends beyond its in-process time.
    service_ns = {k: median(v) for k, v in op_by_kind.items()}
    m["net.rtt_p50_us"] = (percentile(probe["rtt_ns"], 50)
                           - median(exec_by_kind.get("query", []))) / 1e3
    m["net.bytes_per_op"] = probe["bytes"] / max(1, probe["sent"])
    waits = [(lat - service_ns.get(kind, 0)) / 1e6
             for kind, lat, *_ in probe_samples]
    m["net.queue_wait_p95_ms"] = percentile(waits, 95)
    return m
