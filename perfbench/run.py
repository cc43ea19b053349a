#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload nren_ops --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With ``--trace 0`` the run measures the workload for ``--seconds`` and
reports the end-to-end metrics, its timings stated at a reference host
speed (``perfbench/hostspeed.py``); with ``--trace 1`` it alternates an
untraced and a traced replay of the workload's first block and reports
the per-layer metrics.  ``--workload all`` runs every workload, untraced
and then traced, each in its own process.  ``--smoke`` shrinks every
workload for the benchmark's own tests.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
if sys.path and os.path.abspath(sys.path[0] or ".") == HERE:
    sys.path[0] = ROOT
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import hostspeed, stats  # noqa: E402
from perfbench.tracing import ProgramCounters  # noqa: E402

from perfbench.workloads import WORKLOADS, Op, rate, warm_up  # noqa: E402

#: Fixture builds per run; ``setup_s`` reports the median build.
FIXTURE_REPEATS = 3

#: Program counters that must repeat exactly per seed: the program's
#: own (MetricsRegistry) plus ``dataplane.traces``, counted by the bench.
DETERMINISTIC_COUNTERS = (
    "bgp.messages",
    "ospf.spf_runs",
    "ospf.route_tables_computed",
    "design.rules_applied",
    "render.files_written",
    "render.bytes_written",
    "engine.files_written",
    "dataplane.traces",
    "traffic.flows_offered",
    "measure.commands_sent",
    "measure.rows_parsed",
    "liveupdate.ops_applied",
    "engine.cache_hits",
    "engine.cache_misses",
    "campaign.trials_executed",
    "campaign.trials_deferred",
)


# -- running steps -----------------------------------------------------------
def run_step(workload, index: int, counters: dict | None):
    """One step under a fresh telemetry bundle; garbage is collected after.

    With ``counters``, the step's program counters are added to it,
    summed over every telemetry bundle the step creates.
    """
    from repro.observability import Telemetry

    with ProgramCounters() if counters is not None else contextlib.nullcontext() as program:
        telemetry = Telemetry()
        with telemetry.activate():
            try:
                ops = workload.step(index)
            except Exception as error:  # a crashed step is a failed op, not a crash
                ops = [Op("error", None, False,
                          "step %d: %s: %s" % (index, type(error).__name__, error))]
    if counters is not None:
        for name in DETERMINISTIC_COUNTERS:
            counters[name] = counters.get(name, 0) + program.totals[name]
        for name, value in getattr(workload, "step_counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    del telemetry
    gc.collect()
    return ops


def run_block(workload, counters=None) -> list:
    ops = []
    for index in range(workload.block_steps):
        ops += run_step(workload, index, counters)
    return ops


def timed_seconds(ops) -> float:
    return sum(op.seconds for op in ops if op.seconds is not None)


# -- metrics -----------------------------------------------------------------
def end_to_end(workload, ops: list, setup_s: float, first_op_s: float) -> tuple[dict, list]:
    """The result-line metrics plus the human-readable rows naming them."""
    name = workload.name
    latencies = [
        op.seconds * 1000.0 for op in ops
        if op.kind == workload.latency_kind and op.seconds is not None
    ]
    if not latencies:
        raise RuntimeError("no %s call completed" % workload.latency_kind)
    p50 = stats.median(latencies)
    tail = stats.tail(latencies)
    throughput = workload.throughput(ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The median latency is printed but not gated: on a shared host the
    # per-run median of like-sized calls follows whichever speed the
    # host held for most of the run, while the tail stays on its usual
    # (slower) speed; see perfbench/README.md, "Measured spread".
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "latency_tail_ms": (tail.value, "ms"),
        "throughput_per_s": (throughput, "1/s"),
    }
    tail_note = "p%.1f of %d samples%s" % (
        tail.percentile, tail.samples,
        "" if tail.qualified else "; fewer than %d beyond any percentile, max shown"
        % stats.TAIL_BEYOND,
    )
    named = [
        ("setup_s", setup_s, "s", "warm-up + median of %d fixture builds" % FIXTURE_REPEATS),
        ("setup_first_op_s", first_op_s, "s", "process start to the first timed call"),
        ("peak_rss_mb", rss_mb, "MB", ""),
    ]
    if name == "nren_deploy":
        single = "" if len(latencies) > 1 else "; one deploy: p50, tail and rate are one sample"
        named += [
            ("deploy_s", p50 / 1000.0, "s", "median of %d%s" % (len(latencies), single)),
            ("deploy_tail_ms", tail.value, "ms", tail_note),
            ("routers_per_s", throughput, "1/s", "routers / deploy time" + single),
        ]
    elif name == "nren_ops":
        first, last = lab_age(latencies)
        by_label = {
            label: [op.seconds * 1000.0 for op in ops if op.kind == "write" and op.label == label]
            for label in ("link", "plan")
        }
        named += [
            ("change_p50_ms", p50, "ms", "%d writes" % len(latencies)),
            ("change_tail_ms", tail.value, "ms", tail_note),
        ]
        named += [
            ("write_%s_p50_ms" % label, stats.median(values), "ms",
             "%d %s writes" % (len(values), label))
            for label, values in by_label.items() if values
        ]
        named += [
            ("ops_per_s", throughput, "1/s", "calls / time in them, reads and writes"),
            ("flows_per_s", rate(ops, ("traffic",)), "1/s", "offered flows / time in run_traffic"),
            ("traceroutes_per_s", rate(ops, ("traceroute",)), "1/s",
             "traceroutes / time in measurement.send"),
            ("write_p50_first_quarter_ms", first, "ms", "lab age"),
            ("write_p50_last_quarter_ms", last, "ms", "lab age"),
        ]
    else:
        named += [
            ("trials_per_min", 60.0 * throughput, "1/min", "trials / time in CampaignRunner.run"),
            ("trial_p50_ms", p50, "ms", "%d trials" % len(latencies)),
            ("trial_tail_ms", tail.value, "ms", tail_note),
        ]
    return metrics, named


def lab_age(latencies: list) -> tuple[float, float]:
    """Median write latency in the first and in the last quarter of the run."""
    quarter = max(1, len(latencies) // 4)
    return stats.median(latencies[:quarter]), stats.median(latencies[-quarter:])


def per_layer(tracers: list, overhead: float) -> dict:
    """Per-layer metrics: the median over traced blocks of each quantity."""

    def med(read):
        return stats.median(read(tracer) for tracer in tracers)

    def call_ms_median(layer):
        return lambda t: 1000.0 * stats.median(t.call_seconds[layer]) if t.call_seconds[layer] else 0.0

    count = lambda key: med(lambda t: t.counts[key])  # noqa: E731
    own = lambda layer: med(lambda t: t.self_seconds(layer))  # noqa: E731
    rows = {
        "design.s": (own("design"), "s"),
        "design.ibgp_sessions": (count("design.ibgp_sessions"), "count"),
        "compilers.s": (own("compilers"), "s"),
        "render.s": (own("render"), "s"),
        "render.files": (count("render.files"), "count"),
        "render.bytes": (count("render.bytes"), "bytes"),
        "deployment.archive_s": (own("deployment.archive"), "s"),
        "deployment.transfer_s": (own("deployment.transfer"), "s"),
        "deployment.extract_s": (own("deployment.extract"), "s"),
        "deployment.archive_bytes": (count("deployment.archive_bytes"), "bytes"),
        "emulation.parse_s": (own("emulation.parse"), "s"),
        "emulation.configs_parsed": (count("emulation.configs_parsed"), "count"),
        "emulation.boot_s": (own("emulation.boot"), "s"),
        "emulation.bgp_messages": (count("emulation.bgp_messages"), "count"),
        "emulation.spf_runs": (med(lambda t: t.registry["ospf.spf_runs"]), "count"),
        "emulation.route_tables_computed": (
            med(lambda t: t.registry["ospf.route_tables_computed"]), "count"),
        "emulation.reconverge_ms": (med(call_ms_median("emulation.reconverge")), "ms"),
        "emulation.reconverge_bgp_messages": (
            count("emulation.reconverge_bgp_messages"), "count"),
        "liveupdate.apply_ms": (med(call_ms_median("liveupdate.apply")), "ms"),
        "liveupdate.ops_applied": (count("liveupdate.ops_applied"), "count"),
        "emulation.dataplane_traces": (med(lambda t: t.calls["emulation.dataplane_trace"]), "count"),
        "emulation.dataplane_trace_s": (own("emulation.dataplane_trace"), "s"),
        "traffic.run_s": (own("traffic.run"), "s"),
        "traffic.flows_offered": (count("traffic.flows_offered"), "count"),
        "traffic.delivered_ratio": (
            med(lambda t: stats.ratio(t.counts["traffic.flows_delivered"],
                                      t.counts["traffic.flows_offered"])), "ratio"),
        "measurement.send_s": (own("measurement.send"), "s"),
        "measurement.rows_parsed": (count("measurement.rows_parsed"), "count"),
        "campaign.trial_p50_s": (
            med(lambda t: stats.median(t.call_seconds["campaign.trial"])
                if t.call_seconds["campaign.trial"] else 0.0), "s"),
        "campaign.store_append_s": (med(lambda t: t.busy["campaign.store_append"]), "s"),
        "campaign.store_appends": (med(lambda t: t.calls["campaign.store_append"]), "count"),
        "supervision.journal_s": (med(lambda t: t.busy["supervision.journal"]), "s"),
        "supervision.journal_appends": (med(lambda t: t.calls["supervision.journal"]), "count"),
        "engine.cache_hit_ratio": (
            med(lambda t: stats.ratio(t.counts["engine.cache_hits"],
                                      t.counts["engine.cache_lookups"])), "ratio"),
        "bench.trace_overhead_ratio": (overhead, "ratio"),
    }
    return rows


# -- determinism of counters -------------------------------------------------
def source_fingerprint() -> str:
    """Hash of the program's and the benchmark's sources.

    Counters are compared only between runs of the same code: a change
    to either side may change what a seed counts.  The benchmark's
    prose (``README.md``) is left out.
    """
    digest = hashlib.sha256()
    for tree in (os.path.join(ROOT, "src"), HERE):
        for folder, dirs, files in os.walk(tree):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith((".pyc", ".md")):
                    continue
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_counters(name: str, seed: int, smoke: bool, counters: dict) -> list[str]:
    """Compare with the counters an earlier run of this seed recorded.

    Returns one message per counter that differs; the first run of a
    seed records its counters and returns nothing.
    """
    folder = os.path.join(STATE, "counters")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, "%s-%d%s-%s.json" % (
        name, seed, "-smoke" if smoke else "", source_fingerprint()))
    if not os.path.exists(path):
        with open(path, "w") as handle:
            json.dump(counters, handle, sort_keys=True, indent=1)
        return []
    with open(path) as handle:
        recorded = json.load(handle)
    return [
        "nondeterministic counter %s: %r now, %r in an earlier run of seed %d"
        % (key, counters.get(key), recorded.get(key), seed)
        for key in sorted(set(recorded) | set(counters))
        if recorded.get(key) != counters.get(key)
    ]


# -- one workload ------------------------------------------------------------
def run_workload(args) -> dict:
    # The end-to-end run samples the host's speed from start to end and
    # states its timings at the reference speed (perfbench/hostspeed.py);
    # the traced run reports wall-clock layer times.
    with contextlib.ExitStack() as stack:
        speed = None if args.trace else stack.enter_context(hostspeed.HostSpeed())
        warm_up()
        workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
        warm = (START, time.perf_counter() - START)
        # The fixture is built FIXTURE_REPEATS times and setup_s reports
        # the median build, which is steadier than one build; the real
        # time to the first timed call is printed beside it as
        # setup_first_op_s.
        builds = []
        for _ in range(FIXTURE_REPEATS):
            gc.collect()
            begin = time.perf_counter()
            workload.fixture()
            builds.append((begin, time.perf_counter() - begin))
        gc.collect()
        first_op_s = time.perf_counter() - START

        counters: dict = {}
        tracers = []
        if args.trace:
            from perfbench.tracing import LayerTracer

            # Untraced and traced replays of block 0 alternate, swapping
            # which goes first in every pair, so process warm-up does not
            # bias the overhead ratio one way.
            plain, traced, ops = [], [], []
            begin = time.perf_counter()
            while not plain or time.perf_counter() - begin < args.seconds:
                for traced_turn in ((False, True) if len(plain) % 2 == 0 else (True, False)):
                    if traced_turn:
                        with LayerTracer() as tracer:
                            block = run_block(workload)
                        traced.append(timed_seconds(block))
                        tracers.append(tracer)
                    else:
                        block = run_block(workload, counters if not plain else None)
                        plain.append(timed_seconds(block))
                    ops += block
            overhead = stats.ratio(stats.median(traced), stats.median(plain))
        else:
            # Whole blocks only, so every run has the same mix of calls,
            # and after the first only blocks that fit in --seconds
            # (judged by the last block's time), so a long step is never
            # run twice.
            ops = []
            begin = time.perf_counter()
            index = 0
            while True:
                started = time.perf_counter()
                for _ in range(workload.block_steps):
                    ops += run_step(workload, index,
                                    counters if index < workload.block_steps else None)
                    index += 1
                now = time.perf_counter()
                if (now - begin) + (now - started) > args.seconds:
                    break
        ops += workload.final_checks()
    problems = check_counters(args.workload, args.seed, args.smoke, counters)
    ops += [Op("check", None, False, problem) for problem in problems]

    attempted = [op for op in ops if op.kind != "pass"]
    failures = [op for op in attempted if not op.ok]
    unexpected = [op for op in failures if not op.known_defect]
    lines = ["workload %s seed %d%s: %d ops attempted, %d failed, error_rate %.4f"
             % (args.workload, args.seed, " (traced)" if args.trace else "",
                len(attempted), len(failures),
                stats.error_rate(len(failures), len(attempted)))]
    lines += ["  failed: %s%s" % (op.reason, " [known defect]" if op.known_defect else "")
              for op in failures]
    lines += ["  counter %s = %s" % (key, counters[key]) for key in sorted(counters) if counters[key]]
    if args.trace:
        metrics = per_layer(tracers, overhead)
        lines += ["  %-36s %14.6g %s" % (key, value, unit) for key, (value, unit) in metrics.items()]
    else:
        def setup(scale):
            return scale(*warm) + stats.median(scale(*build) for build in builds)

        adjusted = [
            op if op.seconds is None else dataclasses.replace(
                op, seconds=speed.adjust(op.start, op.seconds))
            for op in ops
        ]
        metrics, named = end_to_end(workload, adjusted, setup(speed.adjust), first_op_s)
        wall, _ = end_to_end(workload, ops, setup(lambda _start, seconds: seconds), first_op_s)
        named += [
            ("wall_" + key, value, unit, "wall clock, not adjusted to the reference speed")
            for key, (value, unit) in wall.items() if unit != "MB"
        ]
        named.append(("host_probe_ms", 1000.0 * stats.median(s for _, s in speed.samples), "ms",
                      "median of %d probes; the reference is %g ms"
                      % (len(speed.samples), 1000.0 * hostspeed.REFERENCE_PROBE_S)))
        lines += ["  %-28s %14.6g %-5s %s" % row for row in named]
    print("\n".join(lines), flush=True)
    return {
        "correct": not unexpected,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = completed.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if completed.returncode or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no repro sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    scratch = os.path.join(STATE, "tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    tempfile.tempdir = scratch
    os.environ["TMPDIR"] = scratch
    try:
        result = run_workload(args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
