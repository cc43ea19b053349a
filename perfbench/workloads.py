"""The three workloads: inputs from the seed, timed calls, output checks.

Each workload is driven step by step by ``perfbench/run.py``.  A step
returns the :class:`Op` records of the calls it timed; every output
check runs after the clock has stopped, and a failed check marks its
op as failed instead of aborting the run.  All workloads are closed
loop with one client and ``jobs=1``.

* ``nren_deploy`` — one step is one cold ``run_experiment`` on the
  European NREN model at scale 1.0 (design → compile → render →
  archive/transfer/extract → parse → converged boot).
* ``nren_ops`` — set-up deploys NREN at scale 0.25 and derives a few
  cost-change plans; one step is a read (a traffic window or a
  traceroute sweep) or a write pair (``link_down``/``link_up`` or
  ``apply_plan``/``apply_plan(plan.inverse())``) on that running lab,
  so the lab is back in its boot state after every step.
* ``campaign_matrix`` — one step is one campaign over a fresh result
  store: {small_internet, fig5, bad_gadget} × the four platforms ×
  seeded ``traffic_seed`` overrides, reachability on, small_internet
  trials carrying ``examples/chaos_small_internet.fault``.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass

from perfbench.digest import lab_digest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

PLATFORMS = ("netkit", "dynagen", "junosphere", "cbgp")


@dataclass
class Op:
    """One timed call and the verdict of its output check."""

    kind: str
    #: seconds inside the timed call; None when nothing was called
    seconds: float | None
    ok: bool = True
    reason: str = ""
    #: the failure is the documented C-BGP incident-schedule defect
    known_defect: bool = False
    #: work done, for rates (flows offered, traceroutes sent, routers)
    units: int = 0
    #: which call of its kind, where a kind has several (link or plan writes)
    label: str = ""
    #: ``time.perf_counter()`` when the timed call began
    start: float = 0.0


def rate(ops, kinds, per_call: bool = False) -> float:
    """Work per second inside the timed calls of ``kinds``.

    The work is each call's ``units``, or one per call with ``per_call``.
    """
    from perfbench import stats

    calls = [op for op in ops if op.kind in kinds and op.seconds]
    work = len(calls) if per_call else sum(op.units for op in calls)
    return stats.ratio(work, sum(op.seconds for op in calls))


def _scratch(prefix: str) -> str:
    return tempfile.mkdtemp(prefix=prefix)


def _timed(call):
    """``(result, seconds, start)`` of ``call()``; the result is kept alive."""
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start, start


def warm_up() -> None:
    """Imports, template compilation and one small pipeline pass."""
    from repro import european_nren_model, run_experiment

    run_experiment(european_nren_model(scale=0.05), output_dir=_scratch("warm_"))


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


class NrenDeploy:
    """The paper's §3.2 experiment: graph → converged lab at full scale."""

    name = "nren_deploy"
    block_steps = 1
    #: the timed call behind the latency metrics
    latency_kind = "deploy"

    def __init__(self, seed: int, smoke: bool = False):
        # The NREN model is the paper's fixed topology (model seed 42);
        # the workload seed selects nothing, so every seed gives the
        # same input and the recorded digest applies to all of them.
        self.scale = 0.05 if smoke else 1.0
        self.expected = load_expected()[self.name]["smoke" if smoke else "full"]

    @staticmethod
    def throughput(ops) -> float:
        """Routers brought up per second of deploy time."""
        return rate(ops, ("deploy",))

    def fixture(self) -> None:
        from repro import european_nren_model

        self.graph = european_nren_model(scale=self.scale)

    def step(self, _index: int) -> list[Op]:
        from repro import european_nren_model, run_experiment

        graph, self.graph = self.graph, None
        output_dir = _scratch("deploy_")
        result, seconds, start = _timed(lambda: run_experiment(graph, output_dir=output_dir))
        op = Op("deploy", seconds, units=len(result.lab.network.machines), start=start)
        observed = {
            "routers": len(result.lab.network.machines),
            "links": result.anm.overlay("phy").number_of_edges(),
            "files": result.render_result.n_files,
            "converged": result.lab.converged,
            "digest": lab_digest(result.lab),
        }
        wrong = sorted(key for key in observed if observed[key] != self.expected[key])
        if wrong:
            op.ok = False
            op.reason = "output mismatch: " + ", ".join(
                "%s=%r (expected %r)" % (key, observed[key], self.expected[key])
                for key in wrong
            )
        del result, graph
        shutil.rmtree(output_dir, ignore_errors=True)
        gc.collect()
        self.graph = european_nren_model(scale=self.scale)
        return [op]

    def final_checks(self) -> list[Op]:
        return []


def cost_change_plan(lab, left: str, right: str, cost: int):
    """The live-update plan that sets the OSPF cost of link ``left``–``right``.

    Built from the running lab's own intent with the live-update codec,
    so it costs milliseconds instead of a design → render round trip.
    Only the two changed devices are diffed: every other device is equal
    on both sides and would add no operation.  ``perfbench/tests`` checks
    the plan equals the one the design-level ``cost`` edit renders to.
    """
    from repro.emulation.intent import LabIntent
    from repro.liveupdate import device_to_dict, diff_intents, lab_devices_from_dicts

    changed = {name: device_to_dict(lab.intent.devices[name]) for name in (left, right)}

    def domains(data):
        return {
            interface["collision_domain"] for interface in data["interfaces"]
            if not interface["is_loopback"] and not interface["is_management"]
        }

    shared = (domains(changed[left]) & domains(changed[right])) - {None}
    for data in changed.values():
        for interface in data["interfaces"]:
            if interface["collision_domain"] in shared:
                interface["ospf_cost"] = cost
                data["ospf"]["interface_costs"][interface["name"]] = cost
    def intent(devices):
        return LabIntent(
            platform=lab.intent.platform, devices=devices, description=lab.intent.description,
        )

    before = {name: lab.intent.devices[name] for name in (left, right)}
    return diff_intents(intent(before), intent(lab_devices_from_dicts(changed)))


class NrenOps:
    """Seeded reads and paired writes on one running NREN lab."""

    name = "nren_ops"
    #: Every round runs these steps once, in a seeded order; runs stop
    #: on a round boundary, so each run has the same read/write mix
    #: whatever its seed.
    ROUND = ("traffic", "traceroute", "link", "link", "link", "plan", "plan", "plan")
    block_steps = len(ROUND)
    latency_kind = "write"
    PLANS = 8

    def __init__(self, seed: int, smoke: bool = False):
        import networkx as nx

        from repro import european_nren_model, run_experiment
        from repro.traffic import TrafficProfile

        self.seed = seed
        self.sweep_hosts = 4 if smoke else 16
        graph = european_nren_model(scale=0.05 if smoke else 0.25)
        rendered = run_experiment(graph, output_dir=_scratch("ops_"), deploy=False)
        self.lab_dir, self.nidb = rendered.render_result.lab_dir, rendered.nidb
        bridges = {frozenset(edge) for edge in nx.bridges(graph)}
        #: links whose failure cannot partition the lab
        self.links = sorted(
            tuple(sorted(edge)) for edge in graph.edges() if frozenset(edge) not in bridges
        )
        rng = random.Random(seed)
        self.plan_edits = [
            rng.choice(self.links) + (rng.randint(20, 90),) for _ in range(self.PLANS)
        ]
        self.profile = TrafficProfile.load(
            os.path.join(ROOT, "examples", "traffic_ramp.json")
        ).scaled(0.002 if smoke else 0.01)
        self.lab = None

    @staticmethod
    def throughput(ops) -> float:
        """Calls of the whole op stream completed per second inside them.

        Every call counts, so the rate covers the whole run and not only
        its traffic windows: on a host whose speed drifts in phases of
        seconds, a rate over a third of the run spreads much more.
        """
        return rate(ops, ("traffic", "traceroute", "write"), per_call=True)

    def fixture(self) -> None:
        """Deploy the rendered lab and derive the plans from its intent."""
        from repro.deployment import deploy

        self.lab = None
        gc.collect()
        self.lab = deploy(self.lab_dir).lab
        self.machines = sorted(self.lab.network.machines)
        self.plans = [cost_change_plan(self.lab, *edit) for edit in self.plan_edits]
        self.boot_digest = lab_digest(self.lab)

    def step(self, index: int) -> list[Op]:
        round_index, position = divmod(index, len(self.ROUND))
        order = list(self.ROUND)
        random.Random("%d:round:%d" % (self.seed, round_index)).shuffle(order)
        rng = random.Random("%d:%d" % (self.seed, index))
        kind = order[position]
        if kind == "traffic":
            return [self._traffic(rng)]
        if kind == "traceroute":
            return [self._sweep(rng)]
        if kind == "link":
            left, right = rng.choice(self.links)
            calls = [
                lambda: self.lab.link_down(left, right),
                lambda: self.lab.link_up(left, right),
            ]
            return [self._write(call, lambda report: report.status, "link") for call in calls]
        from repro.liveupdate import apply_plan

        plan = rng.choice(self.plans)
        calls = [lambda: apply_plan(self.lab, plan), lambda: apply_plan(self.lab, plan.inverse())]
        return [
            self._write(call, lambda report: report.convergence["status"], "plan")
            for call in calls
        ]

    def _write(self, call, status_of, label: str) -> Op:
        report, seconds, start = _timed(call)
        status = status_of(report)
        if status != "converged":
            return Op("write", seconds, False, "write left the lab %s" % status,
                      label=label, start=start)
        return Op("write", seconds, label=label, start=start)

    def _traffic(self, rng: random.Random) -> Op:
        from repro.traffic import run_traffic

        seed = rng.randrange(2**31)
        report, seconds, start = _timed(lambda: run_traffic(self.lab, self.profile, seed=seed))
        op = Op("traffic", seconds, units=report.offered_flows, start=start)
        if not 0 < report.delivered_flows <= report.offered_flows:
            op.ok, op.reason = False, "traffic delivered %d of %d flows" % (
                report.delivered_flows, report.offered_flows,
            )
        return op

    def _sweep(self, rng: random.Random) -> Op:
        from repro.measurement import send

        target = rng.choice(self.machines)
        address = self.lab.network.all_machines[target].loopback
        hosts = rng.sample([m for m in self.machines if m != target], self.sweep_hosts)
        run, seconds, start = _timed(
            lambda: send(self.nidb, "traceroute -naU %s" % address, hosts, self.lab)
        )
        op = Op("traceroute", seconds, units=len(run.results), start=start)
        bad = [result.host for result in run.results if not (result.ok and result.parsed)]
        if bad:
            op.ok, op.reason = False, "traceroute to %s failed from %s" % (target, ", ".join(bad))
        return op

    def final_checks(self) -> list[Op]:
        digest, seconds, start = _timed(lambda: lab_digest(self.lab))
        if digest != self.boot_digest:
            return [Op("check", seconds, False, "routing state after paired writes "
                       "differs from the post-boot state", start=start)]
        return [Op("check", seconds, start=start)]


class CampaignMatrix:
    """One fresh-store campaign per step over the §7.2 platform matrix."""

    name = "campaign_matrix"
    block_steps = 1
    latency_kind = "trial"
    #: traffic_seed overrides per topology × platform cell
    SEEDS = 4

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.schedule = os.path.join(ROOT, "examples", "chaos_small_internet.fault")

    @staticmethod
    def throughput(ops) -> float:
        """Trials per second inside ``CampaignRunner.run``."""
        return rate(ops, ("pass",))

    def fixture(self) -> None:
        # A one-trial campaign: imports the campaign stack and opens a
        # store, journal and artifact cache once before timing.
        self._run_spec({
            "name": "warm", "topologies": ["fig5"], "platforms": ["netkit"],
        })

    def spec(self, index: int) -> dict:
        rng = random.Random("%d:%d" % (self.seed, index))
        seeds = [rng.randrange(2**31) for _ in range(self.SEEDS)]
        return {
            "name": "campaign_matrix",
            "topologies": ["fig5", "bad_gadget"],
            "platforms": list(PLATFORMS),
            "max_rounds": 40,
            "reachability": True,
            "overrides": [{"traffic_seed": value} for value in seeds],
            "trials": [
                {
                    "topology": "small_internet",
                    "platform": platform,
                    "fault_schedule": self.schedule,
                    "overrides": {"traffic_seed": value},
                }
                for platform in PLATFORMS
                for value in seeds
            ],
        }

    def _run_spec(self, data: dict):
        from repro.campaign import CampaignRunner, CampaignSpec

        directory = _scratch("campaign_")
        spec = CampaignSpec.from_dict(data, base_dir=directory)
        runner = CampaignRunner(spec, directory=directory)
        result, seconds, start = _timed(runner.run)
        return spec, runner, result, seconds, start

    @staticmethod
    def _lines(path: str) -> int:
        with open(path, "rb") as handle:
            return handle.read().count(b"\n")

    def step(self, index: int) -> list[Op]:
        from repro.campaign import runner as campaign_runner

        #: trial id -> (seconds, start)
        durations: dict[str, tuple[float, float]] = {}
        execute = campaign_runner._execute_trial

        def timed_trial(payload):
            record, seconds, start = _timed(lambda: execute(payload))
            durations[payload["trial_id"]] = (seconds, start)
            return record

        campaign_runner._execute_trial = timed_trial
        try:
            spec, runner, result, seconds, start = self._run_spec(self.spec(index))
        finally:
            campaign_runner._execute_trial = execute
        records = {record.trial_id: record for record in result.records}
        self.step_counters = {
            "campaign.records": len(records),
            "campaign.index_lines": self._lines(runner.store.index_path),
            "supervision.journal_lines": self._lines(runner.journal.path),
        }
        # the whole campaign, for trials per minute; not an attempt itself
        ops = [Op("pass", seconds, units=len(records), start=start)]
        cbgp_failed = False
        for trial in spec.trials:
            record = records.get(trial.trial_id)
            if record is None:
                deferred = trial.trial_id in result.deferred
                ops.append(Op(
                    "trial", None, False,
                    "%s deferred by the open %s breaker" % (trial.trial_id, trial.platform)
                    if deferred else "%s has no record" % trial.trial_id,
                    known_defect=deferred and trial.platform == "cbgp" and cbgp_failed,
                ))
                continue
            seconds, start = durations[trial.trial_id]
            op = Op("trial", seconds, units=1, start=start)
            reason = self._verdict_error(trial, record)
            if reason:
                op.ok, op.reason = False, "%s: %s" % (trial.trial_id, reason)
                op.known_defect = (
                    trial.platform == "cbgp"
                    and trial.topology == "small_internet"
                    and "FaultScheduleError" in (record.error or "")
                )
                cbgp_failed = cbgp_failed or op.known_defect
            ops.append(op)
        return ops

    @staticmethod
    def _verdict_error(trial, record) -> str:
        if record.status != "ok":
            return "%s: %s" % (record.status, record.error)
        expected = "converged"
        if trial.topology == "bad_gadget" and trial.platform != "netkit":
            expected = "oscillating"
        status = (record.convergence or {}).get("status")
        if status != expected:
            return "verdict %s, expected %s" % (status, expected)
        return ""

    def final_checks(self) -> list[Op]:
        return []


WORKLOADS = {cls.name: cls for cls in (NrenDeploy, NrenOps, CampaignMatrix)}
