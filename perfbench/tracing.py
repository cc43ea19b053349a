"""Per-layer timing and counts, taken from the benchmark's side.

:class:`LayerTracer` wraps the public entry points of each ``repro``
layer for the length of a ``with`` block and restores them afterwards;
nothing under ``src/`` is edited.  For every layer it records busy time
(outermost calls only, so a layer calling itself is not counted twice),
self time (busy time minus the time of other traced layers called from
inside it), call counts, per-call seconds, and counts read off each
call's result.

:class:`ProgramCounters` sums the program's own deterministic counters
(``bgp.messages``, ``ospf.spf_runs``, ...) over every telemetry bundle
created while it is active, including the per-trial ones a campaign
creates internally, and counts calls into ``Dataplane.trace``.  It adds
nothing to a counter increment, so it can run around timed calls.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict


def _ibgp_sessions(anm) -> int:
    if "ibgp" not in anm.overlays():
        return 0
    return anm.overlay("ibgp").number_of_edges()


class ProgramCounters:
    """Program counters summed over the registries created while active.

    Every increment lands in the ambient telemetry's registry, and the
    program activates either the caller's bundle or a new one, so
    collecting the registries created inside the block (the caller
    creates its own bundle inside it too) sees each increment once.
    """

    def __init__(self):
        self.totals = defaultdict(float)
        self._registries: list = []
        self._undo: list = []

    def __enter__(self) -> "ProgramCounters":
        from repro.emulation.dataplane import Dataplane
        from repro.observability.metrics import MetricsRegistry

        registries, totals = self._registries, self.totals
        init = MetricsRegistry.__dict__["__init__"]
        trace = Dataplane.__dict__["trace"]

        def tracked_init(metrics, *args, **kwargs):
            init(metrics, *args, **kwargs)
            registries.append(metrics)

        def counted_trace(dataplane, *args, **kwargs):
            totals["dataplane.traces"] += 1
            return trace(dataplane, *args, **kwargs)

        MetricsRegistry.__init__ = tracked_init
        Dataplane.trace = counted_trace
        self._undo = [(MetricsRegistry, "__init__", init), (Dataplane, "trace", trace)]
        return self

    def __exit__(self, *exc_info) -> bool:
        for owner, key, original in self._undo:
            setattr(owner, key, original)
        for registry in self._registries:
            for name, value in registry.counters.items():
                self.totals[name] += value
        self._registries.clear()
        return False


class LayerTracer:
    """Wraps layer entry points while active; see the module docstring."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = defaultdict(int)
        self.call_seconds = defaultdict(list)
        self.counts = defaultdict(int)
        #: program counters over the block, filled on exit
        self.registry = defaultdict(float)
        self._program = None
        self._stack: list[str] = []
        self._undo: list = []

    # -- measurement ------------------------------------------------------
    def self_seconds(self, layer: str) -> float:
        return self.busy[layer] - self.child[layer]

    def _wrap(self, layer, function, on_result=None):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if layer in tracer._stack:
                return function(*args, **kwargs)
            tracer._stack.append(layer)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer.busy[layer] += elapsed
                tracer.calls[layer] += 1
                tracer.call_seconds[layer].append(elapsed)
                if tracer._stack:
                    tracer.child[tracer._stack[-1]] += elapsed
            if on_result is not None:
                on_result(tracer.counts, result, args)
            return result

        return traced

    # -- patching ---------------------------------------------------------
    def _patch_function(self, original, layer, on_result=None) -> None:
        """Replace every binding of ``original`` in the loaded repro modules."""
        traced = self._wrap(layer, original, on_result)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, traced)
                    self._undo.append((setattr, module, attribute, original))

    def _patch_method(self, cls, name, layer, on_result=None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(layer, raw.__func__, on_result))
        else:
            replacement = self._wrap(layer, raw, on_result)
        setattr(cls, name, replacement)
        self._undo.append((setattr, cls, name, raw))

    def __enter__(self) -> "LayerTracer":
        from repro import campaign, design, liveupdate, render
        from repro.campaign.store import ResultStore
        from repro.compilers import PLATFORM_COMPILERS
        from repro.deployment.host import LocalEmulationHost
        from repro.emulation.dataplane import Dataplane
        from repro.emulation.lab import EmulatedLab
        from repro.emulation.parsing import LAB_PARSERS
        from repro.engine import ArtifactCache, BuildEngine
        from repro.measurement import MeasurementClient
        from repro.supervision import TrialJournal
        from repro.traffic import run_traffic

        def count_anm(counts, anm, _args):
            counts["design.ibgp_sessions"] += _ibgp_sessions(anm)

        def count_render(counts, result, _args):
            counts["render.files"] += result.n_files
            counts["render.bytes"] += result.total_bytes

        def count_build(counts, report, _args):
            count_render(counts, report.render_result, _args)

        def count_archive(counts, path, _args):
            counts["deployment.archive_bytes"] += os.path.getsize(path)

        def count_parse(counts, intent, _args):
            counts["emulation.configs_parsed"] += len(intent.devices)

        def count_boot(counts, lab, _args):
            counts["emulation.bgp_messages"] += lab.bgp_result.messages

        def count_reconverge(counts, _report, args):
            counts["emulation.reconverge_bgp_messages"] += args[0].bgp_result.messages

        def count_apply(counts, report, _args):
            counts["liveupdate.ops_applied"] += report.applied

        def count_traffic(counts, report, _args):
            counts["traffic.flows_offered"] += report.offered_flows
            counts["traffic.flows_delivered"] += report.delivered_flows

        def count_measure(counts, run, _args):
            counts["measurement.rows_parsed"] += sum(
                len(result.parsed or ()) for result in run.results
            )

        def count_cache(counts, artifact, _args):
            counts["engine.cache_lookups"] += 1
            counts["engine.cache_hits"] += artifact is not None

        self._program = ProgramCounters().__enter__()
        self._patch_function(design.build_anm, "design")
        self._patch_function(design.apply_design, "design", count_anm)
        self._patch_function(design.design_network, "design", count_anm)
        seen = set()
        for compiler in PLATFORM_COMPILERS.values():
            owner = next(k for k in compiler.__mro__ if "compile" in k.__dict__)
            if owner not in seen:
                seen.add(owner)
                self._patch_method(owner, "compile", "compilers")
        self._patch_function(render.render_nidb, "render", count_render)
        self._patch_function(render.device_render_jobs, "render")
        self._patch_function(render.topology_render_jobs, "render")
        self._patch_method(BuildEngine, "build", "engine.build", count_build)
        self._patch_method(ArtifactCache, "get", "engine.cache", count_cache)
        deployment = importlib.import_module("repro.deployment.deploy")
        self._patch_function(deployment.archive_lab, "deployment.archive", count_archive)
        self._patch_method(LocalEmulationHost, "receive", "deployment.transfer")
        self._patch_method(LocalEmulationHost, "extract", "deployment.extract")
        for platform, parser in list(LAB_PARSERS.items()):
            LAB_PARSERS[platform] = self._wrap("emulation.parse", parser, count_parse)
            self._undo.append((dict.__setitem__, LAB_PARSERS, platform, parser))
        self._patch_method(EmulatedLab, "boot", "emulation.boot", count_boot)
        self._patch_method(EmulatedLab, "reconverge", "emulation.reconverge", count_reconverge)
        self._patch_method(Dataplane, "trace", "emulation.dataplane_trace")
        self._patch_function(liveupdate.apply_plan, "liveupdate.apply", count_apply)
        self._patch_function(run_traffic, "traffic.run", count_traffic)
        self._patch_method(MeasurementClient, "send", "measurement.send", count_measure)
        self._patch_method(ResultStore, "append", "campaign.store_append")
        for name in ("start", "finish", "checkpoint"):
            self._patch_method(TrialJournal, name, "supervision.journal")
        self._patch_function(campaign.runner._execute_trial, "campaign.trial")
        return self

    def __exit__(self, *exc_info) -> bool:
        while self._undo:
            restore, owner, key, original = self._undo.pop()
            restore(owner, key, original)
        self._program.__exit__(*exc_info)
        self.registry = self._program.totals
        return False
