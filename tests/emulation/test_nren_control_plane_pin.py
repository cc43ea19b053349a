"""The NREN control plane at scale 0.05, pinned to recorded values.

The iBGP design, IGP route tables and the event-driven BGP loop all
carry shortcuts that must not change a single route.  These values were
recorded from the straightforward implementations (the N x N iBGP
comprehension, one ``_machine_paths`` call per machine pair, every
session offered every route); any drift in work counts, rounds or the
routing digest means a shortcut changed behaviour.
"""

from __future__ import annotations

import hashlib

import pytest

from perfbench.digest import lab_digest
from repro import european_nren_model, run_experiment


@pytest.fixture(scope="module")
def nren_result(tmp_path_factory):
    return run_experiment(
        european_nren_model(scale=0.05),
        output_dir=str(tmp_path_factory.mktemp("nren_pin")),
    )


def test_work_counters(nren_result):
    metrics = nren_result.telemetry.metrics
    assert metrics.value("bgp.messages") == 3188
    assert metrics.value("ospf.spf_runs") == 58
    assert metrics.value("ospf.route_tables_computed") == 58


def test_route_table_time_is_observed_per_table(nren_result):
    histogram = nren_result.telemetry.metrics.histogram("ospf.route_table_ms")
    assert histogram.count == 58


def test_convergence(nren_result):
    bgp = nren_result.lab.bgp_result
    assert bgp.converged
    assert bgp.rounds == 4
    assert bgp.detected_period == 1


def test_routing_digest(nren_result):
    assert lab_digest(nren_result.lab) == (
        "e678b090c2a252f6a44ecdab0e4467e7a8f3a69a2d0eb335b2d5c70154e78242"
    )


def test_table_key_order(nren_result):
    """The digest above sorts each table; this pins the order the
    engines themselves insert prefixes in."""
    lab = nren_result.lab
    digest = hashlib.sha256()
    for machine in sorted(lab.network.machines):
        selected = lab.bgp_result.selected.get(machine, {})
        digest.update(
            (
                "%s\t%s\t%s\n"
                % (
                    machine,
                    " ".join(map(str, selected)),
                    " ".join(map(str, lab.igp.routes(machine))),
                )
            ).encode()
        )
    assert digest.hexdigest() == (
        "ec7cf08056f1d76d21c1d64b5d620782d6389e225c58c1363ffb63d7a158544c"
    )
