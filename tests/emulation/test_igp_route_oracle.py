"""IGP route tables and next-hop costs against a naive oracle.

``IgpState`` builds a source's route table from the machines its
backbone SPF reached when the lab is all-backbone, and answers
``cost_to_address`` from per-prefix-length integer tables.  The oracle
here is the definition both shortcuts must reproduce: ask
``_machine_paths`` about every machine, keep the best path per
advertised prefix, and take a next hop's cost as the lowest metric over
every route whose prefix contains it.  Tables must match in content and
in key order, in both SPF modes, before and after every link toggle.
"""

from __future__ import annotations

import copy
import ipaddress

import pytest

from repro.emulation.intent import DeviceIntent, InterfaceIntent, LabIntent, OspfIntent
from repro.emulation.network import EmulatedNetwork
from repro.emulation.ospf_engine import IgpRoute, IgpState


def _lab(routers, links, stubs=()):
    """A synthetic OSPF lab.

    ``routers`` maps name -> area its loopback is advertised in (None:
    OSPF runs but advertises nothing).  ``links`` are (left, right,
    area, cost); area None leaves the link unadvertised, as an inter-AS
    link is.  ``stubs`` are extra (router, prefix, area) advertisements
    with no interface behind them, used to overlap prefixes.
    """
    lab = LabIntent(platform="netkit")
    for index, (name, area) in enumerate(routers.items()):
        loopback = ipaddress.ip_address("10.255.0.%d" % (index + 1))
        device = DeviceIntent(name=name, vendor="quagga")
        device.ospf = OspfIntent(router_id=str(loopback))
        device.interfaces.append(
            InterfaceIntent(name="lo", ip_address=loopback, prefixlen=32, is_loopback=True)
        )
        if area is not None:
            device.ospf.networks.append((ipaddress.ip_network("%s/32" % loopback), area))
        lab.devices[name] = device
    keys = []
    for index, (left, right, area, cost) in enumerate(links):
        subnet = ipaddress.ip_network("10.0.%d.0/30" % index)
        hosts = list(subnet.hosts())
        key = "cd%d" % index
        for position, name in enumerate((left, right)):
            device = lab.devices[name]
            device.interfaces.append(
                InterfaceIntent(
                    name="eth%d" % len(device.interfaces),
                    ip_address=hosts[position],
                    prefixlen=30,
                    collision_domain=key,
                    ospf_cost=cost,
                )
            )
            if area is not None:
                device.ospf.networks.append((subnet, area))
        keys.append((left, right, key))
    for name, prefix, area in stubs:
        lab.devices[name].ospf.networks.append((ipaddress.ip_network(prefix), area))
    return lab, keys


def _single_area():
    """Two backbone domains joined by an unadvertised link, a router
    that runs OSPF but advertises nothing, one advertising only its
    loopback with no adjacency, and overlapping stub prefixes.  The
    machines are not in name order, so tables must follow the lab's
    machine order."""
    return _lab(
        {
            "a3": 0, "b1": 0, "a1": 0, "lonely": 0, "a4": 0,
            "b3": 0, "a2": 0, "silent": None, "b2": 0,
        },
        [
            ("a1", "a2", 0, 1), ("a2", "a3", 0, 3), ("a3", "a4", 0, 1),
            ("a4", "a1", 0, 2), ("a1", "a3", 0, 5),
            ("b1", "b2", 0, 2), ("b2", "b3", 0, 1),
            ("a1", "b1", None, 1),
            ("a2", "silent", None, 1),
        ],
        stubs=[
            ("a3", "10.9.0.0/16", 0),
            ("b2", "10.9.1.0/24", 0),
            ("a4", "10.9.1.0/24", 0),
        ],
    )


def _multi_area():
    """Areas 1 and 2 behind two ABRs, plus an unreachable area-3 router
    and one that advertises nothing."""
    return _lab(
        {
            "abr1": 0, "abr2": 0,
            "r1a": 1, "r1b": 1, "r2a": 2, "r2b": 2,
            "far": 3, "silent": None,
        },
        [
            ("abr1", "abr2", 0, 5),
            ("r1a", "abr1", 1, 2), ("r1a", "r1b", 1, 3),
            ("r2a", "abr2", 2, 2), ("r2a", "r2b", 2, 3),
            ("r1b", "silent", None, 1),
        ],
        stubs=[("r1b", "10.9.0.0/16", 1), ("r2b", "10.9.1.0/24", 2)],
    )


def _partitioned_area():
    """Two fragments of area 1, each behind its own ABR."""
    return _lab(
        {"abr1": 0, "abr2": 0, "f1": 1, "f2": 1, "f3": 1},
        [
            ("abr1", "abr2", 0, 5),
            ("f1", "abr1", 1, 2), ("f3", "f1", 1, 1),
            ("f2", "abr2", 1, 2),
        ],
        stubs=[("f1", "10.9.0.0/16", 1), ("f2", "10.9.1.0/24", 1)],
    )


def _backbone_with_area_chord():
    """Every router is in the backbone, two of them also share a cheap
    area-1 link: not all-backbone, so the full loop must run."""
    return _lab(
        {"c1": 0, "c2": 0, "c3": 0, "c4": 0},
        [
            ("c1", "c2", 0, 4), ("c2", "c3", 0, 4), ("c3", "c4", 0, 4),
            ("c4", "c1", 0, 4), ("c1", "c3", 1, 1),
        ],
    )


def _one_ospf_area_member():
    """Only one machine runs in an area: no other machine to route to,
    so no SPF should run at all."""
    return _lab({"solo": 0, "mute": None}, [("solo", "mute", None, 1)])


LABS = {
    "backbone_with_area_chord": _backbone_with_area_chord,
    "one_ospf_area_member": _one_ospf_area_member,
    "single_area": _single_area,
    "multi_area": _multi_area,
    "partitioned_area": _partitioned_area,
}


def _oracle_routes(igp: IgpState, source: str) -> dict:
    connected = set(igp.network.connected_networks(source))
    table: dict = {}
    for machine, device in igp.network.machines.items():
        if machine == source or (device.ospf is None and device.isis is None):
            continue
        paths = igp._machine_paths(source, machine)
        if not paths:
            continue
        route_type, metric, next_hop = min(paths, key=lambda option: (option[1], option[0]))
        if next_hop is None:
            continue
        for prefix, _ in igp.advertised_prefixes(device):
            if prefix in connected:
                continue
            existing = table.get(prefix)
            if (
                existing is None
                or metric < existing.metric
                or (metric == existing.metric and machine < existing.advertiser)
            ):
                table[prefix] = IgpRoute(prefix, next_hop, metric, machine, route_type)
    return table


def _oracle_cost(igp: IgpState, source: str, address, table: dict):
    address = ipaddress.ip_address(str(address))
    if igp.network.device(source).owns_address(address) or any(
        address in network for network in igp.network.connected_networks(source)
    ):
        return 0
    return min(
        (route.metric for prefix, route in table.items() if address in prefix),
        default=None,
    )


def _probes(network: EmulatedNetwork) -> list:
    probes = [
        address
        for device in network.all_machines.values()
        for address in device.addresses()
    ]
    # inside both overlapping stubs, inside only the /16, and nowhere
    probes += ["10.9.1.5", "10.9.200.1", "192.0.2.1"]
    return probes


def _assert_matches_oracle(igp: IgpState, network: EmulatedNetwork) -> None:
    reference = IgpState(network, spf_mode="full")
    probes = _probes(network)
    for source in network.machines:
        expected = _oracle_routes(reference, source)
        assert list(igp.routes(source).items()) == list(expected.items()), source
        for address in probes:
            assert igp.cost_to_address(source, address) == _oracle_cost(
                reference, source, address, expected
            ), (source, address)
    if igp.spf_mode == "full":
        # the same Dijkstra runs as the per-machine loop asks for
        assert set(igp._spf_cache) == set(reference._spf_cache)


@pytest.mark.parametrize("name", sorted(LABS))
def test_routes_and_costs_match_oracle_under_link_toggles(name):
    intent, links = LABS[name]()
    states = [
        IgpState(EmulatedNetwork(intent), spf_mode=mode)
        for mode in ("incremental", "full")
    ]
    for igp in states:
        _assert_matches_oracle(igp, igp.network)
    # Each link down, then back up: incremental invalidation has to
    # drop exactly the tables and memoised costs the toggle touched.
    for left, right, key in links:
        for disabled in ({(left, key), (right, key)}, set()):
            for igp in states:
                network = EmulatedNetwork(intent, disabled_attachments=disabled)
                igp.rebuild(network)
                _assert_matches_oracle(igp, network)


@pytest.mark.parametrize("spf_mode", ["incremental", "full"])
def test_renumbered_interface_drops_costs_memoised_without_a_table(spf_mode):
    """A cost answered from a connected network alone, before the
    source ever built a route table, must not outlive a live edit that
    moves that network."""
    intent, _ = _single_area()
    igp = IgpState(EmulatedNetwork(intent), spf_mode=spf_mode)
    neighbour = "10.0.0.2"  # a2's end of the a1-a2 link
    assert igp.cost_to_address("a1", neighbour) == 0
    renumbered = copy.deepcopy(intent)
    renumbered.devices["a1"].interface("eth1").ip_address = ipaddress.ip_address(
        "10.50.0.1"
    )
    network = EmulatedNetwork(renumbered)
    igp.rebuild(network)
    reference = IgpState(network, spf_mode="full")
    expected = _oracle_cost(
        reference, "a1", neighbour, _oracle_routes(reference, "a1")
    )
    assert expected not in (0, None)
    assert igp.cost_to_address("a1", neighbour) == expected
    _assert_matches_oracle(igp, network)


def test_backbone_shortcut_applies_only_to_all_backbone_labs():
    shortcut = {
        name: IgpState(EmulatedNetwork(factory()[0]))._backbone_only
        for name, factory in LABS.items()
    }
    assert shortcut == {
        "backbone_with_area_chord": False,
        "one_ospf_area_member": True,
        "single_area": True,
        "multi_area": False,
        "partitioned_area": False,
    }
