"""iBGP overlay design rules (§4.2.1 eq. 2, §7.1).

Two designs are provided, matching the paper:

* :func:`build_ibgp_full_mesh` — the simple O(n²) full mesh of eq. 2::

      E_ibgp = {(i, j) in N x N | f_asn(i) == f_asn(j)}

* :func:`build_ibgp_route_reflection` — the hierarchical design of
  §7.1: nodes labelled with a boolean ``rr`` attribute become route
  reflectors; sessions are added between all (rr, rr) pairs and all
  (rr, client) pairs.  When clients carry an ``rr_cluster`` attribute
  they only session with reflectors of the same cluster, giving the
  cluster-scoped hierarchy used in the RFC-3345-style oscillation
  gadget of §7.2.

Route reflectors can also be *chosen algorithmically* with
:func:`assign_route_reflectors_by_centrality`, the degree-centrality
design of §7.1.

Session edges are directed and carry a ``session_type``:

* ``"peer"`` — vanilla iBGP (mesh, or rr-to-rr);
* ``"down"`` — reflector toward one of its clients;
* ``"up"`` — client toward its reflector.

The BGP engine uses these to apply reflection semantics (a best route
learned from a non-client is only re-advertised to clients).
"""

from __future__ import annotations

from repro.anm import AbstractNetworkModel, OverlayGraph, groupby, unwrap_graph, wrap_nodes

import networkx as nx

IBGP_RETAIN = ["asn", "rr", "rr_cluster", "bgp_next_hop_self", "prefixes"]


def build_ibgp_full_mesh(anm: AbstractNetworkModel) -> OverlayGraph:
    """Create the full-mesh iBGP overlay (eq. 2).

    Each router is paired only with the members of its own AS, so the
    work is the sum of the squared AS sizes rather than the square of
    the router count.  Members keep the router order, so the edges come
    out in exactly the order of eq. 2 taken over N x N.
    """
    g_phy = anm["phy"]
    routers = g_phy.routers()
    g_ibgp = anm.add_overlay("ibgp", routers, retain=IBGP_RETAIN, directed=True)
    keyed = [(node.asn, str(node.node_id), node) for node in routers]
    members: dict = {}
    for asn, name, node in keyed:
        members.setdefault(asn, []).append((name, node))
    g_ibgp.add_edges_from(
        (
            (src, dst)
            for asn, src_name, src in keyed
            for dst_name, dst in members[asn]
            if src_name < dst_name
        ),
        bidirected=True,
        session_type="peer",
    )
    return g_ibgp


def build_ibgp_route_reflection(anm: AbstractNetworkModel) -> OverlayGraph:
    """Create a route-reflector iBGP hierarchy from ``rr`` attributes (§7.1).

    ASes with no reflector marked fall back to a full mesh, so the two
    designs compose in one multi-AS network.
    """
    g_phy = anm["phy"]
    routers = g_phy.routers()
    g_ibgp = anm.add_overlay("ibgp", routers, retain=IBGP_RETAIN, directed=True)

    for _, members in groupby("asn", wrap_nodes(g_ibgp, routers)).items():
        reflectors = [node for node in members if node.rr]
        clients = [node for node in members if not node.rr]
        if not reflectors:
            g_ibgp.add_edges_from(
                (
                    (src, dst)
                    for src in members
                    for dst in members
                    if str(src.node_id) < str(dst.node_id)
                ),
                bidirected=True,
                session_type="peer",
            )
            continue
        # (rr, rr) full mesh.
        g_ibgp.add_edges_from(
            (
                (src, dst)
                for src in reflectors
                for dst in reflectors
                if str(src.node_id) < str(dst.node_id)
            ),
            bidirected=True,
            session_type="peer",
        )
        # (rr, client) sessions, cluster-scoped when clusters are named.
        for client in clients:
            for reflector in reflectors:
                if client.rr_cluster and reflector.rr_cluster != client.rr_cluster:
                    continue
                g_ibgp.add_edge(reflector, client, session_type="down")
                g_ibgp.add_edge(client, reflector, session_type="up")
    return g_ibgp


def build_ibgp(anm: AbstractNetworkModel) -> OverlayGraph:
    """Pick the iBGP design from the topology's attributes.

    If any router is marked ``rr=True`` the route-reflector hierarchy
    is built, otherwise the full mesh.
    """
    g_phy = anm["phy"]
    if any(node.rr for node in g_phy.routers()):
        return build_ibgp_route_reflection(anm)
    return build_ibgp_full_mesh(anm)


def assign_route_reflectors_by_centrality(
    anm: AbstractNetworkModel, fraction: float = 0.2, minimum: int = 1
) -> list:
    """Mark the most-central routers of each AS as route reflectors (§7.1).

    Applies NetworkX ``degree_centrality`` to the physical graph (via
    ``unwrap_graph``), selects the top ``fraction`` of routers per AS
    (at least ``minimum``), sets ``rr=True`` on them, and returns them.
    """
    g_phy = anm["phy"]
    centrality = nx.degree_centrality(unwrap_graph(g_phy))
    chosen = []
    for _, members in groupby("asn", g_phy.routers()).items():
        count = max(minimum, int(round(fraction * len(members))))
        count = min(count, len(members))
        ranked = sorted(
            members,
            key=lambda node: (-centrality.get(node.node_id, 0.0), str(node.node_id)),
        )
        for node in ranked[:count]:
            node.rr = True
            chosen.append(node)
    return chosen


def ibgp_session_count(n_routers: int) -> int:
    """Bidirectional session count of a full mesh: n(n-1)/2 (§7.1)."""
    return n_routers * (n_routers - 1) // 2
