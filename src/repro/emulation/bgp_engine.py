"""BGP decision-process engine with per-vendor semantics (§7.2).

The engine runs a deterministic synchronous-round simulation: each
round every router advertises its current best route over every
session (route-reflection export rules applied), then all routers
re-run the decision process on the freshly delivered Adj-RIB-In.
Withdrawals are implicit — the Adj-RIB-In is rebuilt every round.

Two scheduling modes implement those semantics
(:class:`BgpSimulation` ``bgp_mode``):

* ``"events"`` (the default) keeps a persistent Adj-RIB-In and a
  per-router pending-update queue: only routers whose selection
  changed last round re-export, and only (receiver, prefix) pairs
  whose incoming contributions changed re-run the decision process.
  Quiescent routers do no work, yet every per-round global selection
  state — and therefore every convergence/oscillation verdict, period,
  and history snapshot — is bit-identical to the reference schedule.
  Imported routes are interned, so identical paths are shared across
  RIBs and history snapshots instead of reallocated each round.
* ``"rounds"`` is the reference oracle: the Adj-RIB-In is rebuilt from
  scratch every round, every router re-decides everything.  The
  differential test layer asserts both modes agree on final state
  hashes under random topologies and fault schedules.

``bgp.messages`` reflects the schedule: in rounds mode it counts every
(session, prefix) advertisement every round; in events mode it counts
only actual update messages — re-advertisements of changed selections.

Convergence detection hashes the global selection state each round:

* state unchanged  → converged;
* state seen in an earlier round → **persistent oscillation** with that
  period (the Bad-Gadget behaviour of §7.2).

Vendor differences are captured in :class:`VendorProfile`.  The one the
paper's experiment hinges on: Quagga's decision process did not apply
the IGP-metric-to-next-hop tie-break by default, while IOS, JunOS and
C-BGP do.  Hence the same route-reflection gadget oscillates on three
platforms and converges on Quagga.

Decision process order (classic BGP best path):

1. highest LOCAL_PREF;
2. locally originated routes;
3. shortest AS_PATH;
4. lowest ORIGIN;
5. lowest MED (compared among routes from the same neighbouring AS,
   deterministically — group-wise elimination);
6. eBGP-learned over iBGP-learned;
7. lowest IGP metric to NEXT_HOP — *only when the vendor applies it*;
8. lowest router-id of the advertising peer;
9. lowest peer address (final deterministic tie-break).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Optional

from repro.emulation.intent import BgpNeighborIntent
from repro.emulation.network import EmulatedNetwork
from repro.emulation.ospf_engine import IgpState
from repro.exceptions import EmulationError
from repro.observability import (
    INFO,
    WARNING,
    gauge_set,
    log_event,
    metric_inc,
    metric_observe,
)

_ORIGIN_RANK = {"igp": 0, "egp": 1, "incomplete": 2}

#: Recognised :class:`BgpSimulation` scheduling modes.
BGP_MODES = ("events", "rounds")


@dataclass(frozen=True)
class VendorProfile:
    """The decision-process knobs that differ across router software."""

    name: str
    igp_tiebreak: bool
    always_compare_med: bool = False
    default_local_pref: int = 100


#: Documented defaults per vendor (§7.2): Quagga skips the IGP metric
#: tie-break; the other three apply it.
VENDOR_PROFILES = {
    "quagga": VendorProfile("quagga", igp_tiebreak=False),
    "ios": VendorProfile("ios", igp_tiebreak=True),
    "junos": VendorProfile("junos", igp_tiebreak=True),
    "cbgp": VendorProfile("cbgp", igp_tiebreak=True),
}


@dataclass(frozen=True)
class BgpRoute:
    """One BGP path as stored in a router's RIB."""

    prefix: ipaddress.IPv4Network
    as_path: tuple[int, ...]
    next_hop: Optional[ipaddress.IPv4Address]
    local_pref: int
    med: Optional[int] = None
    origin: str = "igp"
    learned_via: str = "local"  # local | ebgp | ibgp
    learned_from: Optional[str] = None  # peer machine name
    from_client: bool = False
    originator: Optional[str] = None
    peer_router_id: str = "0.0.0.0"
    peer_address: str = "0.0.0.0"
    communities: tuple[str, ...] = ()

    def selection_key(self) -> tuple:
        """What "the same selection" means for convergence detection."""
        return (
            str(self.prefix),
            str(self.next_hop),
            self.learned_from or "",
            self.as_path,
        )


def _derive(route: BgpRoute, **changes) -> BgpRoute:
    """A copy of ``route`` with ``changes`` applied.

    Equivalent to ``dataclasses.replace`` for the frozen
    :class:`BgpRoute`, without its per-call walk over the fields and
    keyword ``__init__``: the export->import pipeline derives two
    routes per advertisement.
    """
    clone = object.__new__(BgpRoute)
    state = clone.__dict__
    state.update(route.__dict__)
    state.update(changes)
    return clone


def _queue_order(item: tuple) -> tuple:
    """Sort key of a (machine, prefix) queue entry, ordered as the tuple
    itself sorts (``IPv4Network.__lt__``: network address, then mask
    length) without a Python-level ``__lt__`` call per comparison."""
    name, prefix = item
    return name, int(prefix.network_address), prefix.prefixlen


@dataclass
class Session:
    """One directed session endpoint: local machine's view of a peer."""

    local: str
    peer: str
    intent: BgpNeighborIntent
    is_ebgp: bool


@dataclass
class BgpResult:
    """Outcome of a simulation run.

    ``period`` keeps the legacy convention (0 when converged, the
    cycle length when oscillating).  ``detected_period`` records what
    the state-hash detector actually measured: 1 for a converged
    fixpoint (the state mapped to itself), N > 1 for a persistent
    oscillation, and 0 only when the run hit ``max_rounds`` without a
    verdict — which is what the ``bgp.period`` gauge now reports, with
    ``bgp.converged`` disambiguating the converged case.
    """

    converged: bool
    oscillating: bool
    rounds: int
    period: int = 0
    detected_period: int = 0
    selected: dict = field(default_factory=dict)  # machine -> prefix -> BgpRoute
    history: list = field(default_factory=list)  # per-round selection snapshots
    session_warnings: list = field(default_factory=list)
    messages: int = 0

    def best_route(self, machine: str, prefix) -> Optional[BgpRoute]:
        prefix = ipaddress.ip_network(str(prefix))
        return self.selected.get(machine, {}).get(prefix)


class BgpSimulation:
    """Synchronous-round BGP over an emulated network."""

    def __init__(
        self,
        network: EmulatedNetwork,
        igp: IgpState,
        vendor_overrides: Optional[dict[str, str]] = None,
        keep_history: bool = True,
        bgp_mode: str = "events",
    ):
        if bgp_mode not in BGP_MODES:
            raise EmulationError(
                "unknown bgp_mode %r (choose from %s)"
                % (bgp_mode, ", ".join(BGP_MODES))
            )
        self.network = network
        self.igp = igp
        self.keep_history = keep_history
        self.bgp_mode = bgp_mode
        self._vendor_overrides = dict(vendor_overrides or {})
        #: Intern pool: identical routes are shared across RIBs,
        #: selections, and history snapshots instead of reallocated.
        self._route_pool: dict[BgpRoute, BgpRoute] = {}
        #: Memo for the export->import pipeline (event schedule only).
        #: Survives ``rebuild`` across fault cycles (faults change
        #: topology, never config), but entries touching a machine
        #: whose BGP-relevant config changed — a live update moving a
        #: loopback, router-id, or session policy — are evicted, since
        #: the pipeline reads those inputs without them being in the
        #: memo key.
        self._advert_cache: dict[tuple, Optional[BgpRoute]] = {}
        #: machine -> BGP-relevant config fingerprint at last rebuild.
        self._machine_config: dict[str, tuple] = {}
        #: Event-engine state (Adj-RIB-In + contributions) persisted
        #: from the last *converged* events run.  A later
        #: ``run(resume_from=...)`` whose seed matches the stored
        #: fixpoint reuses it and seeds the queues with only the dirty
        #: machines instead of re-advertising every table.
        self._event_state: Optional[dict] = None
        #: Machines whose BGP inputs (config, sessions, originations,
        #: IGP view) changed since that state was stored; ``None``
        #: means unbounded — the machine set itself changed — which
        #: forces the full-sweep resume.
        self._resume_dirty: Optional[set[str]] = set()
        self._prev_machines: Optional[frozenset[str]] = None
        self._prev_devices: dict[str, object] = {}
        #: machine -> session fingerprint at last rebuild.
        self._session_config: dict[str, tuple] = {}
        self.local_routes: dict[str, dict] = {}
        self.rebuild(network)

    def rebuild(self, network: Optional[EmulatedNetwork] = None) -> None:
        """Accept a topology delta: recompute sessions and origination.

        Called after the fabric changes under a running simulation (a
        fault schedule downing a link or machine); the previous selected
        state survives in the caller and is passed back through
        ``run(resume_from=...)`` so reconvergence is incremental.
        """
        if network is not None:
            self.network = network
        #: (machine, next hop) -> IGP cost memo; the decision process
        #: resolves the same next hops for every candidate every round,
        #: and the answer only changes when the fabric does.
        self._next_hop_costs: dict[tuple, Optional[int]] = {}
        self.warnings = []
        self.vendors = {}
        for name, device in self.network.machines.items():
            vendor_name = self._vendor_overrides.get(name, device.vendor)
            self.vendors[name] = VENDOR_PROFILES.get(
                vendor_name, VENDOR_PROFILES["quagga"]
            )
        self.sessions = {}
        #: machine -> the sessions an iBGP-learned route from a non-client
        #: may be exported over: eBGP and route-reflector clients.
        self._reflect_sessions: dict[str, list[Session]] = {}
        #: (local machine, peer machine) -> the local side's neighbor intent.
        self._intent_of: dict[tuple[str, str], BgpNeighborIntent] = {}
        #: (receiver, sender) -> (sender's router-id, peer address string):
        #: the per-session constants of ``_import``, filled on first use.
        self._peer_fields: dict[tuple[str, str], tuple[str, str]] = {}
        old_local = self.local_routes
        old_sessions = self._session_config
        self._build_sessions()
        self.local_routes = self._originate()
        config_changed = self._evict_stale_adverts()
        self._track_dirty(old_local, old_sessions, config_changed)

    def _machine_fingerprint(self, name: str, device) -> tuple:
        """Every config input the export->import pipeline reads for one
        machine that is *not* part of the advert-cache key: the vendor
        (default local-pref), the loopback (iBGP next-hop-self and
        fallback next hops), and the full BGP stanza (ASN for loop
        checks and prepending, router-id stamping, per-neighbor
        policy)."""
        bgp = device.bgp
        return (
            self._vendor_overrides.get(name, device.vendor),
            str(device.loopback),
            None
            if bgp is None
            else (
                bgp.asn,
                bgp.router_id,
                tuple(repr(neighbor) for neighbor in bgp.neighbors),
            ),
        )

    def _evict_stale_adverts(self) -> set[str]:
        """Drop memoised adverts that touch reconfigured machines.

        Fault cycles leave every fingerprint identical (topology
        changes, config does not), so the memo survives them intact;
        a live update evicts exactly the senders/receivers it rewrote.
        A machine that vanished keeps its entries — they can only be
        looked up again if it returns (node_up) with the same config,
        in which case they are still exact.  Returns the machines whose
        fingerprint changed, which also feeds the resume dirty set.
        """
        previous = self._machine_config
        config = {}
        for name, device in self.network.machines.items():
            # Same intent object as last rebuild -> same fingerprint;
            # only replaced devices pay the repr of their BGP stanza.
            if name in previous and self._prev_devices.get(name) is device:
                config[name] = previous[name]
            else:
                config[name] = self._machine_fingerprint(name, device)
        changed = {
            name
            for name, fingerprint in config.items()
            if name in previous and previous[name] != fingerprint
        }
        self._machine_config = dict(previous)
        self._machine_config.update(config)
        if changed and self._advert_cache:
            evicted = [
                key
                for key in self._advert_cache
                if key[0] in changed or key[1] in changed
            ]
            for key in evicted:
                del self._advert_cache[key]
            metric_inc("bgp.advert_cache_evicted", len(evicted))
        return changed

    def _track_dirty(
        self,
        old_local: dict[str, dict],
        old_sessions: dict[str, tuple],
        config_changed: set[str],
    ) -> None:
        """Accumulate the machines whose BGP inputs this rebuild moved.

        A machine is dirty when its config fingerprint, session set,
        local originations, or IGP view changed since the last
        completed run stored its event state — exactly the inputs the
        decision process and the export->import pipeline read.  A
        change to the machine set itself defeats the bookkeeping
        (``None``: the next resume falls back to the full sweep).
        """
        self._session_config = {
            name: tuple(
                (session.peer, str(session.intent.peer_ip), session.is_ebgp)
                for session in session_list
            )
            for name, session_list in self.sessions.items()
        }
        igp_dirty = self.igp.consume_dirty_sources()
        machines = frozenset(self.network.machines)
        if self._prev_machines is not None and machines != self._prev_machines:
            self._resume_dirty = None
        elif self._resume_dirty is not None:
            local_changed = {
                name
                for name in set(old_local) | set(self.local_routes)
                if old_local.get(name) != self.local_routes.get(name)
            }
            session_changed = {
                name
                for name in set(old_sessions) | set(self._session_config)
                if old_sessions.get(name) != self._session_config.get(name)
            }
            # A replaced intent object means *some* edit landed on the
            # machine; fault cycles rebuild the network around the same
            # objects, so this only fires for genuine config deltas —
            # including ones the fingerprints above are too coarse to
            # see (an interface address moving within its prefix).
            replaced = {
                name
                for name, device in self.network.machines.items()
                if self._prev_devices.get(name) is not device
            }
            self._resume_dirty |= (
                config_changed
                | session_changed
                | local_changed
                | replaced
                | (igp_dirty & machines)
            )
        self._prev_machines = machines
        self._prev_devices = dict(self.network.machines)

    # -- setup ------------------------------------------------------------------
    def _build_sessions(self) -> None:
        for name in sorted(self.network.machines):
            device = self.network.machines[name]
            if device.bgp is None:
                continue
            for intent in device.bgp.neighbors:
                peer = self.network.owner_of(intent.peer_ip)
                if peer is None:
                    self.warnings.append(
                        "%s: neighbor %s matches no machine" % (name, intent.peer_ip)
                    )
                    continue
                peer_device = self.network.machines[peer]
                if peer_device.bgp is None:
                    self.warnings.append(
                        "%s: peer %s runs no BGP" % (name, peer)
                    )
                    continue
                is_ebgp = intent.remote_asn != device.bgp.asn
                self.sessions.setdefault(name, []).append(
                    Session(local=name, peer=peer, intent=intent, is_ebgp=is_ebgp)
                )
                self._intent_of[(name, peer)] = intent
        # A session is up only when both sides configured it.
        for name, session_list in list(self.sessions.items()):
            alive = []
            for session in session_list:
                if (session.peer, name) in self._intent_of:
                    alive.append(session)
                else:
                    self.warnings.append(
                        "%s -> %s: no reciprocal neighbor statement"
                        % (name, session.peer)
                    )
            self.sessions[name] = alive
            self._reflect_sessions[name] = [
                session
                for session in alive
                if session.is_ebgp or session.intent.rr_client
            ]

    def _originate(self) -> dict[str, dict]:
        local: dict[str, dict] = {}
        for name, device in self.network.machines.items():
            if device.bgp is None:
                continue
            vendor = self.vendors[name]
            table = {}
            for prefix in device.bgp.networks:
                table[prefix] = self._intern(
                    BgpRoute(
                        prefix=prefix,
                        as_path=(),
                        next_hop=None,
                        local_pref=vendor.default_local_pref,
                        learned_via="local",
                        originator=name,
                    )
                )
            local[name] = table
        return local

    def _intern(self, route: BgpRoute) -> BgpRoute:
        """Return the pooled instance equal to ``route``."""
        pooled = self._route_pool.setdefault(route, route)
        if pooled is route:
            metric_inc("bgp.routes_interned")
        else:
            metric_inc("bgp.route_pool_hits")
        return pooled

    # -- export / import ----------------------------------------------------
    def _can_export(self, route: BgpRoute, session: Session) -> bool:
        if route.learned_from == session.peer:
            return False
        if session.is_ebgp:
            denied = getattr(session.intent, "deny_out", ()) or ()
            if any(route.prefix == net or net.supernet_of(route.prefix) for net in denied):
                return False
            return True
        if route.learned_via in ("local", "ebgp"):
            return True
        # iBGP-learned: reflect everywhere when it came from a client,
        # only towards clients otherwise (RFC 4456 semantics).
        if route.from_client:
            return True
        return bool(session.intent.rr_client)

    def _export(self, sender: str, route: BgpRoute, session: Session) -> BgpRoute:
        device = self.network.machines[sender]
        if session.is_ebgp:
            next_hop = self._session_address(sender, session)
            prepend = 1 + (session.intent.prepend_out or 0)
            communities = route.communities
            added = getattr(session.intent, "communities_out", ()) or ()
            if added:
                communities = tuple(
                    sorted(set(communities) | set(added))
                )
            return _derive(
                route,
                as_path=(device.bgp.asn,) * prepend + route.as_path,
                next_hop=next_hop,
                local_pref=0,  # receiver assigns
                med=session.intent.med_out,
                communities=communities,
                originator=None,
            )
        next_hop = route.next_hop
        if route.learned_via in ("local", "ebgp") and session.intent.next_hop_self:
            next_hop = device.loopback or next_hop
        if next_hop is None:
            next_hop = device.loopback
        return _derive(
            route,
            next_hop=next_hop,
            originator=route.originator or sender,
        )

    def _session_address(self, sender: str, session: Session):
        peer_ip = session.intent.peer_ip
        device = self.network.machines[sender]
        for segment in self.network.segments_of(sender):
            net = segment.network
            if net is not None and peer_ip in net:
                interface = segment.interface_of(sender)
                if interface is not None and interface.ip_address is not None:
                    return interface.ip_address
        return device.loopback

    def _import(self, receiver: str, sender: str, route: BgpRoute, session: Session):
        """Apply receive-side checks and policy; None means rejected."""
        key = (receiver, sender)
        receiving_intent = self._intent_of.get(key)
        if receiving_intent is None:
            return None
        try:
            peer_router_id, peer_address = self._peer_fields[key]
        except KeyError:
            sender_device = self.network.machines[sender]
            peer_router_id = sender_device.bgp.router_id or (
                str(sender_device.loopback) if sender_device.loopback else "0.0.0.0"
            )
            peer_address = str(receiving_intent.peer_ip)
            self._peer_fields[key] = (peer_router_id, peer_address)
        if session.is_ebgp:
            device = self.network.machines[receiver]
            if device.bgp.asn in route.as_path:
                return None  # AS-path loop
            denied = getattr(receiving_intent, "deny_in", ()) or ()
            if any(
                route.prefix == net or net.supernet_of(route.prefix)
                for net in denied
            ):
                return None  # inbound prefix filter
            local_pref = (
                receiving_intent.local_pref_in
                or self.vendors[receiver].default_local_pref
            )
            return self._intern(
                _derive(
                    route,
                    local_pref=local_pref,
                    learned_via="ebgp",
                    learned_from=sender,
                    from_client=False,
                    originator=None,
                    peer_router_id=peer_router_id,
                    peer_address=peer_address,
                )
            )
        if route.originator == receiver:
            return None  # reflection loop back to the originator
        return self._intern(
            _derive(
                route,
                learned_via="ibgp",
                learned_from=sender,
                from_client=receiving_intent.rr_client,
                peer_router_id=peer_router_id,
                peer_address=peer_address,
            )
        )

    def _advertise(self, sender: str, route: BgpRoute, session: Session):
        """The export->import pipeline for one advert, memoised.

        Given the resolved session address (the only network-dependent
        input — everything else is config values that survive topology
        deltas), the outcome is a pure function of (sender, session,
        route), so a fault cycle that revisits earlier selections skips
        the policy evaluation and route construction entirely.  Only the
        event schedule calls this; the reference schedule stays naive.
        """
        anchor = self._session_address(sender, session) if session.is_ebgp else None
        key = (sender, session.peer, session.intent.peer_ip, route, anchor)
        try:
            imported = self._advert_cache[key]
            metric_inc("bgp.advert_cache_hits")
            return imported
        except KeyError:
            pass
        advert = self._export(sender, route, session)
        imported = self._import(session.peer, sender, advert, session)
        if len(self._advert_cache) > 200_000:
            self._advert_cache.clear()
        self._advert_cache[key] = imported
        return imported

    # -- decision process ----------------------------------------------------
    def _next_hop_cost(self, machine: str, next_hop) -> Optional[int]:
        key = (machine, next_hop)
        try:
            return self._next_hop_costs[key]
        except KeyError:
            pass
        cost = self.igp.cost_to_address(machine, next_hop)
        if cost is None:
            # Unnumbered (C-BGP style) links: a next hop owned by a
            # direct fabric neighbour is reachable at zero cost even
            # without an IGP route to it.
            owner = self.network.owner_of(next_hop)
            if owner is not None and owner in self.network.neighbors_of(machine):
                cost = 0
        self._next_hop_costs[key] = cost
        return cost

    def _valid(self, machine: str, route: BgpRoute) -> bool:
        if route.learned_via == "local":
            return True
        if route.next_hop is None:
            return False
        return self._next_hop_cost(machine, route.next_hop) is not None

    def _igp_cost(self, machine: str, route: BgpRoute) -> int:
        if route.learned_via == "local" or route.next_hop is None:
            return 0
        cost = self._next_hop_cost(machine, route.next_hop)
        return 0 if cost is None else cost

    def decide(self, machine: str, candidates: list[BgpRoute]) -> Optional[BgpRoute]:
        """Run the decision process over one prefix's candidates."""
        valid = [route for route in candidates if self._valid(machine, route)]
        if not valid:
            return None
        vendor = self.vendors[machine]
        survivors = self._med_elimination(valid, vendor)

        def key(route: BgpRoute) -> tuple:
            return (
                -route.local_pref,
                0 if route.learned_via == "local" else 1,
                len(route.as_path),
                _ORIGIN_RANK.get(route.origin, 2),
                0 if route.learned_via == "ebgp" else 1,
                self._igp_cost(machine, route) if vendor.igp_tiebreak else 0,
                route.peer_router_id,
                route.peer_address,
            )

        return min(survivors, key=key)

    @staticmethod
    def _med_elimination(routes: list[BgpRoute], vendor: VendorProfile) -> list[BgpRoute]:
        """Deterministic MED: per-neighbour-AS elimination of worse MEDs."""
        groups: dict = {}
        for route in routes:
            group_key = (
                "all" if vendor.always_compare_med
                else (route.as_path[0] if route.as_path else None)
            )
            groups.setdefault(group_key, []).append(route)
        survivors = []
        for members in groups.values():
            with_med = [route for route in members if route.med is not None]
            if len(with_med) < 2:
                survivors.extend(members)
                continue
            best_med = min(route.med for route in with_med)
            survivors.extend(
                route
                for route in members
                if route.med is None or route.med == best_med
            )
        return survivors

    # -- the simulation loop ----------------------------------------------------
    def run(self, max_rounds: int = 64, resume_from: Optional[dict] = None) -> BgpResult:
        """Run the simulation and record per-run telemetry.

        ``resume_from`` seeds the selection state with a previous run's
        ``selected`` tables (incremental reconvergence after a topology
        delta): routes through now-dead paths wash out on the first
        round because the Adj-RIB-In is rebuilt from live sessions, and
        the fixpoint is typically reached in far fewer rounds than a
        cold start.

        The metrics (``bgp.rounds``, ``bgp.messages``,
        ``bgp.state_hash_checks``) and the convergence/oscillation
        event make an E6-style oscillation diagnosable from the trace
        alone: a converged run shows ``bgp.converged`` = 1 with
        ``bgp.period`` = 1 (the detected fixpoint period), an
        oscillating run shows ``bgp.period`` > 1 plus a warning event
        carrying the period, and ``bgp.period`` = 0 means the run hit
        ``max_rounds`` undetermined.
        """
        if self.bgp_mode == "rounds":
            result = self._simulate_rounds(max_rounds, resume_from=resume_from)
        else:
            result = self._simulate_events(max_rounds, resume_from=resume_from)
        metric_inc("bgp.rounds", result.rounds)
        metric_inc("bgp.messages", result.messages)
        metric_inc("bgp.state_hash_checks", result.rounds + 1)
        gauge_set("bgp.period", result.detected_period)
        gauge_set("bgp.converged", 1 if result.converged else 0)
        if result.oscillating:
            log_event(
                WARNING,
                "emulation",
                "BGP oscillates with period %d" % result.period,
                rounds=result.rounds,
                period=result.period,
            )
        else:
            log_event(
                INFO,
                "emulation",
                "BGP %s after %d rounds"
                % ("converged" if result.converged else "undetermined", result.rounds),
                rounds=result.rounds,
                messages=result.messages,
            )
        return result

    def _seed_selected(self, resume_from: Optional[dict]) -> dict[str, dict]:
        selected: dict[str, dict] = {
            name: dict(table) for name, table in self.local_routes.items()
        }
        if resume_from:
            # Seed with the previous run's selections for machines still
            # in the fabric; local originations always come back (they
            # exist regardless of topology), learned routes re-validate
            # against the live sessions on the first round.
            for name, table in resume_from.items():
                if name not in selected:
                    continue
                merged = dict(selected[name])
                for prefix, route in table.items():
                    if route.learned_via != "local":
                        merged[prefix] = route
                selected[name] = merged
        return selected

    def _simulate_rounds(
        self, max_rounds: int, resume_from: Optional[dict] = None
    ) -> BgpResult:
        """The reference schedule: full Adj-RIB-In rebuild every round."""
        selected = self._seed_selected(resume_from)
        seen: dict[tuple, int] = {}
        history: list[dict] = []
        messages = 0

        for round_index in range(max_rounds + 1):
            state = self._state_key(selected)
            if self.keep_history:
                history.append(self._snapshot(selected))
            if state in seen:
                # A revisit after exactly one transition is a fixpoint
                # (the state mapped to itself); a longer period is a
                # persistent oscillation.
                period = round_index - seen[state]
                converged = period == 1
                return BgpResult(
                    converged=converged,
                    oscillating=not converged,
                    rounds=round_index,
                    period=0 if converged else period,
                    detected_period=period,
                    selected=selected,
                    history=history,
                    session_warnings=list(self.warnings),
                    messages=messages,
                )
            seen[state] = round_index

            rib_in: dict[str, dict] = {name: {} for name in self.network.machines}
            for name, session_list in self.sessions.items():
                for session in session_list:
                    for prefix, route in selected.get(name, {}).items():
                        if not self._can_export(route, session):
                            continue
                        advert = self._export(name, route, session)
                        imported = self._import(session.peer, name, advert, session)
                        messages += 1
                        if imported is not None:
                            rib_in[session.peer][(name, prefix)] = imported

            new_selected: dict[str, dict] = {}
            for name, device in self.network.machines.items():
                if device.bgp is None:
                    continue
                candidates_by_prefix: dict = {}
                for prefix, route in self.local_routes.get(name, {}).items():
                    candidates_by_prefix.setdefault(prefix, []).append(route)
                for (_, prefix), route in rib_in.get(name, {}).items():
                    candidates_by_prefix.setdefault(prefix, []).append(route)
                table = {}
                for prefix, candidates in candidates_by_prefix.items():
                    best = self.decide(name, candidates)
                    if best is not None:
                        table[prefix] = best
                new_selected[name] = table
            selected = new_selected

        return BgpResult(
            converged=False,
            oscillating=False,
            rounds=max_rounds,
            selected=selected,
            history=history,
            session_warnings=list(self.warnings),
            messages=messages,
        )

    def _simulate_events(
        self, max_rounds: int, resume_from: Optional[dict] = None
    ) -> BgpResult:
        """Event-driven schedule, bit-identical to the reference rounds.

        Invariant maintained every round: the persistent Adj-RIB-In
        equals what the reference schedule would rebuild from the
        current selections.  The contribution a sender makes to a
        peer's RIB for one prefix is a pure function of the sender's
        selected route (sessions and IGP are fixed within a run), so a
        contribution only needs recomputing when that selection changed
        — the pending-export queue.  A decision only needs re-running
        when one of its incoming contributions (or its validity inputs)
        changed — the pending-decide queue.  Everything else carries
        over, which is why per-round global states (and hence
        convergence verdicts, periods, and history) match the reference
        exactly while quiescent routers do no work.
        """
        selected = self._seed_selected(resume_from)
        seen: dict[tuple, int] = {}
        history: list[dict] = []
        messages = 0
        saved = self._event_state
        # A partially-run schedule's RIBs are useless to a later
        # resume; drop the stored state now and put back a fresh one
        # only when this run reaches a fixpoint.
        self._event_state = None
        dirty = self._resume_dirty
        incremental = (
            resume_from is not None
            and saved is not None
            and dirty is not None
            and selected == saved["selected"]
        )
        if incremental:
            # The stored Adj-RIB-In is exact for every machine outside
            # ``dirty`` — config, sessions, originations, and IGP view
            # all unchanged since the fixpoint — so only dirty machines
            # re-advertise and re-decide.  Their neighbors' tables must
            # also be re-sent *towards* them (the receiving side's
            # import policy or session addressing may be what changed),
            # and exports the fixpoint round left queued (selection
            # changes invisible to the state key) still go out.
            rib_in = saved["rib_in"]
            contributions = saved["contributions"]
            senders_to: dict[str, set] = {}
            for sender, session_list in self.sessions.items():
                for session in session_list:
                    senders_to.setdefault(session.peer, set()).add(sender)
            resend = set(dirty)
            for receiver in dirty:
                resend.update(senders_to.get(receiver, ()))
            pending_exports = set(saved["pending_exports"])
            pending_exports.update(
                (name, prefix)
                for name in resend
                for prefix in selected.get(name, {})
            )
            pending_decides = {
                (name, prefix)
                for name in dirty
                for prefix in set(selected.get(name, {}))
                | set(rib_in.get(name, {}))
                | set(self.local_routes.get(name, {}))
            }
            metric_inc("bgp.resume_incremental")
            metric_observe("bgp.resume_dirty", len(dirty))
        else:
            #: receiver -> prefix -> sender -> imported route.
            rib_in = {name: {} for name in self.network.machines}
            #: (sender, prefix) -> {peer: imported route} currently in RIBs.
            contributions = {}
            # Every seeded selection is an unsent update; resumed learned
            # routes must also be re-decided (the reference drops them
            # unless re-delivered), so seed the decide queue with them.
            pending_exports = {
                (name, prefix)
                for name, table in selected.items()
                for prefix in table
            }
            pending_decides = {
                (name, prefix)
                for name, table in selected.items()
                for prefix, route in table.items()
                if route.learned_via != "local"
            }
            if resume_from is not None:
                metric_inc("bgp.resume_full")

        # The state key is assembled from per-machine parts; a part is
        # recomputed only after its machine's table changed.
        table_keys = {
            name: self._table_key(table) for name, table in selected.items()
        }
        changed_tables: set[str] = set()
        for round_index in range(max_rounds + 1):
            # Queue depth per round is *the* visibility into what the
            # event-driven schedule saves: the reference rebuilds every
            # RIB every round, the fast path touches only these.
            metric_observe(
                "bgp.queue_depth", len(pending_exports) + len(pending_decides)
            )
            for name in changed_tables:
                table_keys[name] = self._table_key(selected[name])
            changed_tables = set()
            state = tuple((name, table_keys[name]) for name in sorted(selected))
            if self.keep_history:
                history.append(self._snapshot(selected))
            if state in seen:
                period = round_index - seen[state]
                converged = period == 1
                if converged:
                    # The fixpoint's RIBs seed the next resume: decide
                    # can swap a selection for an equal-ranking route
                    # the state key cannot see, so exports it queued on
                    # the final round ride along for replay.
                    self._event_state = {
                        "rib_in": rib_in,
                        "contributions": contributions,
                        "selected": selected,
                        "pending_exports": pending_exports,
                    }
                    self._resume_dirty = set()
                return BgpResult(
                    converged=converged,
                    oscillating=not converged,
                    rounds=round_index,
                    period=0 if converged else period,
                    detected_period=period,
                    selected=selected,
                    history=history,
                    session_warnings=list(self.warnings),
                    messages=messages,
                )
            seen[state] = round_index

            # Propagate: recompute contributions of changed selections.
            for sender, prefix in sorted(pending_exports, key=_queue_order):
                route = selected.get(sender, {}).get(prefix)
                new_map: dict = {}
                if route is not None:
                    # An iBGP-learned route from a non-client can only
                    # pass ``_can_export`` on eBGP and client sessions.
                    if route.learned_via == "ibgp" and not route.from_client:
                        sessions = self._reflect_sessions.get(sender, [])
                    else:
                        sessions = self.sessions.get(sender, [])
                    for session in sessions:
                        if not self._can_export(route, session):
                            continue
                        imported = self._advertise(sender, route, session)
                        messages += 1
                        if imported is not None:
                            # Parallel sessions to the same peer: the
                            # last non-None import wins, as in the
                            # reference schedule.
                            new_map[session.peer] = imported
                old_map = contributions.get((sender, prefix), {})
                if new_map == old_map:
                    continue
                for peer in old_map.keys() - new_map.keys():
                    rib_in[peer].get(prefix, {}).pop(sender, None)
                    pending_decides.add((peer, prefix))
                for peer, imported in new_map.items():
                    if old_map.get(peer) != imported:
                        rib_in[peer].setdefault(prefix, {})[sender] = imported
                        pending_decides.add((peer, prefix))
                if new_map:
                    contributions[(sender, prefix)] = new_map
                else:
                    contributions.pop((sender, prefix), None)

            # Decide: re-run the decision process where inputs changed.
            pending_exports = set()
            for receiver, prefix in sorted(pending_decides, key=_queue_order):
                device = self.network.machines.get(receiver)
                if device is None or device.bgp is None:
                    continue
                candidates = []
                local = self.local_routes.get(receiver, {}).get(prefix)
                if local is not None:
                    candidates.append(local)
                candidates.extend(rib_in[receiver].get(prefix, {}).values())
                best = self.decide(receiver, candidates)
                table = selected.get(receiver)
                if table is None:
                    table = selected[receiver] = {}
                    changed_tables.add(receiver)
                previous = table.get(prefix)
                if best is None:
                    table.pop(prefix, None)
                else:
                    table[prefix] = best
                if best != previous:
                    pending_exports.add((receiver, prefix))
                    changed_tables.add(receiver)
            pending_decides = set()

        return BgpResult(
            converged=False,
            oscillating=False,
            rounds=max_rounds,
            selected=selected,
            history=history,
            session_warnings=list(self.warnings),
            messages=messages,
        )

    @classmethod
    def _state_key(cls, selected: dict) -> tuple:
        return tuple(
            (name, cls._table_key(table)) for name, table in sorted(selected.items())
        )

    @staticmethod
    def _table_key(table: dict) -> tuple:
        """One machine's part of the state key."""
        return tuple(sorted(route.selection_key() for route in table.values()))

    @staticmethod
    def _snapshot(selected: dict) -> dict:
        return {
            name: {prefix: route for prefix, route in table.items()}
            for name, table in selected.items()
        }
