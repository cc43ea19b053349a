"""A canonical digest of a booted lab's routing state.

The digest covers every router's IGP RIB and BGP selected routes plus
the convergence verdict.  Reachability is left out: it is O(n²) probes
at the paper's scale.  Entries are visited in sorted order and rendered
with the route dataclasses' ``repr``, so the digest does not depend on
dict or set iteration order (and therefore not on ``PYTHONHASHSEED``).
"""

from __future__ import annotations

import hashlib


def _table_lines(kind: str, machine: str, table: dict):
    for prefix, route in sorted(table.items(), key=lambda item: str(item[0])):
        yield "%s\t%s\t%s\t%r\n" % (kind, machine, prefix, route)


def lab_digest(lab) -> str:
    """SHA-256 over the verdict, IGP RIBs and BGP selected routes."""
    report = lab.convergence_report
    digest = hashlib.sha256()
    digest.update(
        ("verdict\t%s\t%d\t%d\n" % (report.status, report.period, report.components)).encode()
    )
    selected = lab.bgp_result.selected
    for machine in sorted(lab.network.machines):
        for line in _table_lines("igp", machine, lab.igp.routes(machine)):
            digest.update(line.encode())
        for line in _table_lines("bgp", machine, selected.get(machine, {})):
            digest.update(line.encode())
    return digest.hexdigest()
