"""Counts of structural defects an overlay can carry without failing a pass.

``repro.scenarios.invariants`` raises on the first violation.  These
helpers count every violation instead, so a pass can report how far an
overlay is from the strict invariants that it is known not to meet:

* nested paths -- a partition whose path is a strict prefix of another
  peer's path (the strict tiling check fails on these; the
  refinement-tolerant one accepts them);
* stale references -- routing references outside the complementary
  subtree of their level (the complementarity check fails on these);
* misanswered keys -- stored keys that some peer responsible for them
  does not hold, so a lookup ending at that peer answers "absent".
"""

from __future__ import annotations

from collections import defaultdict

from repro.pgrid.bits import Path
from repro.pgrid.keyspace import KEY_BITS
from repro.pgrid.network import PGridNetwork


def nested_paths(net: PGridNetwork) -> int:
    """Distinct peer paths that are a strict prefix of another peer's path."""
    paths = sorted({peer.path for peer in net.peers.values()})
    return sum(1 for p, q in zip(paths, paths[1:]) if p.is_prefix_of(q))


def stale_refs(net: PGridNetwork) -> int:
    """Routing references that do not point into their level's complementary subtree."""
    stale = 0
    for peer in net.peers.values():
        path = peer.path
        for level, refs in peer.routing.levels.items():
            if level >= path.length:
                stale += len(refs)
                continue
            comp = path.prefix(level).extend(1 - path.bit(level))
            for ref in refs:
                other = net.peers.get(ref)
                if other is None or not comp.is_prefix_of(other.path):
                    stale += 1
    return stale


def misanswered_keys(net: PGridNetwork) -> int:
    """Stored keys that at least one peer responsible for them lacks."""
    by_path = defaultdict(list)
    for peer in net.peers.values():
        by_path[peer.path].append(peer)
    depths = sorted({path.length for path in by_path})
    stored = net.all_keys()
    missing = 0
    for key in stored:
        for depth in depths:
            owners = by_path.get(Path(key >> (KEY_BITS - depth), depth))
            if owners and any(key not in peer.keys for peer in owners):
                missing += 1
                break
    return missing
