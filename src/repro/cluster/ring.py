"""Consistent hashing of evaluator fingerprints onto replicas.

The router shards *sessions*, not individual requests: every request
whose spec hashes to the same evaluator fingerprint lands on the same
replica, so that replica's evaluator session, caches, and micro-batches
stay warm for it.  A classic consistent-hash ring with virtual nodes
gives that stickiness while keeping reshuffling minimal when a replica
joins or leaves: each replica owns ``vnodes`` pseudo-random points on a
md5 ring, and a key routes to the first replica point at or after the
key's own hash.

:meth:`HashRing.preference` returns the *whole* preference list — every
replica, deduplicated, in ring order from the key's position.  The
router walks that list for failover, so a key's backup replicas are as
stable as its primary.

md5 is used as a spreading function only (no security meaning) and is
stable across processes and Python versions, unlike ``hash()`` — the
same key must route identically from every router instance.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Sequence

DEFAULT_VNODES = 64


def _hash(value: str) -> int:
    digest = hashlib.md5(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Virtual-node consistent-hash ring over replica names."""

    def __init__(self, names: Sequence[str], vnodes: int = DEFAULT_VNODES):
        if not names:
            raise ValueError("hash ring needs at least one replica name")
        if len(set(names)) != len(names):
            raise ValueError("hash ring replica names must be unique")
        self.vnodes = max(1, int(vnodes))
        self._names = list(names)
        points = []
        for name in self._names:
            for vnode in range(self.vnodes):
                points.append((_hash(f"{name}#{vnode}"), name))
        points.sort()
        self._points = [point for point, _name in points]
        self._owners = [name for _point, name in points]

    def __len__(self) -> int:
        return len(self._names)

    @property
    def names(self) -> List[str]:
        return list(self._names)

    def owner(self, key: str) -> str:
        """The primary replica for a routing key."""
        return self.preference(key)[0]

    def preference(self, key: str) -> List[str]:
        """All replicas in ring order from the key's position.

        Entry 0 is the primary, entry 1 the first failover target, and
        so on; every replica appears exactly once.
        """
        start = bisect.bisect_left(self._points, _hash(key))
        seen = set()
        ordered = []
        n = len(self._points)
        for step in range(n):
            name = self._owners[(start + step) % n]
            if name not in seen:
                seen.add(name)
                ordered.append(name)
                if len(ordered) == len(self._names):
                    break
        return ordered
