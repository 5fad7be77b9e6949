"""Load-aware round-robin placement of written pages across VMD servers.

Quoting §IV-A: *"The load-aware algorithm works by selecting a VMD server
in round-robin order, which reports having any unused memory."* We apply
the same policy at byte-batch granularity: a write batch is carved into
chunks assigned to successive servers that still report free memory.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.vmd.server import VMDServer

__all__ = ["RoundRobinPlacement"]


class RoundRobinPlacement:
    """Stateful round-robin cursor over a server list.

    ``placeable`` is an optional health filter (see
    :meth:`~repro.vmd.VMDCluster.attach_health`): servers it rejects are
    skipped by new placements — a donor on a DOWN or freshly recovered
    host takes no new pages even though its ``alive`` flag may already be
    back — but existing contents stay readable.
    """

    def __init__(self, servers: Sequence[VMDServer],
                 chunk_bytes: float = 4 * 2 ** 20,
                 placeable: Optional[Callable[[VMDServer], bool]] = None):
        if not servers:
            raise ValueError("placement needs at least one server")
        if chunk_bytes <= 0:
            raise ValueError("chunk size must be positive")
        self.servers = list(servers)
        self.chunk_bytes = float(chunk_bytes)
        self.placeable = placeable
        self._cursor = 0

    def _usable(self, server: VMDServer) -> bool:
        return server.alive and (self.placeable is None
                                 or self.placeable(server))

    def split_write(self, n_bytes: float) -> dict[VMDServer, float]:
        """Assign ``n_bytes`` of writes to servers, load-aware round-robin.

        Returns the byte count destined to each chosen server. Bytes that
        no server can hold are dropped from the result (the caller sees a
        smaller total and stalls, like a full block device).
        """
        plan: dict[VMDServer, float] = {}
        remaining = float(n_bytes)
        n = len(self.servers)
        stalled = 0
        while remaining > 0 and stalled < n:
            server = self.servers[self._cursor % n]
            self._cursor += 1
            # Free memory net of what this plan already assigned: the
            # actual allocation happens when grants land, so the plan must
            # not oversubscribe a server within the tick. Dead donors
            # report no free memory (the gossip goes silent).
            available = (server.free_bytes - plan.get(server, 0.0)
                         if self._usable(server) else 0.0)
            if available <= 0:
                stalled += 1
                continue
            stalled = 0
            take = min(self.chunk_bytes, remaining, available)
            plan[server] = plan.get(server, 0.0) + take
            remaining -= take
        return plan
