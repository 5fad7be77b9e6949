"""A flow: a demand for bytes between two hosts within one tick.

Owners set :attr:`Flow.demand` during the *pre-tick* phase; the
:class:`~repro.net.network.Network` arbiter fills :attr:`Flow.granted`
during arbitration; owners read it during *commit*. Demands do not persist
across ticks — an owner with a backlog re-declares every tick (the
:class:`~repro.net.channel.StreamChannel` helper does this bookkeeping).

``demand`` is a property: on default-path networks, setting a positive
demand registers the flow in the network's active set for the coming
tick, so the arbiter touches only flows that actually want bytes instead
of scanning every idle flow in the fabric.
"""

from __future__ import annotations

from typing import Sequence

from repro.net.link import Link

__all__ = ["Flow"]


class Flow:
    """A unidirectional byte stream crossing a set of links.

    Parameters
    ----------
    name:
        Diagnostic label.
    links:
        The links this flow traverses (tx of the source host, rx of the
        destination host). An intra-host flow traverses no links and is
        granted its full demand.
    priority:
        Strict priority class; **lower numbers are served first**. The
        paper serves post-copy demand-paging requests ahead of the active
        push, which we express as priority 0 vs 1.
    """

    __slots__ = ("name", "links", "priority", "_demand", "granted",
                 "total_bytes", "active", "src", "dst",
                 "_registry", "_marked", "_seq")

    def __init__(self, name: str, links: Sequence[Link], priority: int = 1,
                 src: str = "", dst: str = ""):
        self.name = name
        self.links = tuple(links)
        self.priority = int(priority)
        #: endpoint host names (used by partition fault injection)
        self.src = src
        self.dst = dst
        #: bytes requested for the current tick (set in pre-tick)
        self._demand = 0.0
        #: bytes granted for the current tick (set by the arbiter)
        self.granted = 0.0
        #: lifetime bytes granted
        self.total_bytes = 0.0
        #: closed flows are skipped by the arbiter and may be reaped
        self.active = True
        # -- registry bookkeeping (set by Network.open_flow) ----------------
        #: owning network's flow registry (None on reference-path networks)
        self._registry = None
        #: already queued in the registry's pending-active list this tick
        self._marked = False
        #: open order; canonical arbitration order within a tick
        self._seq = 0

    @property
    def demand(self) -> float:
        return self._demand

    @demand.setter
    def demand(self, value: float) -> None:
        self._demand = value
        if value > 0 and self._registry is not None and not self._marked:
            self._marked = True
            self._registry._mark_active(self)

    def close(self) -> None:
        """Mark the flow finished; the network reaps it on the next tick."""
        self.active = False
        self._demand = 0.0
        if self._registry is not None:
            self._registry._mark_closed(self)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Flow {self.name} prio={self.priority} "
                f"total={self.total_bytes/1e6:.1f}MB>")
