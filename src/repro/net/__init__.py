"""Flow-level network substrate.

Models a cluster Ethernet fabric the way the paper's testbed behaves: each
host has a full-duplex NIC (1 Gbps in the paper) attached to a non-blocking
top-of-rack switch, so contention happens only at host NICs. Data movement
is modeled as *flows* between hosts; every tick the :class:`Network`
arbiter divides NIC capacity among active flows with max-min fairness,
honoring strict priority classes (demand-paging traffic preempts bulk
migration traffic, as in the paper's implementation).

:class:`StreamChannel` provides a job-queue abstraction on top of a flow:
callers enqueue transfers and receive completion events, which is how the
migration managers and the VMD move bytes.
"""

from repro.net.link import Link
from repro.net.flow import Flow
from repro.net.network import Network
from repro.net.channel import ChannelClosed, StreamChannel, TransferJob
from repro.net.certificate import maxmin_violations

__all__ = ["ChannelClosed", "Flow", "Link", "Network", "StreamChannel",
           "TransferJob", "maxmin_violations"]
