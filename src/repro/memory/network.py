"""The network level of the device tree: channels between workers.

The paper's tree abstraction extends by one more level -- a network
channel *above* the per-machine storage root.  Where
:class:`~repro.memory.channel.Link` models the bus between two memory
nodes inside one machine, a :class:`NetworkChannel` models the fabric
between distributed workers that each own a whole subtree (or chunk
range) of one task graph (:mod:`repro.dist`).

The cost model is the same first-order shape the paper's Figure 9
emulator uses for in-machine transfers, plus a per-message term --
network shipments are messages, and small control messages (task
grants, completion acks) pay the message overhead even at zero payload
bytes::

    seconds(nbytes) = latency + per_message + nbytes / bandwidth

The distributed projection (:mod:`repro.dist.model`) charges every
boundary-crossing shipment this way; shipments out of one worker
serialise on its transmit side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.memory.units import GB


@dataclass(frozen=True)
class NetworkChannel:
    """A modeled network fabric between distributed workers.

    Attributes
    ----------
    name:
        e.g. ``"10gbe"``.
    bandwidth:
        Peak payload bandwidth in bytes/second per direction.
    latency:
        Per-shipment propagation/setup latency in seconds.
    per_message:
        Fixed per-message software overhead (serialisation, syscalls);
        the only cost of a zero-byte control message besides latency.
    duplex:
        Whether the fabric is full duplex; descriptive only (the
        projection serialises a worker's sends either way).
    """

    name: str
    bandwidth: float
    latency: float = 0.0
    per_message: float = 0.0
    duplex: bool = True

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigError(
                f"network {self.name}: bandwidth must be positive")
        if self.latency < 0 or self.per_message < 0:
            raise ConfigError(
                f"network {self.name}: overheads must be non-negative")

    def transfer_seconds(self, nbytes: int) -> float:
        """Seconds for one shipment of ``nbytes`` payload bytes."""
        if nbytes < 0:
            raise ConfigError(f"negative shipment size {nbytes}")
        return self.latency + self.per_message + nbytes / self.bandwidth

    def describe(self) -> dict:
        """The cost-model parameters (bench JSON / describe payload)."""
        return {
            "name": self.name,
            "bandwidth_Bps": self.bandwidth,
            "latency_s": self.latency,
            "per_message_s": self.per_message,
            "duplex": self.duplex,
        }


# -- standard fabrics --------------------------------------------------------

#: Commodity datacenter Ethernet: high per-message cost dominates small
#: shipments.
ETHERNET_10G = NetworkChannel(name="10gbe", bandwidth=1.25 * GB,
                              latency=50e-6, per_message=5e-6)
#: HPC interconnect: the configuration the paper's cluster level would
#: use (matches the infiniband Link of ``two_node_cluster``).
INFINIBAND_EDR = NetworkChannel(name="ib-edr", bandwidth=12 * GB,
                                latency=1.5e-6, per_message=1e-6)
#: Same-host worker processes (pipes over the memory bus); the default
#: of the distributed bench's modeled curve.
LOOPBACK = NetworkChannel(name="loopback", bandwidth=8 * GB,
                          latency=5e-6, per_message=1e-6)

NETWORK_PRESETS = {
    "10gbe": ETHERNET_10G,
    "ib-edr": INFINIBAND_EDR,
    "loopback": LOOPBACK,
}
