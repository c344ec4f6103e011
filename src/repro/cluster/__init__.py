"""``repro.cluster``: distributed multi-worker execution.

The engine's third :class:`~repro.experiments.backends.ExecutionBackend`:
a coordinator schedules :class:`~repro.experiments.engine.SimJob`\\ s to
N worker processes — spawned locally or connected over TCP/unix sockets
via ``repro worker --connect`` — with lease-based heartbeats and
requeue/work-stealing when a worker dies mid-job.  Results, run stores,
merged metrics and span trees come out byte-identical to ``--jobs 1``;
see DESIGN.md's "Distributed execution" section for the protocol and
the determinism argument.

Layout
------
:mod:`repro.cluster.protocol`
    Length-prefixed JSON frames, opaque pickle payloads, addresses.
:mod:`repro.cluster.coordinator`
    The scheduler side: accept workers, lease jobs, detect loss.
:mod:`repro.cluster.worker`
    The worker side: connect, heartbeat, run jobs, ship results.
:mod:`repro.cluster.backend`
    :class:`ClusterBackend`, the transport the engine's scheduling
    loop drives.
"""

from repro.cluster.backend import ClusterBackend

__all__ = ["ClusterBackend"]
