"""Live collection as a service: the long-running ingest daemon.

Everything else in the repo measures *finite* traces; this package is
the operational embodiment the paper's introduction assumes — a
standing collector that NetFlow v5 exporters stream datagrams at, with
rotation and export happening *while* traffic arrives:

* :mod:`repro.serve.ring` — lock-minimal shared-memory SPSC packet
  rings (one per worker, on :mod:`repro.shm.segments`);
* :mod:`repro.serve.spec` — :class:`ServeSpec`, the frozen
  JSON-round-trippable daemon description nesting a
  :class:`~repro.stream.spec.PipelineSpec`;
* :mod:`repro.serve.daemon` — :class:`ServeDaemon`, the UDP listener +
  worker processes + graceful-drain lifecycle;
* :mod:`repro.serve.supervisor` — worker-death detection, ring
  quarantine, respawn-with-backoff, exact loss accounting (DESIGN §11);
* :mod:`repro.serve.replay` — paced v5 trace replay, the soak rig.

Quickstart (see also ``repro-experiments serve``)::

    from repro.serve import ServeDaemon, ServeSpec, replay_trace

    spec = ServeSpec(pipeline={
        "source": {"kind": "udp", "params": {"port": 0}},
        "collector": {"kind": "hashflow", "params": {"main_cells": 4096}},
        "rotation": {"kind": "interval", "params": {"window": 5.0}},
        "sinks": [{"kind": "archive"}],
    })
    daemon = ServeDaemon(spec)
    address = daemon.bind()          # learn the ephemeral port
    # ... replay_trace(trace, address) from another thread/process ...
    result = daemon.run(duration=10.0)

The determinism contract is the package's backbone: a finite trace
replayed into the daemon exports records bit-identical to the offline
``Pipeline.run`` of the same spec (exactly for one worker; as the
merged record set for several workers under interval rotation).
"""

from repro.export.netflow_v5 import decode_datagram, encode_datagrams
from repro.hashing.mixers import keys_from_halves
from repro.serve.daemon import ServeDaemon, ServeResult
from repro.serve.replay import replay_datagrams, replay_trace, trace_datagrams
from repro.serve.ring import DEFAULT_RING_SLOTS, PacketRing
from repro.serve.spec import (
    BACKPRESSURE_MODES,
    WORKER_LOSS_MODES,
    ServeSpec,
    load_serve_spec,
    save_serve_spec,
)
from repro.serve.supervisor import Supervisor

__all__ = [
    "BACKPRESSURE_MODES",
    "DEFAULT_RING_SLOTS",
    "PacketRing",
    "ServeDaemon",
    "ServeResult",
    "ServeSpec",
    "Supervisor",
    "WORKER_LOSS_MODES",
    "decode_datagram",
    "encode_datagrams",
    "keys_from_halves",
    "load_serve_spec",
    "replay_datagrams",
    "replay_trace",
    "save_serve_spec",
    "trace_datagrams",
]
