"""Packet sources: where a streaming pipeline's traffic comes from.

A :class:`Source` materializes a :class:`~repro.traces.trace.Trace`
(the pipeline batches it into :class:`~repro.flow.batch.KeyBatch`
chunks) and is described by JSON-native ``{"kind": ..., "params": ...}``
data, so a :class:`~repro.stream.spec.PipelineSpec` can name its
traffic the same way it names its collector.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Mapping

from repro.specs.spec import build_stage, positive_count
from repro.traces.trace import Trace


class Source(ABC):
    """A spec-described packet-stream source."""

    #: Registry kind name.
    kind: str = "source"

    @abstractmethod
    def spec_params(self) -> dict[str, Any]:
        """JSON-native constructor params reproducing this source."""

    @property
    def spec(self) -> dict[str, Any]:
        """The ``{"kind": ..., "params": ...}`` description."""
        return {"kind": self.kind, "params": self.spec_params()}

    @abstractmethod
    def trace(self) -> Trace:
        """Materialize the packet stream."""


class SyntheticSource(Source):
    """A calibrated synthetic trace profile (Table I traces).

    Args:
        profile: profile name (:data:`repro.traces.profiles.PROFILES`).
        n_flows: flows to generate.
        seed: generation seed.
        interleave: packet interleaving mode (``"uniform"`` /
            ``"temporal"``).
        force_max: pin the largest flow to the profile's Table I max.
    """

    kind = "synthetic"

    def __init__(
        self,
        profile: str,
        n_flows: int,
        seed: int = 0,
        interleave: str = "uniform",
        force_max: bool = False,
    ):
        from repro.traces.profiles import PROFILES

        if profile not in PROFILES:
            raise ValueError(
                f"unknown trace profile {profile!r}; known: {sorted(PROFILES)}"
            )
        if n_flows <= 0:
            raise ValueError(f"n_flows must be positive, got {n_flows}")
        self.profile = profile
        self.n_flows = int(n_flows)
        self.seed = int(seed)
        self.interleave = interleave
        self.force_max = bool(force_max)

    def spec_params(self) -> dict[str, Any]:
        return {
            "profile": self.profile,
            "n_flows": self.n_flows,
            "seed": self.seed,
            "interleave": self.interleave,
            "force_max": self.force_max,
        }

    def trace(self) -> Trace:
        from repro.traces.profiles import PROFILES

        return PROFILES[self.profile].generate(
            n_flows=self.n_flows,
            seed=self.seed,
            interleave=self.interleave,
            force_max=self.force_max,
        )


class PcapSource(Source):
    """A pcap capture imported through :func:`repro.traces.pcap.read_pcap`.

    Args:
        path: pcap file path.
    """

    kind = "pcap"

    def __init__(self, path: str):
        self.path = str(path)

    def spec_params(self) -> dict[str, Any]:
        return {"path": self.path}

    def trace(self) -> Trace:
        from repro.traces.pcap import read_pcap

        return read_pcap(self.path)


class NetwideSource(Source):
    """A multi-vantage stream: one trace observed across a topology.

    The base trace is routed over a leaf/spine fabric
    (:func:`repro.netwide.topology.fat_tree_core`) and the per-switch
    observation streams are concatenated in sorted switch order
    (:meth:`~repro.netwide.topology.FlowRouter.vantage_stream`): a flow
    traversing three switches contributes its packets three times, the
    aggregate stream a network-wide collection point ingests.

    Args:
        profile: synthetic profile of the base trace.
        n_flows: flows in the base trace.
        seed: base-trace generation seed.
        k_edge: edge switches in the fabric.
        k_core: core switches in the fabric.
        router_seed: flow-to-edge assignment seed.
    """

    kind = "netwide"

    def __init__(
        self,
        profile: str,
        n_flows: int,
        seed: int = 0,
        k_edge: int = 4,
        k_core: int = 2,
        router_seed: int = 0,
    ):
        self.base = SyntheticSource(profile, n_flows, seed=seed)
        self.k_edge = int(k_edge)
        self.k_core = int(k_core)
        self.router_seed = int(router_seed)

    def spec_params(self) -> dict[str, Any]:
        return {
            "profile": self.base.profile,
            "n_flows": self.base.n_flows,
            "seed": self.base.seed,
            "k_edge": self.k_edge,
            "k_core": self.k_core,
            "router_seed": self.router_seed,
        }

    def trace(self) -> Trace:
        from repro.netwide.topology import FlowRouter, fat_tree_core
        from repro.traces.trace import trace_from_keys

        base = self.base.trace()
        router = FlowRouter(
            fat_tree_core(self.k_edge, self.k_core), seed=self.router_seed
        )
        keys = router.vantage_stream(base)
        return trace_from_keys(keys, name=f"{base.name}-netwide")


def udp_address(host: str = "127.0.0.1", port: int = 2055) -> tuple[str, int]:
    """The checked ``(host, port)`` of a udp source's params.

    Raises:
        ValueError: a host that is not a string, or a port that is not
            an integer in ``[0, 65535]``.
    """
    if not isinstance(host, str):
        raise ValueError(f"host must be a string, got {host!r}")
    port = positive_count("port", port, minimum=0)
    if port > 0xFFFF:
        raise ValueError(f"port out of range: {port}")
    return host, port


class UDPSource(Source):
    """A live UDP NetFlow v5 listener (the :mod:`repro.serve` source).

    Unlike every other source this one has no finite trace: datagrams
    arrive on the wire and are decoded straight into the serve daemon's
    shared-memory packet rings
    (:func:`repro.export.netflow_v5.decode_datagrams`).  It exists
    as a registered source kind so a :class:`~repro.stream.spec.
    PipelineSpec` can *name* live traffic the same way it names a
    profile — such a spec is runnable by ``repro-experiments serve``,
    not by :meth:`~repro.stream.pipeline.Pipeline.run`.

    Args:
        host: listen address (default loopback).
        port: listen UDP port; 0 binds an ephemeral port (the daemon
            reports the bound address).
    """

    kind = "udp"

    def __init__(self, host: str = "127.0.0.1", port: int = 2055):
        self.host, self.port = udp_address(host, port)

    def spec_params(self) -> dict[str, Any]:
        return {"host": self.host, "port": self.port}

    def trace(self) -> Trace:
        raise RuntimeError(
            "a live UDP source has no finite trace; run this pipeline "
            "under the serve daemon (repro-experiments serve)"
        )


#: Registered source kinds.
SOURCES: dict[str, type[Source]] = {
    SyntheticSource.kind: SyntheticSource,
    PcapSource.kind: PcapSource,
    NetwideSource.kind: NetwideSource,
    UDPSource.kind: UDPSource,
}


def build_source(spec: Mapping[str, Any] | Source) -> Source:
    """Build a source from its spec dict (passthrough for instances;
    refusals as :func:`~repro.specs.spec.build_stage`)."""
    if isinstance(spec, Source):
        return spec
    return build_stage(SOURCES, spec, "source")
