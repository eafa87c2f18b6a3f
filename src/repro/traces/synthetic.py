"""Synthetic trace generation with calibrated heavy-tailed flow sizes.

The paper evaluates on four operational traces (CAIDA, Campus, ISP1,
ISP2) which are not redistributable.  We substitute synthetic traces
whose flow-size distributions are calibrated to the published statistics
(Table I: max and mean flow size; Fig. 3: skewed CDF; Section II: "7.7%
of the flows contribute more than 85% of the packets" for the campus
trace).  All evaluated behaviours depend only on the flow-size
distribution, the number of flows, and the packet interleaving, so this
substitution preserves the experiments' shape (see DESIGN.md).

The size model is a two-component mixture:

* *mice*: a geometric distribution on {1, 2, ...} (most flows are tiny);
* *elephants*: a discretized truncated Pareto with tail exponent
  ``alpha`` on ``[tail_min, max_size]``.

The mixture weight is solved analytically from the target mean in
:func:`solve_tail_weight`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flow.key import pack_key
from repro.traces.trace import Trace

COMMON_PORTS = (80, 443, 53, 22, 25, 8080, 123, 993)

@dataclass(frozen=True, slots=True)
class SizeModel:
    """Parameters of the mice/elephant mixture flow-size distribution.

    Attributes:
        mice_p: success probability of the geometric mice component
            (mean mice size = ``1 / mice_p``).
        tail_alpha: Pareto tail exponent of the elephant component.
        tail_min: smallest elephant size.
        max_size: truncation point (largest possible flow).
        tail_weight: probability that a flow is an elephant.
    """

    mice_p: float
    tail_alpha: float
    tail_min: float
    max_size: int
    tail_weight: float

    def __post_init__(self):
        if not 0.0 < self.mice_p <= 1.0:
            raise ValueError(f"mice_p must be in (0, 1], got {self.mice_p}")
        if self.tail_alpha <= 0:
            raise ValueError(f"tail_alpha must be > 0, got {self.tail_alpha}")
        if self.tail_min < 1:
            raise ValueError(f"tail_min must be >= 1, got {self.tail_min}")
        if self.max_size < self.tail_min:
            raise ValueError("max_size must be >= tail_min")
        if not 0.0 <= self.tail_weight <= 1.0:
            raise ValueError(f"tail_weight must be in [0, 1], got {self.tail_weight}")

    def mean(self) -> float:
        """Approximate mean flow size of the mixture."""
        mice_mean = 1.0 / self.mice_p
        tail_mean = truncated_pareto_mean(self.tail_alpha, self.tail_min, self.max_size)
        return (1 - self.tail_weight) * mice_mean + self.tail_weight * tail_mean

    def sample(self, n_flows: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n_flows`` flow sizes (>= 1 packets each)."""
        sizes = rng.geometric(self.mice_p, size=n_flows).astype(np.int64)
        is_tail = rng.random(n_flows) < self.tail_weight
        n_tail = int(is_tail.sum())
        if n_tail:
            sizes[is_tail] = sample_truncated_pareto(
                self.tail_alpha, self.tail_min, self.max_size, n_tail, rng
            )
        return sizes


def truncated_pareto_mean(alpha: float, lo: float, hi: float) -> float:
    """Mean of a continuous Pareto(alpha) truncated to ``[lo, hi]``.

    Used by :func:`solve_tail_weight` to calibrate the mixture weight.
    """
    if hi <= lo:
        return lo
    r = lo / hi
    if abs(alpha - 1.0) < 1e-9:
        return lo * np.log(hi / lo) / (1 - r)
    return lo * (alpha / (alpha - 1.0)) * (1 - r ** (alpha - 1.0)) / (1 - r**alpha)


def sample_truncated_pareto(
    alpha: float, lo: float, hi: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` integer sizes from a discretized truncated Pareto.

    Inverse-CDF sampling of the continuous truncated Pareto followed by
    rounding; results are clipped to ``[lo, hi]``.
    """
    u = rng.random(n)
    r = (lo / hi) ** alpha
    x = lo * (1 - u * (1 - r)) ** (-1.0 / alpha)
    return np.clip(np.round(x), lo, hi).astype(np.int64)


def solve_tail_weight(
    target_mean: float, mice_p: float, tail_alpha: float, tail_min: float, max_size: int
) -> float:
    """Solve the mixture weight that achieves ``target_mean``.

    ``mean = (1 - w) * mice_mean + w * tail_mean  =>  w``.

    Raises:
        ValueError: if the target mean cannot be represented by the
            component means (i.e. it is outside ``[mice_mean, tail_mean]``).
    """
    mice_mean = 1.0 / mice_p
    tail_mean = truncated_pareto_mean(tail_alpha, tail_min, max_size)
    if not mice_mean <= target_mean <= tail_mean:
        raise ValueError(
            f"target mean {target_mean} outside component means "
            f"[{mice_mean:.3f}, {tail_mean:.3f}]"
        )
    return (target_mean - mice_mean) / (tail_mean - mice_mean)


def generate_flow_keys(n_flows: int, rng: np.random.Generator) -> list[int]:
    """Generate ``n_flows`` distinct, realistic-looking 5-tuple keys.

    Sources are drawn from a moderately sized client pool, destinations
    are biased toward a small set of servers and well-known ports, and
    the protocol mix is TCP-heavy — resembling access-link traffic.
    Uniqueness of the packed keys is enforced by rejection.
    """
    if n_flows < 0:
        raise ValueError(f"n_flows must be >= 0, got {n_flows}")
    keys: list[int] = []
    seen: set[int] = set()
    n_servers = max(16, n_flows // 64)
    servers = rng.integers(0, 2**32, size=n_servers, dtype=np.uint64)
    while len(keys) < n_flows:
        batch = n_flows - len(keys)
        src = rng.integers(0, 2**32, size=batch, dtype=np.uint64)
        dst = servers[rng.integers(0, n_servers, size=batch)]
        sport = rng.integers(1024, 65536, size=batch, dtype=np.uint64)
        use_common = rng.random(batch) < 0.7
        dport = rng.integers(1024, 65536, size=batch, dtype=np.uint64)
        common = rng.choice(np.array(COMMON_PORTS, dtype=np.uint64), size=batch)
        dport = np.where(use_common, common, dport)
        proto = np.where(rng.random(batch) < 0.85, 6, 17).astype(np.uint64)
        for s, d, sp, dp, pr in zip(src, dst, sport, dport, proto):
            key = pack_key(int(s), int(d), int(sp), int(dp), int(pr))
            if key not in seen:
                seen.add(key)
                keys.append(key)
                if len(keys) == n_flows:
                    break
    return keys


def interleave_uniform(
    sizes: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random interleaving: each packet slot holds a random flow.

    Produces an ``order`` array (flow index per packet) where every
    flow's packets are spread uniformly over the epoch — the steady-state
    mixing regime the paper's per-epoch evaluation assumes.
    """
    order = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    return rng.permutation(order)


def interleave_temporal(
    sizes: np.ndarray, rng: np.random.Generator, duration: float = 60.0
) -> tuple[np.ndarray, np.ndarray]:
    """Temporal interleaving: flows are bursts inside an epoch.

    Each flow gets a start time uniform in the epoch and a duration that
    grows with its size; its packets are placed uniformly inside the
    burst.  Returns ``(order, timestamps)`` sorted by time.  This mode
    exercises eviction dynamics (flows arriving and dying) that the
    uniform shuffle smooths away.
    """
    n_flows = len(sizes)
    total = int(sizes.sum())
    starts = rng.random(n_flows) * duration
    # A flow of s packets lasts ~ proportional to log(s), capped to the epoch.
    spans = np.minimum(duration * 0.25 * (1 + np.log1p(sizes)) / 8.0, duration)
    order = np.repeat(np.arange(n_flows, dtype=np.int64), sizes)
    ts = starts[order] + rng.random(total) * spans[order]
    ts = np.minimum(ts, duration)
    perm = np.argsort(ts, kind="stable")
    return order[perm], ts[perm]


def synthesize(
    n_flows: int,
    model: SizeModel,
    seed: int = 0,
    name: str = "synthetic",
    interleave: str = "uniform",
    force_max: bool = False,
) -> Trace:
    """Generate a synthetic trace.

    Args:
        n_flows: number of distinct flows.
        model: flow-size mixture model.
        seed: RNG seed; the whole trace is deterministic given the seed.
        name: trace name.
        interleave: ``"uniform"`` (random shuffle, no timestamps) or
            ``"temporal"`` (bursty arrivals with timestamps).
        force_max: if True, the largest flow's size is set to exactly
            ``model.max_size``, pinning the Table I "max flow size"
            statistic.

    Returns:
        A :class:`~repro.traces.trace.Trace`.
    """
    rng = np.random.default_rng(seed)
    sizes = model.sample(n_flows, rng)
    if force_max and n_flows:
        sizes[int(np.argmax(sizes))] = model.max_size
    keys = generate_flow_keys(n_flows, rng)
    if interleave == "uniform":
        order = interleave_uniform(sizes, rng)
        return Trace(keys, order, name=name)
    if interleave == "temporal":
        order, ts = interleave_temporal(sizes, rng)
        return Trace(keys, order, timestamps=ts, name=name)
    raise ValueError(f"unknown interleave mode: {interleave!r}")
