"""Host/SNIC load balancing (Strategy 3, §5.3) and SNIC→host failover.

The paper's preliminary investigation: a load balancer implemented on the
BlueField-2 CPU "consumes most of the SNIC CPU cycles simply to monitor
packets at high rates and cannot redirect packets fast enough to meet SLO
constraints", hence the call for hardware support.  This module builds
both balancers so that claim is measurable:

* :class:`SnicCpuBalancer` — per-packet monitoring costs SNIC CPU cycles
  (reducing the capacity left for the function) and redirect decisions
  react after a monitoring/telemetry delay;
* :class:`HardwareBalancer` — the proposed design: zero monitoring cost,
  immediate backlog visibility.

Both run the same threshold policy: send a packet to the host when the
SNIC path's (observed) backlog exceeds a bound.  `simulate_balancer`
drives either over an arrival stream and reports per-path latency, loss,
and the split.

`simulate_failover` extends the same policy with a fault-aware SNIC path:
given a health model (:class:`~repro.faults.models.SnicHealth`), the SNIC
backlog stops draining during an outage, packets queued behind a dead
path see the remaining outage in their sojourn, and the threshold policy
— through its existing reaction-delay machinery — detects the inflated
observed backlog, redirects to the host, and fails back once the path
recovers and drains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..obs import metrics

# Packets the policy's scalar loop stepped, rather than a verified
# speculative window (see ``_run_policy``).
M_SCALAR_PACKETS = "balancer.scalar_packets"
_M_SCALAR_PACKETS_HELP = ("balancer packets the resumable scalar loop stepped "
                        "instead of a verified speculative window")


@dataclass
class BalancerConfig:
    """Capacities are request rates; backlogs are seconds of queued work."""

    snic_service_s: float
    host_service_s: float
    snic_cores: int = 8
    host_cores: int = 8
    redirect_threshold_s: float = 50e-6  # observed SNIC backlog bound
    snic_queue_limit_s: float = 500e-6
    host_queue_limit_s: float = 500e-6
    # SNIC-CPU implementation overheads (zero for the hardware design)
    monitor_cost_s: float = 0.0  # per packet, charged to the SNIC path
    reaction_delay_s: float = 0.0  # staleness of the observed backlog


@dataclass
class BalancerOutcome:
    sent_to_snic: int
    sent_to_host: int
    dropped: int
    p99_latency_s: float
    mean_latency_s: float
    snic_monitor_utilization: float

ROUTE_SNIC, ROUTE_HOST, ROUTE_DROP = 0, 1, 2


@dataclass
class FailoverOutcome:
    """A balancer run with per-packet routing visibility and SLO accounting."""

    outcome: BalancerOutcome
    deadline_s: Optional[float]
    p999_latency_s: float
    arrivals: np.ndarray  # arrival time of every offered packet
    routes: np.ndarray  # ROUTE_SNIC / ROUTE_HOST / ROUTE_DROP per packet
    latencies: np.ndarray  # sojourn of every *kept* packet (arrival order)
    outage_windows: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def offered(self) -> int:
        return len(self.arrivals)

    @property
    def availability(self) -> float:
        """Fraction of offered requests served (within the deadline if set)."""
        if self.offered == 0:
            return 1.0
        served = self.routes != ROUTE_DROP
        if self.deadline_s is None:
            return float(np.mean(served))
        ok = self.latencies <= self.deadline_s
        return float(np.sum(ok)) / self.offered

    def host_fraction_between(self, t0: float, t1: float) -> float:
        """Host share of routed packets arriving in ``[t0, t1)``."""
        window = (self.arrivals >= t0) & (self.arrivals < t1)
        routed = window & (self.routes != ROUTE_DROP)
        if not routed.any():
            return 0.0
        return float(np.mean(self.routes[routed] == ROUTE_HOST))

    def drops_between(self, t0: float, t1: float) -> int:
        window = (self.arrivals >= t0) & (self.arrivals < t1)
        return int(np.sum(self.routes[window] == ROUTE_DROP))

    def recovery_times_s(self) -> List[float]:
        """Per outage window: delay from recovery until traffic returns to
        the SNIC path (inf if it never fails back within the run)."""
        times: List[float] = []
        for _, end in self.outage_windows:
            after = (self.arrivals >= end) & (self.routes == ROUTE_SNIC)
            if after.any():
                times.append(float(self.arrivals[after][0] - end))
            else:
                times.append(float("inf"))
        return times


# Speculation in ``_run_policy``; lengths are packets.  The values were
# swept over the default ``report``'s 20 calls on a 2-vCPU KVM guest
# (Python 3.11, numpy 2.4), where a verified window costs ~50 us plus
# ~0.14 us a packet and the scalar loop ~0.4 us a packet plus ~20 us a
# slice.  The first window after a hand-back is ``_FIRST_WINDOW`` (512,
# 1024 and 4096 were slower); each window that verifies whole doubles the
# next, up to the rest of the stream.  Only the prefix the guess expects
# to hold is folded exactly, so a long window costs little beyond its
# guess.
_FIRST_WINDOW = 2048
# The scalar loop slices its inputs ``_FIRST_SPAN`` packets at a time at
# first, doubling up to ``_SCALAR_SPAN_MAX`` while its stretch goes on.
_FIRST_SPAN = 64
_SCALAR_SPAN_MAX = 512
# It hands a stretch back once ``_STREAK`` packets in a row took one route
# and were kept (8, 16 and 64 were slower).  A window that then takes
# fewer than ``_WORTH`` packets cost more than stepping them, so the run
# needed before the next hand-back doubles, up to ``_STREAK_MAX``; a
# window worth it resets it.  This keeps a throttled SNIC's oscillation,
# whose runs are tens of packets, on the scalar loop.
_STREAK = 32
_STREAK_MAX = 512
_WORTH = 128
# The segmented fold folds a segment on its own when it spans at least
# ``_LONG_OPS`` ops or is one of at most ``_FEW_SEGMENTS`` of its size: a
# padded bucket costs a few numpy calls plus ~15 ns an op, a lone segment
# one call plus ~4 ns an op.
_LONG_OPS = 192
_FEW_SEGMENTS = 6


def _first_true(bad: np.ndarray) -> int:
    """Index of the first True in a bool array, or its length."""
    if not len(bad):
        return 0
    at = int(bad.argmax())
    return at if bad[at] else len(bad)


def _segmented_accumulate(ops: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Left fold of the rows of ``ops`` (flattened), restarted at ``starts``.

    ``ops`` holds ``k`` operations per packet plus one spare row at the
    end; a segment runs from one start row up to the next.
    ``np.add.accumulate`` along an axis is the sequential sum
    ``out[c] = out[c-1] + in[c]``, so every value is exactly the scalar
    loop's.  A long segment, or one of few of its size, is folded in
    place on its own.  The many short ones are bucketed by length into
    powers of two and folded as padded 2-D blocks, one segment per row;
    the padding reads and writes only the spare row.
    """
    rows, k = ops.shape
    count = rows - 1
    flat = ops.reshape(-1)
    out = np.empty(rows * k)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = count
    firsts = starts * k
    ends *= k
    if len(starts) <= _FEW_SEGMENTS:
        alone = zip(firsts.tolist(), ends.tolist())
    else:
        _, exponents = np.frexp(ends - firsts - 1)  # 2**e >= ops
        sizes = np.bincount(exponents).tolist()
        order = np.argsort(exponents.astype(np.uint8), kind="stable")
        firsts = firsts.take(order)
        ends = ends.take(order)
        alone_firsts: List[int] = []
        alone_ends: List[int] = []
        lo = 0
        for exponent, members in enumerate(sizes):
            hi = lo + members
            width = 1 << exponent
            if members <= _FEW_SEGMENTS or width >= _LONG_OPS:
                alone_firsts += firsts[lo:hi].tolist()
                alone_ends += ends[lo:hi].tolist()
            else:
                index = firsts[lo:hi, None] + np.arange(width)
                index[index >= ends[lo:hi, None]] = count * k
                block = flat.take(index)
                np.add.accumulate(block, axis=1, out=block)
                out[index] = block
            lo = hi
        alone = zip(alone_firsts, alone_ends)
    for first, end in alone:
        np.add.accumulate(flat[first:end], out=out[first:end])
    return out.reshape(rows, k)[:count]


def _guess(drains: np.ndarray, adds, backlog: float,
           down: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form guess of one path's backlogs over a window.

    ``drains`` is each packet's drain, ``adds`` what it adds after its
    clamp, ``down`` (None: nowhere) where the path is down and cannot
    clamp.  Prefix sums estimate each backlog before its clamp, offset
    by the lowest point reached so far: packet j clamps where its prefix
    sum is a new running minimum at or below zero (Lindley's running
    minimum, DESIGN.md §9).  The sums run in another order than the
    scalar loop's, so both results are guesses.  Returns which packets
    clamp and each backlog after its clamp.
    """
    count = len(drains)
    total = np.empty(count + 1)
    total[0] = backlog
    np.add(drains, adds, out=total[1:])
    np.add.accumulate(total, out=total)
    before = np.empty(count + 1)
    before[0] = 0.0
    np.add(total[:-1], drains, out=before[1:])
    if down is not None:
        before[1:][down] = np.inf
    low = np.minimum.accumulate(before)
    clamps = before <= low
    before -= low
    return clamps[1:], before[1:]


def _fold(ops: np.ndarray, clamps: np.ndarray, backlog: float,
          drains: np.ndarray, down: Optional[np.ndarray]
          ) -> Tuple[np.ndarray, int]:
    """One path's exact backlogs over a window, and how far its clamp
    guesses hold.

    ``ops[:-1]`` holds each packet's drain and then what it adds, and
    the last row is spare.  The fold starts from ``backlog``, clamps the
    first packet as the scalar loop does and restarts at 0.0 on every
    guessed clamp.  Then each packet's exact backlog before its clamp,
    its predecessor's final backlog plus its drain, must be above zero
    exactly where no clamp was guessed; a path that is down never
    clamps.  Returns the backlogs and the first packet whose guess was
    wrong (the window length if none); ``ops`` and ``clamps`` are
    overwritten.
    """
    if down is None or not down[0]:
        backlog = backlog + float(drains[0])
        backlog = backlog if backlog > 0.0 else 0.0
    clamps[0] = True
    starts = clamps.nonzero()[0]
    ops[starts, 0] = 0.0
    ops[0, 0] = backlog
    out = _segmented_accumulate(ops, starts)
    before = out[:-1, -1] + drains[1:]
    wrong = before > 0.0
    np.equal(wrong, clamps[1:], out=wrong)
    if down is not None:
        wrong &= ~down[1:]
    return out, 1 + _first_true(wrong)


def _window_ops(count: int, *columns) -> np.ndarray:
    """A window's ops, one row per packet plus a spare row."""
    ops = np.empty((count + 1, len(columns)))
    for column, values in enumerate(columns):
        ops[:-1, column] = values
    ops[-1] = 0.0
    return ops


class _PolicyRun:
    """One ``_run_policy`` call: its per-packet inputs as arrays, the
    outputs in packet order, and the exact state between stretches.

    Each stretch of packets is either speculated (a window routed all to
    the SNIC or all to the host, folded exactly in numpy and checked
    decision by decision) or stepped by the scalar loop.  Both apply
    every packet's float operations in the scalar loop's order, so the
    result is bit-identical whichever path a packet takes.
    """

    def __init__(self, config: BalancerConfig, arrivals: np.ndarray,
                 snic_health) -> None:
        n = len(arrivals)
        snic_effective = config.snic_service_s / config.snic_cores
        self.host_effective = config.host_service_s / config.host_cores
        self.monitor_effective = config.monitor_cost_s / config.snic_cores
        self.threshold = config.redirect_threshold_s
        self.snic_limit = config.snic_queue_limit_s
        self.host_limit = config.host_queue_limit_s
        # ``s - elapsed`` is ``s + -elapsed`` in IEEE arithmetic, so each
        # packet's drain is the negated gap to its predecessor.
        self.drain_host = -np.diff(arrivals, prepend=0.0)
        self.head = self.down = None
        self.drain_snic = self.drain_host
        if snic_health is None:
            self.add_snic = np.full(n, snic_effective)
        else:
            available, factor, until = snic_health.service_profile(arrivals)
            if available.all():
                self.add_snic = snic_effective * factor
            else:
                # A dead path does not drain (``-0.0`` leaves every
                # backlog as it is), and a packet queued behind it sees
                # the wait for the path to come back.  Work queued behind
                # a dead path is served at the nominal rate; a throttled
                # path inflates it.
                self.head = np.where(available, 0.0, until - arrivals)
                self.down = ~available
                self.drain_snic = np.where(available, self.drain_host, -0.0)
                self.add_snic = np.where(
                    self.head > 0.0, snic_effective,
                    snic_effective * np.where(available, factor, 1.0))
        # Delayed observation: packet i sees ``visible[pointer[i]]``, the
        # backlog shown by the latest packet at least ``reaction_delay``
        # old (slot j + 1 holds packet j's), or slot 0's 0.0 if none is.
        self.delayed = config.reaction_delay_s > 0.0
        if self.delayed:
            # ``searchsorted`` counts the arrivals at or before each
            # cutoff; the latest of them is the oldest packet, never past
            # the observer itself.
            cutoff = arrivals - config.reaction_delay_s
            self.pointer = np.searchsorted(arrivals, cutoff, side="right")
            np.minimum(self.pointer, np.arange(1, n + 1), out=self.pointer)
            self.visible = np.zeros(n + 1)

        self.routes = np.full(n, ROUTE_DROP, dtype=np.int8)
        self.latencies = np.empty(n)
        self.kept = 0
        self.snic_backlog = 0.0
        self.host_backlog = 0.0
        # The scalar loop's current run of one kept route, across calls.
        self.last_route = ROUTE_DROP
        self.streak = 0
        self.scalar_packets = 0

    # -- speculation ---------------------------------------------------------

    def _down(self, start: int, stop: int) -> Optional[np.ndarray]:
        return None if self.down is None else self.down[start:stop]

    def _observed(self, start: int, stop: int,
                  shown: np.ndarray) -> np.ndarray:
        if not self.delayed:
            return shown
        self.visible[start + 1:stop + 1] = shown
        return self.visible.take(self.pointer[start:stop])

    def _shown(self, backlogs: np.ndarray, start: int,
               stop: int) -> np.ndarray:
        """What the packets show the policy: the SNIC backlog, plus the
        wait for a dead path to come back."""
        if self.head is None:
            return backlogs
        return backlogs + self.head[start:stop]

    def _snic_keeps(self, start: int, stop: int, shown: np.ndarray) -> int:
        """Leading packets the policy sends to the SNIC and the SNIC keeps."""
        stay = self._observed(start, stop, shown) <= self.threshold
        bad = shown > self.snic_limit
        np.greater_equal(bad, stay, out=bad)  # a drop, or no SNIC route
        return _first_true(bad)

    def _host_keeps(self, start: int, stop: int, shown: np.ndarray,
                    host: np.ndarray) -> int:
        """Leading packets the policy redirects and the host keeps."""
        bad = self._observed(start, stop, shown) <= self.threshold
        bad |= host > self.host_limit
        return _first_true(bad)

    def _commit(self, start: int, taken: int, route: int,
                latencies: np.ndarray) -> None:
        self.routes[start:start + taken] = route
        self.latencies[self.kept:self.kept + taken] = latencies[:taken]
        self.kept += taken

    def speculate_snic(self, start: int, stop: int) -> int:
        """Route ``[start, stop)`` to the SNIC with no drop, as far as that
        is exactly right; commits those packets and returns their count."""
        monitor = self.monitor_effective
        drains = self.drain_snic[start:stop]
        adds = self.add_snic[start:stop]
        down = self._down(start, stop)
        clamps, backlogs = _guess(drains, adds + monitor, self.snic_backlog,
                                  down)
        backlogs += monitor
        count = self._snic_keeps(start, stop,
                                 self._shown(backlogs, start, stop))
        if not count:
            return 0
        stop = start + count
        drains = drains[:count]
        down = None if down is None else down[:count]
        out, taken = _fold(_window_ops(count, drains, monitor, adds[:count]),
                           clamps[:count], self.snic_backlog, drains, down)
        taken = min(taken, self._snic_keeps(
            start, stop, self._shown(out[:, 1], start, stop)))
        if not taken:
            return 0
        self._commit(start, taken, ROUTE_SNIC,
                     self._shown(out[:taken, 2], start, start + taken))
        self.snic_backlog = float(out[taken - 1, 2])
        if self.host_backlog > 0.0:
            # The host only drains: its fold clamps at most once, after
            # which it stays at 0.0.
            drained = self.drain_host[start:start + taken].copy()
            drained[0] += self.host_backlog
            np.add.accumulate(drained, out=drained)
            last = float(drained[-1])
            self.host_backlog = last if last > 0.0 else 0.0
        return taken

    def speculate_host(self, start: int, stop: int) -> int:
        """Route ``[start, stop)`` to the host with no drop, as far as that
        is exactly right; commits those packets and returns their count."""
        monitor = self.monitor_effective
        host_drains = self.drain_host[start:stop]
        drains = self.drain_snic[start:stop]
        down = self._down(start, stop)
        host_clamps, hosts = _guess(host_drains, self.host_effective,
                                    self.host_backlog, None)
        snic_clamps, backlogs = _guess(drains, monitor, self.snic_backlog,
                                       down)
        backlogs += monitor
        count = self._host_keeps(
            start, stop, self._shown(backlogs, start, stop), hosts)
        if not count:
            return 0
        stop = start + count
        host_drains = host_drains[:count]
        host, taken = _fold(
            _window_ops(count, host_drains, self.host_effective),
            host_clamps[:count], self.host_backlog, host_drains, None)
        drains = drains[:count]
        down = None if down is None else down[:count]
        snic, verified = _fold(_window_ops(count, drains, monitor),
                               snic_clamps[:count], self.snic_backlog,
                               drains, down)
        taken = min(taken, verified, self._host_keeps(
            start, stop, self._shown(snic[:, 1], start, stop), host[:, 0]))
        if not taken:
            return 0
        self._commit(start, taken, ROUTE_HOST, host[:, 1])
        self.snic_backlog = float(snic[taken - 1, 1])
        self.host_backlog = float(host[taken - 1, 1])
        return taken

    # -- the scalar loop -----------------------------------------------------

    def step(self, start: int, stop: int,
             needed: int) -> Tuple[int, Optional[int]]:
        """The per-packet policy loop from ``start``, up to ``stop``.

        It stops early once ``needed`` packets in a row took one route and
        were kept (the run carries over from the previous call), and
        returns where it stopped and that route, the regime to speculate
        next (None if it ran to ``stop``).  ``x if x > 0.0 else 0.0`` is
        exactly max(0.0, x), NaN and -0.0 included, without the builtin
        call (DESIGN.md §9).
        """
        count = stop - start
        # Plain-float slices: scalar ndarray indexing boxes a np.float64
        # per access; python floats are the same IEEE doubles.
        drains = self.drain_host[start:stop].tolist()
        additions = self.add_snic[start:stop].tolist()
        if self.head is None:
            heads = [0.0] * count
        else:
            heads = self.head[start:stop].tolist()
        if self.down is None:
            downs = [False] * count
        else:
            downs = self.down[start:stop].tolist()
        delayed = self.delayed
        if delayed:
            base = int(self.pointer[start])
            shown = self.visible[base:start + 1].tolist() + [0.0] * count
            seen = (self.pointer[start:stop] - base).tolist()
            slot = start + 1 - base
        snic_backlog = self.snic_backlog
        host_backlog = self.host_backlog
        monitor_effective = self.monitor_effective
        host_effective = self.host_effective
        redirect_threshold = self.threshold
        snic_queue_limit = self.snic_limit
        host_queue_limit = self.host_limit
        last = self.last_route
        streak = self.streak
        routes = [ROUTE_DROP] * count
        latencies: List[float] = []
        keep = latencies.append

        regime = None
        for index in range(count):
            drain = drains[index]
            # A dead path does not drain its queue.
            if not downs[index]:
                snic_backlog = snic_backlog + drain
                snic_backlog = snic_backlog if snic_backlog > 0.0 else 0.0
            host_backlog = host_backlog + drain
            host_backlog = host_backlog if host_backlog > 0.0 else 0.0

            # Monitoring happens on the SNIC CPU for every packet.
            snic_backlog += monitor_effective

            # What the policy could see *right now*: queued work plus,
            # during an outage, the wait for the path to come back at all.
            head_delay = heads[index]
            snic_visible = snic_backlog + head_delay
            if delayed:
                shown[slot] = snic_visible
                slot += 1
                observed = shown[seen[index]]
            else:
                observed = snic_visible

            if observed <= redirect_threshold:
                if snic_visible > snic_queue_limit:
                    streak = 0
                    continue
                snic_backlog += additions[index]
                keep(snic_backlog + head_delay)
                route = ROUTE_SNIC
            else:
                if host_backlog > host_queue_limit:
                    streak = 0
                    continue
                host_backlog += host_effective
                keep(host_backlog)
                route = ROUTE_HOST
            routes[index] = route
            if route == last:
                streak += 1
                if streak >= needed:
                    regime = route
                    count = index + 1
                    break
            else:
                last = route
                streak = 1

        self.scalar_packets += count
        self.snic_backlog = snic_backlog
        self.host_backlog = host_backlog
        self.last_route = last
        self.streak = streak
        stop = start + count
        if delayed:
            first = start + 1 - base
            self.visible[start + 1:stop + 1] = shown[first:first + count]
        self.routes[start:stop] = routes[:count]
        taken = len(latencies)
        self.latencies[self.kept:self.kept + taken] = latencies
        self.kept += taken
        return stop, regime


def _run_policy(
    config: BalancerConfig,
    rate: float,
    n_packets: int,
    rng: np.random.Generator,
    snic_health=None,
) -> Tuple[BalancerOutcome, np.ndarray, np.ndarray, np.ndarray]:
    """The threshold policy over a Poisson stream; shared by both entry
    points.  With ``snic_health`` (duck-typed:
    ``service_profile(times)``) the SNIC path carries fault state; with
    None the arithmetic is exactly the classic balancer.

    Speculate, verify, patch (DESIGN.md §9): a window of packets is
    assumed to take one route (all SNIC, or all host through an outage),
    both backlogs are folded over it exactly, and every clamp, route and
    drop is checked.  The first packet that breaks the assumption hands
    the exact state to the scalar loop, which steps the oscillating
    stretch until it settles on one route again.
    """
    gaps = rng.exponential(1.0 / rate, size=n_packets)
    arrivals = np.cumsum(gaps)
    policy = _PolicyRun(config, arrivals, snic_health)
    index = 0
    regime: Optional[int] = ROUTE_SNIC
    window = _FIRST_WINDOW
    span = _FIRST_SPAN
    needed = _STREAK
    while index < n_packets:
        if regime is not None:
            stop = min(n_packets, index + window)
            if regime == ROUTE_SNIC:
                taken = policy.speculate_snic(index, stop)
            else:
                taken = policy.speculate_host(index, stop)
            index += taken
            if index == stop:
                window *= 2
                continue
            needed = (_STREAK if taken >= _WORTH
                      else min(2 * needed, _STREAK_MAX))
            window = _FIRST_WINDOW
            span = _FIRST_SPAN
            policy.last_route = ROUTE_DROP
            policy.streak = 0
        index, regime = policy.step(index, min(n_packets, index + span),
                                    needed)
        span = min(2 * span, _SCALAR_SPAN_MAX)
    metrics.counter(M_SCALAR_PACKETS, help=_M_SCALAR_PACKETS_HELP).inc(
        policy.scalar_packets)

    routes = policy.routes
    kept = policy.kept
    latencies = policy.latencies[:kept].copy()
    to_snic = int(np.count_nonzero(routes == ROUTE_SNIC))
    # Every packet pays its monitoring cost: one sequential running sum.
    monitor_busy = (float(np.add.accumulate(
        np.full(n_packets, config.monitor_cost_s))[-1]) if n_packets else 0.0)
    duration = float(arrivals[-1]) if n_packets else 0.0
    outcome = BalancerOutcome(
        sent_to_snic=to_snic,
        sent_to_host=kept - to_snic,
        dropped=n_packets - kept,
        p99_latency_s=float(np.percentile(latencies, 99)) if kept else float("inf"),
        mean_latency_s=float(np.mean(latencies)) if kept else float("inf"),
        snic_monitor_utilization=(
            monitor_busy / (duration * config.snic_cores) if duration else 0.0
        ),
    )
    return outcome, arrivals, routes, latencies


def simulate_balancer(
    config: BalancerConfig,
    rate: float,
    n_packets: int,
    rng: np.random.Generator,
) -> BalancerOutcome:
    """Run the threshold policy over a Poisson arrival stream.

    Each path is a fluid FIFO (per-core sharding folded into an effective
    service time); the balancer observes the SNIC backlog with
    ``reaction_delay_s`` staleness, and every packet pays
    ``monitor_cost_s`` of SNIC CPU time whether or not it is redirected —
    that is what starves the SNIC-CPU implementation at high rates.
    """
    outcome, _, _, _ = _run_policy(config, rate, n_packets, rng)
    return outcome


def simulate_failover(
    config: BalancerConfig,
    rate: float,
    n_packets: int,
    rng: np.random.Generator,
    snic_health=None,
    deadline_s: Optional[float] = None,
) -> FailoverOutcome:
    """The threshold policy with a fault-aware SNIC path.

    ``snic_health`` follows the :class:`~repro.faults.models.SnicHealth`
    protocol; ``deadline_s`` turns availability into an SLO statement
    (served AND within the deadline) rather than plain delivery.
    """
    outcome, arrivals, routes, latencies = _run_policy(
        config, rate, n_packets, rng, snic_health=snic_health
    )
    windows: List[Tuple[float, float]] = []
    if snic_health is not None and hasattr(snic_health, "outage_windows"):
        windows = list(snic_health.outage_windows())
    p999 = float(np.percentile(latencies, 99.9)) if len(latencies) else float("inf")
    return FailoverOutcome(
        outcome=outcome,
        deadline_s=deadline_s,
        p999_latency_s=p999,
        arrivals=arrivals,
        routes=routes,
        latencies=latencies,
        outage_windows=windows,
    )


# ---------------------------------------------------------------------------
# Cross-node placement: the two-path policy generalized to a fleet
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodePathConfig:
    """One node as a balancing target: a fluid FIFO with optional outages.

    The same shape as the SNIC/host paths above, multiplied out: service
    folded across cores into an effective drain rate, a backlog bound
    beyond which packets drop, and (for correlated-fault studies) outage
    windows during which the node neither drains nor serves.
    """

    name: str
    service_s: float
    cores: int = 8
    queue_limit_s: float = 500e-6
    outages: Tuple[Tuple[float, float], ...] = ()

    @property
    def effective_service_s(self) -> float:
        return self.service_s / self.cores


@dataclass
class FleetOutcome:
    """A fleet balancer run: per-node split, latency, availability."""

    per_node_served: Tuple[Tuple[str, int], ...]
    dropped: int
    offered: int
    mean_latency_s: float
    p99_latency_s: float
    deadline_s: Optional[float]
    within_deadline: int

    @property
    def availability(self) -> float:
        """Served fraction — within the deadline when one is set."""
        if self.offered == 0:
            return 1.0
        if self.deadline_s is None:
            return (self.offered - self.dropped) / self.offered
        return self.within_deadline / self.offered


def simulate_fleet(
    nodes: List[NodePathConfig],
    rate: float,
    n_packets: int,
    rng: np.random.Generator,
    reaction_delay_s: float = 0.0,
    deadline_s: Optional[float] = None,
) -> FleetOutcome:
    """Join-the-shortest-queue across N nodes over a Poisson stream.

    This is ``_run_policy`` with the two hard-wired paths replaced by a
    vector of them: each arrival is routed to the node with the smallest
    *observed* backlog (periodic telemetry snapshots of staleness
    ``reaction_delay_s``, as a fleet balancer sees, rather than the
    per-path sliding history of the two-path policy), where the observed
    backlog of a node mid-outage includes the wait for it to come back.
    A packet whose best visible choice exceeds that node's queue bound is
    dropped.
    """
    if not nodes:
        raise ValueError("fleet needs at least one node")
    n = len(nodes)
    gaps = rng.exponential(1.0 / rate, size=n_packets)
    arrivals = np.cumsum(gaps).tolist()

    effective = [node.effective_service_s for node in nodes]
    limits = [node.queue_limit_s for node in nodes]
    windows = [list(node.outages) for node in nodes]
    # Only nodes with outage windows walk a pointer through them; the
    # others always drain and never show a head delay.
    steady = [k for k in range(n) if not windows[k]]
    failing = [k for k in range(n) if windows[k]]
    pointers = [0] * n
    backlogs = [0.0] * n
    head_delays = [0.0] * n
    last_snapshot = float("-inf")
    best = 0

    served_counts = [0] * n
    latencies: List[float] = []
    dropped = 0
    within = 0
    previous = 0.0

    for now in arrivals:
        elapsed = now - previous
        previous = now
        # ``x if x > 0.0 else 0.0`` is exactly max(0.0, x) (DESIGN.md §9).
        for k in steady:
            backlog = backlogs[k] - elapsed
            backlogs[k] = backlog if backlog > 0.0 else 0.0
        for k in failing:
            wins = windows[k]
            p = pointers[k]
            while p < len(wins) and wins[p][1] <= now:
                p += 1
            pointers[k] = p
            in_outage = p < len(wins) and wins[p][0] <= now < wins[p][1]
            if in_outage:
                head_delays[k] = wins[p][1] - now
            else:
                head_delays[k] = 0.0
                backlog = backlogs[k] - elapsed
                backlogs[k] = backlog if backlog > 0.0 else 0.0
        if now - last_snapshot >= reaction_delay_s:
            # The balancer only sees a snapshot, so its choice holds
            # until the next one.
            observed = [backlogs[k] + head_delays[k] for k in range(n)]
            last_snapshot = now
            best = min(range(n), key=lambda k: (observed[k], k))

        actual = backlogs[best] + head_delays[best]
        if actual > limits[best]:
            dropped += 1
            continue
        backlogs[best] += effective[best]
        latency = backlogs[best] + head_delays[best]
        latencies.append(latency)
        served_counts[best] += 1
        if deadline_s is not None and latency <= deadline_s:
            within += 1

    values = np.asarray(latencies) if latencies else np.asarray([np.inf])
    return FleetOutcome(
        per_node_served=tuple(
            (node.name, served_counts[k]) for k, node in enumerate(nodes)),
        dropped=dropped,
        offered=n_packets,
        mean_latency_s=float(np.mean(values)),
        p99_latency_s=float(np.percentile(values, 99)),
        deadline_s=deadline_s,
        within_deadline=within,
    )
