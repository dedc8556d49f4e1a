"""A miniature TCP: connection state machine with handshake, ordered
byte-stream delivery, cumulative ACKs and retransmission on timeout.

This is the substrate behind the Redis benchmark's transport and behind
Strategy 1's discussion (the cost of running this state machine on the
SNIC CPU is the paper's first observation).  It is a real protocol
implementation — the test suite drives lossy links and asserts in-order
exactly-once delivery — while the *cycle cost* of running it is priced by
the calibration layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, Dict, FrozenSet, Optional, Tuple

from ..core.engine import Event, Simulator, Timeout
from .link import Link
from .packet import PROTO_TCP, Packet

MSS = 1460
DEFAULT_RTO = 20e-3
MIN_RTO = 2e-3
INITIAL_CWND = 10  # segments (RFC 6928)
DEFAULT_SSTHRESH = 64 * 1024  # bytes

SYN = "SYN"
ACK = "ACK"
ECE = "ECE"  # ECN-Echo: receiver saw a CE mark, keeps echoing until CWR
CWR = "CWR"  # Congestion Window Reduced: sender acknowledges the echo

# The flag sets segments carry, built once rather than per packet.
_SYN = frozenset({SYN})
_SYN_ACK = frozenset({SYN, ACK})
_ACK = frozenset({ACK})
_ACK_CWR = frozenset({ACK, CWR})
_ECE = frozenset({ECE})


class TcpState(Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RECEIVED = "syn-received"
    ESTABLISHED = "established"


@dataclass(slots=True)
class _OutSegment:
    seq: int
    payload: bytes
    sent_at: float
    retransmits: int = 0


class TcpEndpoint:
    """One host's TCP layer: demultiplexes to connections and listeners."""

    def __init__(self, sim: Simulator, address: int, egress: Link,
                 ecn: bool = False):
        self.sim = sim
        self.address = address
        self.egress = egress
        self.ecn = ecn  # default for connections created by this endpoint
        self.connections: Dict[Tuple[int, int, int], "TcpConnection"] = {}
        self.listeners: Dict[int, "TcpListener"] = {}

    def listen(self, port: int) -> "TcpListener":
        if port in self.listeners:
            raise OSError(f"port {port} already listening")
        listener = TcpListener(self, port)
        self.listeners[port] = listener
        return listener

    def connect(self, local_port: int, remote_ip: int, remote_port: int,
                ecn: Optional[bool] = None) -> "TcpConnection":
        connection = TcpConnection(
            self, local_port, remote_ip, remote_port, initiate=True,
            ecn=self.ecn if ecn is None else ecn,
        )
        self._register(connection)
        return connection

    def _register(self, connection: "TcpConnection") -> None:
        key = (connection.local_port, connection.remote_ip, connection.remote_port)
        self.connections[key] = connection

    def deliver(self, packet: Packet) -> None:
        key = (packet.dst_port, packet.src_ip, packet.src_port)
        connection = self.connections.get(key)
        if connection is not None:
            connection._on_packet(packet)
            return
        if SYN in packet.flags and ACK not in packet.flags:
            listener = self.listeners.get(packet.dst_port)
            if listener is not None:
                listener._on_syn(packet)
                return
        # RST territory in a real stack; we silently drop.

    def send(self, packet: Packet) -> None:
        packet.created_at = self.sim.now
        self.egress.send(packet)


class TcpListener:
    def __init__(self, endpoint: TcpEndpoint, port: int):
        self.endpoint = endpoint
        self.port = port
        self._pending: Deque[TcpConnection] = deque()
        self._waiters: Deque[Event] = deque()

    def _on_syn(self, packet: Packet) -> None:
        connection = TcpConnection(
            self.endpoint, self.port, packet.src_ip, packet.src_port,
            initiate=False, ecn=self.endpoint.ecn,
        )
        self.endpoint._register(connection)
        connection._on_packet(packet)
        if self._waiters:
            self._waiters.popleft().trigger(connection)
        else:
            self._pending.append(connection)

    def accept(self) -> Event:
        event = Event(self.endpoint.sim)
        if self._pending:
            event.trigger(self._pending.popleft())
        else:
            self._waiters.append(event)
        return event


class TcpConnection:
    """One direction-pair of a TCP conversation."""

    def __init__(self, endpoint: TcpEndpoint, local_port: int,
                 remote_ip: int, remote_port: int, initiate: bool,
                 rto: float = DEFAULT_RTO, ecn: bool = False):
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.rto = rto
        self.state = TcpState.CLOSED
        self.iss = 1  # initial send sequence; the SYN consumes it
        self.snd_nxt = self.iss + 1
        self.snd_una = self.iss + 1
        self.rcv_nxt = 0
        self._unacked: Deque[_OutSegment] = deque()
        # payload bytes in ``_unacked``, kept as segments enter and leave it
        self.bytes_in_flight = 0
        self._send_buffer: Deque[bytes] = deque()  # waits for cwnd space
        self._out_of_order: Dict[int, bytes] = {}
        self._recv_buffer = bytearray()
        self._recv_waiters: Deque[Tuple[int, Event]] = deque()
        self._established_event = Event(self.sim)
        self.retransmissions = 0
        self._timer_generation = 0
        # congestion control (Tahoe-style slow start + AIMD on loss)
        self.cwnd = INITIAL_CWND * MSS
        self.ssthresh = DEFAULT_SSTHRESH
        # Jacobson/Karels RTT estimation; self.rto adapts after samples
        self._srtt: Optional[float] = None
        self._rttvar: Optional[float] = None
        # ECN (RFC 3168): data segments carry ECT; queues may set CE; the
        # receiver echoes ECE on ACKs until the sender's CWR arrives; the
        # sender reduces at most once per window of data.
        self.ecn = ecn
        self.ecn_marks_seen = 0   # CE-marked packets this side received
        self.ecn_responses = 0    # window reductions this sender performed
        self._ece_pending = False
        self._cwr_pending = False
        self._ecn_recovery_until = self.snd_nxt
        if initiate:
            self.state = TcpState.SYN_SENT
            self._send_control(_SYN)
        else:
            self.state = TcpState.LISTEN

    # -- public API --------------------------------------------------------

    def established(self) -> Event:
        return self._established_event

    def send(self, data: bytes) -> None:
        """Segment and transmit application data (window permitting;
        the rest queues in the send buffer until ACKs open the cwnd)."""
        if self.state != TcpState.ESTABLISHED:
            raise OSError(f"send in state {self.state}")
        for offset in range(0, len(data), MSS):
            self._send_buffer.append(data[offset : offset + MSS])
        self._pump()

    def _pump(self) -> None:
        """Transmit buffered segments while the congestion window allows."""
        sent = False
        while self._send_buffer and (
            self.bytes_in_flight + len(self._send_buffer[0]) <= self.cwnd
        ):
            chunk = self._send_buffer.popleft()
            segment = _OutSegment(self.snd_nxt, chunk, self.sim.now)
            self._unacked.append(segment)
            self.bytes_in_flight += len(chunk)
            self._transmit(segment)
            self.snd_nxt += len(chunk)
            sent = True
        if sent:
            self._arm_timer()

    def recv(self, nbytes: int) -> Event:
        """Event firing with exactly ``nbytes`` of in-order data."""
        event = Event(self.sim)
        if len(self._recv_buffer) >= nbytes:
            data = bytes(self._recv_buffer[:nbytes])
            del self._recv_buffer[:nbytes]
            event.trigger(data)
        else:
            self._recv_waiters.append((nbytes, event))
        return event

    # -- internals ----------------------------------------------------------

    def _packet(self, flags: FrozenSet[str], payload: bytes = b"",
                seq: Optional[int] = None) -> Packet:
        return Packet(
            proto=PROTO_TCP,
            src_ip=self.endpoint.address,
            src_port=self.local_port,
            dst_ip=self.remote_ip,
            dst_port=self.remote_port,
            payload=payload,
            seq=self.snd_nxt if seq is None else seq,
            ack=self.rcv_nxt,
            flags=flags,
        )

    def _send_control(self, flags: FrozenSet[str]) -> None:
        if self._ece_pending and ACK in flags and SYN not in flags:
            flags = flags | _ECE
        seq = self.iss if SYN in flags else None
        self.endpoint.send(self._packet(flags, seq=seq))
        if SYN in flags:
            self._arm_timer()

    def _transmit(self, segment: _OutSegment) -> None:
        flags = _ACK
        if self.ecn and self._cwr_pending:
            flags = _ACK_CWR
            self._cwr_pending = False
        packet = self._packet(flags, segment.payload, seq=segment.seq)
        if self.ecn:
            packet.ecn_capable = True
        self.endpoint.send(packet)

    def _arm_timer(self) -> None:
        # The timer carries its generation as its value: re-arming bumps
        # the generation, so a superseded timer fires as a no-op.
        self._timer_generation += 1
        Timeout(self.sim, self.rto, self._timer_generation).callbacks.append(
            self._on_timeout)

    def _on_timeout(self, timer: Event) -> None:
        if timer.value != self._timer_generation:
            return  # superseded
        if self.state == TcpState.SYN_SENT:
            self._send_control(_SYN)
            self.retransmissions += 1
        elif self.state == TcpState.SYN_RECEIVED:
            self._send_control(_SYN_ACK)
            self.retransmissions += 1
        elif self._unacked:
            self.retransmissions += 1
            # Tahoe reaction: halve ssthresh, restart from one segment
            self.ssthresh = max(2 * MSS, self.bytes_in_flight // 2)
            self.cwnd = INITIAL_CWND * MSS
            self.rto = min(self.rto * 2, 1.0)  # exponential backoff
            for segment in self._unacked:
                segment.retransmits += 1
                self._transmit(segment)
            self._arm_timer()

    def _on_packet(self, packet: Packet) -> None:
        flags = packet.flags
        # CWR first, then CE: a marked segment that itself carries CWR must
        # leave the echo armed for the *new* congestion event.
        if CWR in flags:
            self._ece_pending = False
        if packet.ce:
            self._ece_pending = True
            self.ecn_marks_seen += 1
        state = self.state
        if SYN in flags:
            if state == TcpState.LISTEN and ACK not in flags:
                self.rcv_nxt = packet.seq + 1
                self.state = TcpState.SYN_RECEIVED
                self._send_control(_SYN_ACK)
                return
            if state == TcpState.SYN_RECEIVED and ACK not in flags:
                # Our SYN-ACK was lost; the peer retried its SYN.
                self._send_control(_SYN_ACK)
                return
            if state == TcpState.ESTABLISHED and ACK in flags:
                # Duplicate SYN-ACK: our handshake ACK was lost; re-ACK.
                self._send_control(_ACK)
                return
            if state == TcpState.SYN_SENT and ACK in flags:
                self.rcv_nxt = packet.seq + 1
                self.state = TcpState.ESTABLISHED
                self._send_control(_ACK)
                if not self._established_event.triggered:
                    self._established_event.trigger(self)
                return
        elif state == TcpState.SYN_RECEIVED and ACK in flags:
            self.state = TcpState.ESTABLISHED
            if not self._established_event.triggered:
                self._established_event.trigger(self)
            # fall through: the ACK may carry data

        if ACK in flags:
            if self.ecn and ECE in flags:
                self._on_ecn_echo()
            self._handle_ack(packet.ack)
        if packet.payload:
            self._handle_data(packet)

    def _on_ecn_echo(self) -> None:
        """React to an ECN echo: multiplicative decrease, once per window.

        Repeated ECE flags for the same congestion event (the receiver
        echoes on every ACK until CWR arrives) must not stack reductions,
        so the cut applies only when the ACKed data was sent after the
        previous reduction (RFC 3168 §6.1.2 semantics).
        """
        if self.snd_una < self._ecn_recovery_until:
            return
        self.ssthresh = max(2 * MSS, self.cwnd // 2)
        self.cwnd = self.ssthresh
        self._ecn_recovery_until = self.snd_nxt
        self._cwr_pending = True
        self.ecn_responses += 1

    def _handle_ack(self, ack: int) -> None:
        if ack <= self.snd_una:
            return
        self.snd_una = ack
        acked_bytes = 0
        while self._unacked and self._unacked[0].seq + len(self._unacked[0].payload) <= ack:
            segment = self._unacked.popleft()
            acked_bytes += len(segment.payload)
            self.bytes_in_flight -= len(segment.payload)
            if segment.retransmits == 0:  # Karn's rule: fresh samples only
                self._sample_rtt(self.sim.now - segment.sent_at)
        if acked_bytes:
            self._grow_cwnd(acked_bytes)
        if self._unacked:
            self._arm_timer()
        else:
            self._timer_generation += 1  # cancel
        self._pump()

    def _sample_rtt(self, sample: float) -> None:
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self.rto = max(MIN_RTO, self._srtt + 4 * self._rttvar)

    def _grow_cwnd(self, acked_bytes: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += acked_bytes  # slow start: exponential
        else:
            self.cwnd += max(1, MSS * MSS // self.cwnd)  # congestion avoidance

    def _handle_data(self, packet: Packet) -> None:
        if packet.seq == self.rcv_nxt:
            self._recv_buffer.extend(packet.payload)
            self.rcv_nxt += len(packet.payload)
            while self.rcv_nxt in self._out_of_order:
                chunk = self._out_of_order.pop(self.rcv_nxt)
                self._recv_buffer.extend(chunk)
                self.rcv_nxt += len(chunk)
            self._wake_receivers()
        elif packet.seq > self.rcv_nxt:
            self._out_of_order[packet.seq] = packet.payload
        # duplicate (seq < rcv_nxt): ignore payload, re-ACK below
        self._send_control(_ACK)

    def _wake_receivers(self) -> None:
        while self._recv_waiters:
            nbytes, event = self._recv_waiters[0]
            if len(self._recv_buffer) < nbytes:
                break
            self._recv_waiters.popleft()
            data = bytes(self._recv_buffer[:nbytes])
            del self._recv_buffer[:nbytes]
            event.trigger(data)
