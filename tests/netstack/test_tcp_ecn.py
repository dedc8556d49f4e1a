"""ECN regression tests: marked flows must actually back off.

The mark-on-enqueue seam (``Link.on_enqueue``) lets these tests install
trivial markers directly — no fabric, no monkeypatching of link
internals — and assert the RFC 3168 machinery end to end: CE on a data
segment, ECE echoed on ACKs, a multiplicative window cut at the sender
(at most once per window), and CWR clearing the echo.
"""


from repro.core.engine import Simulator
from repro.netstack.packet import ip
from repro.netstack.tcp import TcpEndpoint
from repro.netstack.tcp import MSS
from tests.netstack.channel import DuplexChannel


def make_ecn_pair(sim, gbps=100.0, ecn=True):
    channel = DuplexChannel(sim, gbps=gbps)
    a = TcpEndpoint(sim, ip(10, 0, 0, 1), channel.forward, ecn=ecn)
    b = TcpEndpoint(sim, ip(10, 0, 0, 2), channel.backward, ecn=ecn)
    channel.forward.attach(b.deliver)
    channel.backward.attach(a.deliver)
    return a, b, channel


def start_transfer(sim, a, b, nbytes):
    listener = b.listen(80)
    connection = a.connect(40000, ip(10, 0, 0, 2), 80)
    data = (bytes(range(256)) * (nbytes // 256 + 1))[:nbytes]
    received = []

    def server():
        conn = yield listener.accept()
        yield conn.established()
        payload = yield conn.recv(len(data))
        received.append(payload)

    def client():
        yield connection.established()
        connection.send(data)

    sim.process(server())
    sim.process(client())
    return connection, data, received


def mark_every(n):
    """An enqueue hook that CE-marks every n-th ECN-capable packet."""
    state = {"count": 0}

    def hook(packet, depth_bytes):
        if packet.ecn_capable:
            state["count"] += 1
            if state["count"] % n == 0:
                packet.ce = True
        return True

    return hook


class TestEcnBackoff:
    def test_marked_flow_backs_off(self):
        """CE marks must shrink the window below the lossless baseline."""
        sim = Simulator()
        a, b, channel = make_ecn_pair(sim)
        channel.forward.on_enqueue = mark_every(20)
        connection, data, received = start_transfer(sim, a, b, 400 * MSS)
        sim.run(until=60.0)
        assert received and received[0] == data  # delivery still exact
        assert connection.ecn_responses > 0

        # Baseline: identical transfer, no marking — window grows freely.
        sim2 = Simulator()
        a2, b2, _ = make_ecn_pair(sim2)
        baseline, data2, received2 = start_transfer(sim2, a2, b2, 400 * MSS)
        sim2.run(until=60.0)
        assert received2 and received2[0] == data2
        assert baseline.ecn_responses == 0
        assert connection.cwnd < baseline.cwnd

    def test_no_marks_no_response(self):
        sim = Simulator()
        a, b, _ = make_ecn_pair(sim)
        connection, data, received = start_transfer(sim, a, b, 100 * MSS)
        sim.run(until=60.0)
        assert received and received[0] == data
        assert connection.ecn_responses == 0
        assert connection.retransmissions == 0

    def test_backoff_at_most_once_per_window(self):
        """The receiver echoes ECE on every ACK until CWR arrives; the
        sender must collapse those repeats into one reduction per window
        of data, not one per ACK."""
        sim = Simulator()
        a, b, channel = make_ecn_pair(sim)
        channel.forward.on_enqueue = mark_every(2)  # aggressive marking
        connection, data, received = start_transfer(sim, a, b, 200 * MSS)
        sim.run(until=60.0)
        assert received and received[0] == data
        # 100+ segments marked at every-2nd cadence, but reductions are
        # bounded by the number of windows, far below the mark count.
        receiver = next(iter(b.connections.values()))
        assert receiver.ecn_marks_seen > connection.ecn_responses
        assert 0 < connection.ecn_responses < receiver.ecn_marks_seen // 2
        # halving floor: the window never collapses below two segments
        assert connection.cwnd >= 2 * MSS

    def test_mark_without_ecn_flows_is_inert(self):
        """Non-ECN traffic never carries ECT, so the marker never fires
        and the transfer behaves exactly like the unmarked baseline."""
        sim = Simulator()
        a, b, channel = make_ecn_pair(sim, ecn=False)
        channel.forward.on_enqueue = mark_every(1)
        connection, data, received = start_transfer(sim, a, b, 100 * MSS)
        sim.run(until=60.0)
        assert received and received[0] == data
        assert connection.ecn_responses == 0
        receiver = next(iter(b.connections.values()))
        assert receiver.ecn_marks_seen == 0

    def test_enqueue_hook_can_tail_drop(self):
        """Returning False from the seam drops the packet; TCP recovers
        by retransmission and the drop is accounted as queue loss."""
        sim = Simulator()
        a, b, channel = make_ecn_pair(sim)
        state = {"count": 0}

        def drop_every_30th(packet, depth_bytes):
            if packet.ecn_capable:
                state["count"] += 1
                if state["count"] % 30 == 0:
                    return False
            return True

        channel.forward.on_enqueue = drop_every_30th
        connection, data, received = start_transfer(sim, a, b, 100 * MSS)
        sim.run(until=120.0)
        assert received and received[0] == data
        assert channel.forward.queue_lost > 0
        assert connection.retransmissions > 0

    def test_queue_depth_reflects_backlog(self):
        """The depth the hook sees grows while a burst serializes."""
        sim = Simulator()
        a, b, channel = make_ecn_pair(sim, gbps=1.0)  # slow link: backlog
        depths = []

        def record(packet, depth_bytes):
            depths.append(depth_bytes)
            return True

        channel.forward.on_enqueue = record
        connection, data, received = start_transfer(sim, a, b, 40 * MSS)
        sim.run(until=60.0)
        assert received and received[0] == data
        assert max(depths) > MSS  # a real backlog was observed
        assert min(depths) == 0.0
