"""Integration test: the substrates composed end-to-end on the kernel.

A Redis-shaped KVS served over the TCP state machine: the key-value
store, the TCP endpoints and the link model working together as a system.
"""

from repro.core.engine import Simulator
from repro.functions.kvstore import KeyValueStore, encode_command
from repro.netstack.packet import ip
from repro.netstack.tcp import TcpEndpoint
from tests.netstack.channel import DuplexChannel


class TestRedisOverTcp:
    def test_ycsb_style_session(self):
        """SET + GET round trips over the real TCP state machine."""
        sim = Simulator()
        channel = DuplexChannel(sim)
        client = TcpEndpoint(sim, ip(10, 0, 0, 1), channel.forward)
        server = TcpEndpoint(sim, ip(10, 0, 0, 2), channel.backward)
        channel.forward.attach(server.deliver)
        channel.backward.attach(client.deliver)

        store = KeyValueStore()
        listener = server.listen(6379)
        responses = []

        def server_proc():
            connection = yield listener.accept()
            yield connection.established()
            for _ in range(3):
                header = yield connection.recv(4)
                length = int(header)
                command = yield connection.recv(length)
                response, _ = store.execute(command)
                connection.send(response)

        def client_proc():
            connection = client.connect(40000, ip(10, 0, 0, 2), 6379)
            yield connection.established()
            for command in (
                encode_command(b"SET", b"user1", b"alice"),
                encode_command(b"GET", b"user1"),
                encode_command(b"GET", b"ghost"),
            ):
                connection.send(b"%04d" % len(command) + command)
                # replies are small; read what each command produces
            responses.append((yield connection.recv(5)))   # +OK\r\n
            responses.append((yield connection.recv(11)))  # $5\r\nalice\r\n
            responses.append((yield connection.recv(5)))   # $-1\r\n

        sim.process(server_proc())
        sim.process(client_proc())
        sim.run(until=5.0)
        assert responses == [b"+OK\r\n", b"$5\r\nalice\r\n", b"$-1\r\n"]
        assert store.stats.sets == 1
        assert store.stats.hits == 1
        assert store.stats.misses == 1
