#!/usr/bin/env python3
"""Inline intrusion detection, end to end on the event kernel.

Unlike the measurement experiments (which use the calibrated fast path),
this example runs the *real substrates together*: a UDP client floods a
server over the simulated 100 Gbps link; the server-side IDS — the real
multi-pattern DFA engine compiled from the file_executable rule set —
inspects every datagram; a BMC power sensor samples the server the whole
time. A few packets carry planted shellcode fragments.

Usage::

    python examples/inline_ids.py
"""

import numpy as np

from repro.core.engine import Simulator
from repro.functions.regex.rulesets import load_ruleset
from repro.functions.snort import IntrusionDetector, PacketMeta
from repro.netstack import DuplexChannel, UdpEndpoint, ip
from repro.power import BmcSensor, ComponentLoad, ServerPowerModel
from repro.workloads import gbps_stream, payload_stream

N_PACKETS = 400
SEED_PROBABILITY = 0.02


def main() -> None:
    sim = Simulator()
    rng = np.random.default_rng(42)

    # -- network: client <-> server over 100 GbE ---------------------------
    channel = DuplexChannel(sim)
    client = UdpEndpoint(sim, ip(10, 0, 0, 1), channel.forward)
    server = UdpEndpoint(sim, ip(10, 0, 0, 2), channel.backward)
    channel.forward.attach(server.deliver)
    channel.backward.attach(client.deliver)

    # -- the IDS ------------------------------------------------------------
    detector = IntrusionDetector.from_named_ruleset("file_executable")
    fragments = load_ruleset("file_executable").seed_fragments
    server_socket = server.bind(53)
    alerts_log = []

    def ids_process():
        for _ in range(N_PACKETS):
            packet = yield server_socket.recv()
            alerts, _ = detector.inspect(
                PacketMeta("udp", packet.dst_port, packet.payload)
            )
            for alert in alerts:
                alerts_log.append((sim.now, packet.packet_id, alert.pattern_id))

    # -- the traffic ----------------------------------------------------------
    schedule = gbps_stream(0.003, 1024, N_PACKETS, rng)  # ~1 s of traffic
    payloads = list(
        payload_stream(schedule, rng, seed_fragments=fragments,
                       seed_probability=SEED_PROBABILITY)
    )

    def client_process():
        client_socket = client.bind(9000)
        start = sim.now
        for index, payload in enumerate(payloads):
            yield sim.timeout(max(0.0, schedule.arrivals[index] - (sim.now - start)))
            packet_payload = payload
            client_socket.sendto(packet_payload, ip(10, 0, 0, 2), 53)

    # -- power observation ---------------------------------------------------
    model = ServerPowerModel()
    load = ComponentLoad(host_busy_cores=1.2)  # one-ish core of IDS work
    trace = BmcSensor(rng=rng).attach(sim, lambda t: model.power(load))

    sim.process(ids_process())
    sim.process(client_process())
    sim.run(until=schedule.duration + 0.01)

    # -- report ---------------------------------------------------------------
    stats = detector.stats
    print(f"packets inspected : {stats.scanned}")
    print(f"alerts raised     : {stats.alerts}")
    seeded = sum(1 for p in payloads if any(f in p for f in fragments))
    print(f"planted payloads  : {seeded}")
    print(f"average power     : {trace.average():.1f} W "
          f"({len(trace)} BMC samples over {schedule.duration:.1f} s)")
    print("\nfirst alerts:")
    for when, packet_id, pattern_id in alerts_log[:5]:
        print(f"  t={when*1e3:8.3f} ms  packet #{packet_id}  "
              f"pattern {pattern_id} "
              f"({load_ruleset('file_executable').patterns[pattern_id][:32]}...)")
    detected_packets = {pid for _, pid, _ in alerts_log}
    print(f"\ndetection: {len(detected_packets)} distinct packets flagged "
          f"out of {seeded} planted — "
          + ("all threats caught." if len(detected_packets) >= seeded
             else "tune the rule set!"))


if __name__ == "__main__":
    main()
