"""Packet-accurate testbed: Fig. 3's system on the event kernel."""
