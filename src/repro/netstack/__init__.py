"""Networking stacks: packets, links and TCP."""
