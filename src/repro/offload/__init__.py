"""Offload strategies (§5.3): placement advisor and load balancing."""
