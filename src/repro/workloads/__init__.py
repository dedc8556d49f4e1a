"""Workload generators: pktgen, YCSB, traces, corpora."""
