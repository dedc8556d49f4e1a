"""Fault injection and graceful degradation.

The simulator's happy path answers "what does the SNIC buy at steady
state"; this package answers "what happens when the offload path stops
keeping up".  It provides deterministic fault schedules (one-shot and
MTBF/MTTR stochastic), correlated rack/spine fault domains,
health models interpreting outage / thermal-throttle / core-loss faults,
and timeout-retry-with-backoff recovery mechanics.  The availability
experiment lives in :mod:`repro.experiments.faults`.
"""
