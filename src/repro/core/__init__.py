"""Simulation kernel, queueing resources, and measurement methodology.

Import each name from its defining module (``repro.core.engine``,
``repro.core.executor``, ...): this package re-exports nothing, so
importing one kernel does not load the others.
"""
