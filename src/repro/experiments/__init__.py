"""Experiment harnesses: one module per paper table/figure.

Each module registers a declarative :class:`~repro.experiments.registry.
Experiment` spec at import time; the CLI, the report generator, the
cold-start tests, and the exporters are generic walks over that registry.
:data:`~repro.experiments.registry.TABLE` names the module of every verb,
so importing this package loads none of them.
"""
