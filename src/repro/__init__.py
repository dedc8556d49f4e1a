"""snicbench: the IISWC'23 SmartNIC datacenter-tax study, in simulation.

Packages (no package re-exports anything: import each name from its
defining module, e.g. ``repro.netstack.tcp``):

* :mod:`repro.core` — discrete-event kernel, queueing fast path, metrics
* :mod:`repro.hardware` — testbed specifications (Tables 1-2)
* :mod:`repro.calibration` — measured anchors -> model coefficients
* :mod:`repro.netstack` — packets, links and the TCP state machine
* :mod:`repro.functions` — the 13 evaluated network functions, for real
* :mod:`repro.power` — component power models
* :mod:`repro.workloads` — pktgen, YCSB, traces, corpora
* :mod:`repro.experiments` — one harness per paper table/figure
* :mod:`repro.offload` — placement prediction and load balancer (§5.3)
* :mod:`repro.analysis` — TCO model and report generation
"""

__version__ = "1.0.0"
