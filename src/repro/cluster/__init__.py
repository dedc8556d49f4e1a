"""Cluster layer: racks of server+SNIC nodes behind a leaf-spine fabric.

The seed repo models one server and one optional SNIC; this package
composes N of them (DESIGN.md §15).  :mod:`topology` describes the
shape, :mod:`fabric` realizes switch ports with bounded queues and
RED/ECN marking on the event kernel, :mod:`node` wraps the single-node
testbed complexes behind one ``receive()``, :mod:`traffic` expands
incast/uniform/skewed mixes, and :mod:`scenario` runs a mix over a
topology into a picklable result.
"""
