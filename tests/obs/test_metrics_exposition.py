"""A real run's metrics exposition is strict-valid and self-consistent.

``fig4 --smoke --metrics-out DIR`` writes ``metrics.prom`` (OpenMetrics
text) and ``metrics.jsonl`` (one JSON document per metric family).  The
strict parser must accept the exposition, and the JSONL export must name
the same families with the same types, so a consumer reading either file
sees the same metadata.
"""

import json

import pytest

from repro.cli import main
from repro.obs.openmetrics import parse_openmetrics


@pytest.fixture(scope="module")
def exposition(tmp_path_factory):
    out = tmp_path_factory.mktemp("metrics")
    assert main(["fig4", "--smoke", "--metrics-out", str(out)]) == 0
    families = parse_openmetrics((out / "metrics.prom").read_text())
    with open(out / "metrics.jsonl") as handle:
        docs = [json.loads(line) for line in handle]
    return families, docs


def test_strict_parser_accepts_a_nonempty_exposition(exposition):
    families, _ = exposition
    assert families


def test_one_jsonl_document_per_family(exposition):
    families, docs = exposition
    assert len(docs) == len(families)
    assert sorted(doc["om_name"] for doc in docs) == sorted(families)


def test_jsonl_types_match_the_exposition(exposition):
    families, docs = exposition
    for doc in docs:
        assert doc["type"] == families[doc["om_name"]]["type"], doc
