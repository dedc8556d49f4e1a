"""Okapi BM25 query work over an inverted index (the BM25 benchmark, §3.4).

Documents are tokenized into an inverted index with per-term postings; a
BM25 query scores every document that contains a query term.  Work
units: one ``bm25_query_term`` per query term (seek + idf) and one
``bm25_posting`` per posting traversed — so the 100- vs 1 K-document
configurations of the paper differ in postings walked per query, not in
code path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..core.work import WorkUnits

_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> List[str]:
    return _TOKEN.findall(text.lower())


@dataclass
class Posting:
    doc_id: int
    term_frequency: int


@dataclass
class InvertedIndex:
    postings: Dict[str, List[Posting]] = field(default_factory=dict)
    doc_lengths: Dict[int, int] = field(default_factory=dict)

    @property
    def doc_count(self) -> int:
        return len(self.doc_lengths)

    def add_document(self, doc_id: int, text: str) -> None:
        if doc_id in self.doc_lengths:
            raise ValueError(f"duplicate document id {doc_id}")
        terms = tokenize(text)
        self.doc_lengths[doc_id] = len(terms)
        frequencies: Dict[str, int] = {}
        for term in terms:
            frequencies[term] = frequencies.get(term, 0) + 1
        for term, tf in frequencies.items():
            self.postings.setdefault(term, []).append(Posting(doc_id, tf))


class Bm25Ranker:
    """Prices BM25 queries against an index."""

    def __init__(self, index: InvertedIndex):
        if index.doc_count == 0:
            raise ValueError("index is empty")
        self.index = index

    def work_units(self, query: str) -> WorkUnits:
        """The work of scoring ``query``, without ranking.

        Work units are one ``bm25_query_term`` per query term and one
        ``bm25_posting`` per posting traversed — both fully determined
        by postings-list lengths, so pricing a 1 K-document corpus does
        not need the scores ranked per sample.
        """
        work = WorkUnits()
        for term in tokenize(query):
            work.add("bm25_query_term", 1.0)
            postings = self.index.postings.get(term)
            if postings:
                work.add("bm25_posting", float(len(postings)))
        return work


def build_index(documents: Sequence[str]) -> InvertedIndex:
    index = InvertedIndex()
    for doc_id, text in enumerate(documents):
        index.add_document(doc_id, text)
    return index
