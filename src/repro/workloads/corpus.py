"""Synthetic corpora for the Compression and BM25 benchmarks (§3.4).

The paper compresses `Application3` and `Text1` from compressionratings'
corpus and ranks randomly-generated documents.  We synthesize both:

* ``text_file`` — natural-language-like text (word sampling over a
  Zipf-distributed vocabulary) that compresses well, like Text1;
* ``application_file`` — a mix of machine-code-like high-entropy regions
  and structured tables with repetition, like Application3;
* ``document_corpus`` — BM25 databases of N documents with ~10 words
  each ("the content of these documents is randomly generated").
"""

from __future__ import annotations

from typing import List

import numpy as np

_WORD_STEMS = (
    "data center network packet server smart offload energy power tail "
    "latency throughput queue core cache memory bandwidth switch flow "
    "table match engine rule batch buffer driver kernel user stack socket "
    "request response store index log record value key query document"
).split()


def _vocabulary(rng: np.random.Generator, size: int = 800) -> List[str]:
    words = list(_WORD_STEMS)
    while len(words) < size:
        stem = _WORD_STEMS[int(rng.integers(0, len(_WORD_STEMS)))]
        suffix = "".join(
            chr(int(c)) for c in rng.integers(ord("a"), ord("z") + 1, size=3)
        )
        words.append(stem + suffix)
    return words


def text_file(size_bytes: int, rng: np.random.Generator) -> bytes:
    """Text1-like input: zipf-weighted words, sentences, high redundancy."""
    vocabulary = _vocabulary(rng)
    ranks = np.arange(1, len(vocabulary) + 1, dtype=float)
    weights = 1.0 / ranks
    weights /= weights.sum()
    pieces: List[str] = []
    total = 0
    sentence_len = 0
    while total < size_bytes:
        word = vocabulary[int(rng.choice(len(vocabulary), p=weights))]
        sentence_len += 1
        if sentence_len > int(rng.integers(6, 14)):
            word += "."
            sentence_len = 0
        pieces.append(word)
        total += len(word) + 1
    text = (" ".join(pieces)).encode()
    if len(text) < size_bytes:  # the trailing word may land short
        text += b" " + text
    return text[:size_bytes]


def application_file(size_bytes: int, rng: np.random.Generator) -> bytes:
    """Application3-like input: code-ish entropy + table-like repetition."""
    out = bytearray()
    while len(out) < size_bytes:
        kind = rng.random()
        if kind < 0.62:
            # machine-code-like: high entropy, some repeated opcodes
            block = bytes(rng.integers(0, 256, size=512, dtype=np.uint8))
            out += block
        elif kind < 0.9:
            # structured table: fixed-width repeating records
            record = bytes(rng.integers(0x20, 0x7F, size=24, dtype=np.uint8))
            out += record * 10
        else:
            # padding / BSS-like runs
            out += bytes([int(rng.integers(0, 4))]) * 160
    return bytes(out[:size_bytes])


COMPRESSION_FILES = {"app": application_file, "txt": text_file}


def make_compression_input(name: str, size_bytes: int, seed: int = 7) -> bytes:
    """The named compression benchmark input ('app' or 'txt')."""
    try:
        builder = COMPRESSION_FILES[name]
    except KeyError:
        raise KeyError(f"unknown compression input {name!r}") from None
    return builder(size_bytes, np.random.default_rng(seed))


def document_corpus(
    documents: int, rng: np.random.Generator, mean_words: int = 10
) -> List[str]:
    """BM25 database documents (paper: 100 and 1 K docs, ~10 words each)."""
    vocabulary = _vocabulary(rng, size=400)
    ranks = np.arange(1, len(vocabulary) + 1, dtype=float)
    weights = 1.0 / ranks
    weights /= weights.sum()
    corpus: List[str] = []
    for _ in range(documents):
        n_words = max(3, int(rng.normal(mean_words, 2)))
        indices = rng.choice(len(vocabulary), size=n_words, p=weights)
        corpus.append(" ".join(vocabulary[int(i)] for i in indices))
    return corpus


def query_stream(
    count: int, rng: np.random.Generator, terms_per_query: int = 3
) -> List[str]:
    """Search queries drawn from the same vocabulary."""
    vocabulary = _vocabulary(rng, size=400)
    ranks = np.arange(1, len(vocabulary) + 1, dtype=float)
    weights = 1.0 / ranks
    weights /= weights.sum()
    queries = []
    for _ in range(count):
        indices = rng.choice(len(vocabulary), size=terms_per_query, p=weights)
        queries.append(" ".join(vocabulary[int(i)] for i in indices))
    return queries
