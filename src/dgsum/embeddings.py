"""Static word vectors and sentence embeddings behind a provider interface.

The word-vector file format is whitespace-separated text, one token per
line: ``token v1 v2 ... vd``. Sentence embeddings default to the mean of the
sentence's word vectors; a precomputed file (same line format, keyed by
``clusterId:docIdx:sentIdx``, with ``clusterId:summary:docIdx:sentIdx`` for
ground-truth-summary graphs) can replace them.
"""

from __future__ import annotations

import logging

import numpy as np

from .corpus import Sentence, read_lines
from .errors import DataError

log = logging.getLogger("dgsum.embeddings")


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u||v|); 0 when either norm is below 1e-12."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DataError(f"cosine: incompatible shapes {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return float(u @ v / (nu * nv))


def pairwise_cosine(vectors, threshold: float | None = None):
    """``cosine`` of every row pair i < j of an (m, d) array, in row-major
    order, as (i, j, sim) arrays; pairs with sim < threshold are dropped."""
    x = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1)
    zero = norms < 1e-12
    unit = x / np.where(zero, 1.0, norms)[:, None]
    sim = unit @ unit.T
    sim[zero] = 0.0
    sim[:, zero] = 0.0
    keep = ~np.tri(len(x), dtype=bool)  # i < j
    if threshold is not None:
        keep &= ~(sim < threshold)
    i, j = np.nonzero(keep)  # row-major
    return i, j, sim[i, j]


def _parse_vector_file(path, dimension: int, what: str) -> dict[str, np.ndarray]:
    tokens, vecs, n_lines = [], [], 0
    for n_lines, line in read_lines(path, what):
        parts = line.split()
        if len(parts) != dimension + 1:
            continue
        try:
            vecs.append(np.asarray([float(x) for x in parts[1:]], dtype=np.float64))
        except ValueError:
            continue
        tokens.append(parts[0])
    finite = np.isfinite(np.array(vecs).reshape(-1, dimension)).all(axis=1)  # nan, inf
    table = {token: vec for token, vec, ok in zip(tokens, vecs, finite.tolist()) if ok}
    skipped = n_lines - int(finite.sum())  # every line not kept, blank ones too
    if skipped:
        log.warning("%s: skipped %d malformed lines", path, skipped)
    if not table:
        raise DataError(f"{path}: no valid {dimension}-dimensional vectors")
    return table


class EmbeddingTable:
    """Immutable token -> vector map; unknown tokens get the mean vector."""

    def __init__(self, vectors: dict[str, np.ndarray], dimension: int):
        if not vectors:
            raise DataError("embedding table is empty")
        self.dimension = dimension
        self.vectors = vectors
        self.unk_vector = np.mean(np.stack(list(vectors.values())), axis=0)

    @classmethod
    def load(cls, path, dimension: int) -> "EmbeddingTable":
        return cls(_parse_vector_file(path, dimension, "embeddings"), dimension)

    @classmethod
    def random(cls, tokens, dimension: int, seed: int = 0) -> "EmbeddingTable":
        """Deterministic random vectors, handy for tests and demos."""
        rng = np.random.default_rng(seed)
        vecs = {t: rng.normal(size=dimension) for t in sorted(set(tokens))}
        return cls(vecs, dimension)

    def get(self, token: str) -> np.ndarray:
        vec = self.vectors.get(token)
        if vec is None:
            vec = self.vectors.get(token.lower())
        return self.unk_vector if vec is None else vec


class MeanWordEmbedder:
    """Default sentence embedder: mean of the sentence's word vectors."""

    def __init__(self, table: EmbeddingTable):
        self.table = table
        self.dimension = table.dimension

    def embed(self, sentence: Sentence, key: tuple | None = None) -> np.ndarray:
        if not sentence.tokens:
            raise DataError("cannot embed an empty sentence")
        return np.mean([self.table.get(t) for t in sentence.tokens], axis=0)


class PrecomputedEmbedder:
    """Sentence vectors read from a file keyed by cluster/doc/sentence."""

    def __init__(self, path, dimension: int):
        self._vectors = _parse_vector_file(path, dimension, "sentence embeddings")
        self.dimension = dimension

    def embed(self, sentence: Sentence, key: tuple | None = None) -> np.ndarray:
        if key is None:
            raise DataError("precomputed sentence embeddings need a (cluster, doc, sent) key")
        name = ":".join(str(k) for k in key)
        if name not in self._vectors:
            raise DataError(f"no precomputed sentence embedding for key {name!r}")
        return self._vectors[name]

