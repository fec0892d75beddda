"""Differentiable graph compression: score every node, keep the top-k
fraction of sentence nodes, close over their linked word and document nodes,
and soft-mask the retained embeddings by their scores.

The discrete selection indices are constants of the backward pass; gradient
reaches the score projection through the soft mask, so the whole path stays
differentiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numeric as nm
from .errors import AlignmentError, ConfigError, DataError
from .hetgraph import SENT, HeteroGraph
from .numeric import ParamStore, Tensor


@dataclass
class CompressorConfig:
    k: float = 0.5
    renorm_mask: bool = False

    def __post_init__(self):
        if not 0.0 < self.k <= 1.0:
            raise ConfigError(f"compression ratio k must be in (0, 1], got {self.k}")


def add_compressor_params(store: ParamStore, d_in: int, rng: np.random.Generator) -> None:
    store.add("comp.r", (d_in,), rng)  # the module's only trainable parameter


def node_scores(q_prime: Tensor, r: Tensor) -> Tensor:
    """Softmax over all nodes of the scalar projection Q' . r."""
    if q_prime.ndim != 2 or q_prime.shape[1] != r.shape[0]:
        raise AlignmentError(f"node_scores: embeddings {q_prime.shape} vs r {r.shape}")
    raw = nm.reshape(nm.matmul(q_prime, nm.reshape(r, (-1, 1))), (-1,))
    return nm.softmax(raw)


def select_topk_sentences(t: Tensor | np.ndarray, k: float, graph: HeteroGraph) -> np.ndarray:
    """Indices of the ceil(k * |sentences|) highest-scoring sentence nodes;
    ties keep the lower node index. Returned in ascending node order."""
    if not 0.0 < k <= 1.0:
        raise ConfigError(f"compression ratio k must be in (0, 1], got {k}")
    scores = t.data if isinstance(t, Tensor) else np.asarray(t)
    sent_idx = graph.kind_indices(SENT)
    if sent_idx.size == 0:
        raise DataError("graph has no sentence nodes to select from")
    keep = math.ceil(k * sent_idx.size)
    ranked = sorted(sent_idx.tolist(), key=lambda i: (-scores[i], i))
    return np.asarray(sorted(ranked[:keep]), dtype=np.intp)


def extend_selection(selected_sentences: np.ndarray, graph: HeteroGraph) -> np.ndarray:
    """Close the sentence selection over SW-linked words and DS-linked
    documents; result in original node order."""
    sel = np.asarray(selected_sentences, dtype=np.intp)
    if sel.size == 0:
        raise DataError("extend_selection: empty sentence selection")
    if not np.isin(sel, graph.kind_indices(SENT)).all():
        raise DataError("extend_selection: selection contains non-sentence nodes")
    keep = np.zeros(graph.n_nodes, dtype=bool)
    keep[sel] = True
    for e in (graph.edges["SW"], graph.edges["DS"]):
        keep[e.b[np.isin(e.a, sel)]] = True
        keep[e.a[np.isin(e.b, sel)]] = True
    return np.flatnonzero(keep)


def compress(q_prime: Tensor, t: Tensor, selection: np.ndarray, graph: HeteroGraph,
             cfg: CompressorConfig | None = None) -> tuple[Tensor, np.ndarray]:
    """Rows of Q' restricted to the selection, each scaled by its score
    (renormalized within the selection when cfg.renorm_mask). Returns the
    masked rows and their original token positions for the decoder."""
    cfg = cfg or CompressorConfig()
    sel = np.asarray(selection, dtype=np.intp)
    if sel.size == 0:
        raise DataError("compress: empty selection")
    rows = nm.gather_rows(q_prime, sel)
    scores = nm.gather_rows(t, sel)
    if cfg.renorm_mask:
        scores = nm.div(scores, nm.sum_(scores))
    masked = nm.mul(rows, nm.reshape(scores, (-1, 1)))
    positions = graph.token_positions()[sel]
    return masked, positions


def compress_graph(q_prime: Tensor, graph: HeteroGraph, store: ParamStore,
                   cfg: CompressorConfig) -> tuple[Tensor, np.ndarray, Tensor, np.ndarray]:
    """Full pipeline: scores -> top-k sentences -> closure -> soft mask.
    Returns (Q_p, positions, scores, selection)."""
    t = node_scores(q_prime, store["comp.r"])
    selected = select_topk_sentences(t, cfg.k, graph)
    selection = extend_selection(selected, graph)
    q_p, positions = compress(q_prime, t, selection, graph, cfg)
    return q_p, positions, t, selection
