"""Multi-channel graph attention: one attention channel per edge type, heads
concatenated within a channel, channels concatenated per node, then a shared
linear transform back to the input width so layers stack.

Attention coefficients are modulated by the stored edge weight: head m has
d_ij = leaky_relu(e_ij * a_m^T [W_m h_i || W_m h_j]), slope 0.2; softmax runs
over the typed neighborhood plus a unit-weight self-loop, so nodes without
edges of a type still produce output. A channel's heads are one W [d_in,
H*d_head] and one a [H, 2*d_head], read by one ``nm.linear`` and one
``nm.edge_attention`` call over the channel's CSR edge list; ``mgat_encode``
builds each edge list once, in canonical node numbering, for all layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numeric as nm
from .errors import AlignmentError, ConfigError
from .hetgraph import EDGE_TYPES, HeteroGraph
from .numeric import ParamStore, Tensor

UNION_CHANNEL = "ALL"  # single-channel ablation: type-erased edge union


@dataclass
class MgatConfig:
    n_layers: int = 2
    n_heads: int = 2
    d_in: int = 128
    d_head: int = 32
    residual: bool = True
    single_channel: bool = False  # vanilla GAT over the union graph

    def __post_init__(self):
        if self.n_layers < 0 or self.n_heads < 1 or self.d_head < 1:
            raise ConfigError(f"invalid MGAT dims: layers={self.n_layers}, "
                              f"heads={self.n_heads}, d_head={self.d_head}")

    @property
    def channels(self) -> tuple[str, ...]:
        return (UNION_CHANNEL,) if self.single_channel else EDGE_TYPES


def add_mgat_params(store: ParamStore, cfg: MgatConfig, rng: np.random.Generator) -> None:
    """Per layer, each channel's W and a, then U [width, d_in]. Each head is
    Glorot-drawn over its own (d_head, d_in) fan, head by head, W then a, and
    U over (d_in, width); the draws are stored as the kernels read them."""
    dh, d_in = cfg.d_head, cfg.d_in
    for layer in range(cfg.n_layers):
        for ch in cfg.channels:
            W = store.add(f"mgat{layer}.{ch}.W", (d_in, cfg.n_heads * dh), rng, "zeros")
            a = store.add(f"mgat{layer}.{ch}.a", (cfg.n_heads, 2 * dh), rng, "zeros")
            for m in range(cfg.n_heads):
                W.data[:, m * dh:(m + 1) * dh] = nm.xavier_uniform((dh, d_in), rng).T
                a.data[m] = nm.xavier_uniform((2 * dh,), rng)
        U = store.add(f"mgat{layer}.U", (len(cfg.channels) * cfg.n_heads * dh, d_in), rng, "zeros")
        U.data[...] = nm.xavier_uniform(U.shape[::-1], rng).T


@dataclass(frozen=True)
class EdgeIndex:
    """One channel's directed edges in CSR form, sorted by (src, dst): node
    i's neighbours are dst[indptr[i]:indptr[i+1]]; edge rev[k] is edge k reversed."""
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    indptr: np.ndarray
    rev: np.ndarray


def channel_edges(graph: HeteroGraph, channel: str,
                  rank: np.ndarray | None = None) -> EdgeIndex:
    """The edges one channel attends over, in CSR form sorted by (src, dst):
    both directions of the channel's edge type (every type for the union
    channel, keeping the max weight of a pair that appears more than once)
    plus a unit self-loop on every node. With ``rank``, node i is numbered
    ``rank[i]``."""
    es = [graph.edges[t] for t in (EDGE_TYPES if channel == UNION_CHANNEL else (channel,))]
    n = graph.n_nodes
    src = np.concatenate([np.arange(n)] + [x for e in es for x in (e.a, e.b)])
    dst = np.concatenate([np.arange(n)] + [x for e in es for x in (e.b, e.a)])
    w = np.concatenate([np.ones(n)] + [x for e in es for x in (e.w, e.w)])
    if not ((src >= 0) & (src < n)).all():
        raise AlignmentError(f"channel {channel}: an edge endpoint is outside [0, {n})")
    if rank is not None:
        src, dst = rank[src], rank[dst]
    order = np.lexsort((-w, dst, src))  # a pair's largest weight comes first
    src, dst, w = src[order], dst[order], w[order]
    first = np.ones(len(src), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    src, dst, w = src[first], dst[first], w[first]
    rev = np.searchsorted(src * n + dst, dst * n + src)
    return EdgeIndex(src, dst, w, np.searchsorted(src, np.arange(n + 1)), rev)


def channel_attention(node_embs: Tensor, ix: EdgeIndex, W: Tensor, a: Tensor) -> Tensor:
    """Per-node embeddings for one channel: heads concatenated, each head
    elu(sum_j alpha_ij W_m h_j) with alpha the softmax, within node i's
    neighbourhood ``ix`` (self-loop weight 1 included), of the
    edge-weight-modulated coefficients; one ``linear`` and one kernel call."""
    n = len(ix.indptr) - 1
    if node_embs.shape[0] != n:
        raise AlignmentError(f"channel_attention: {node_embs.shape[0]} embeddings for "
                             f"{n} nodes")
    return nm.elu(nm.edge_attention(nm.linear(node_embs, W), a, ix))


def mgat_layer(node_embs: Tensor, channels: dict[str, EdgeIndex], store: ParamStore,
               layer: int) -> Tensor:
    """One layer: concat the per-channel embeddings, in ``channels`` order,
    and apply the shared U."""
    blocks = [channel_attention(node_embs, ix, store[f"mgat{layer}.{ch}.W"],
                                store[f"mgat{layer}.{ch}.a"]) for ch, ix in channels.items()]
    stacked = blocks[0] if len(blocks) == 1 else nm.concat(blocks, axis=1)
    return nm.linear(stacked, store[f"mgat{layer}.U"])


def mgat_encode(node_embs: Tensor, graph: HeteroGraph, store: ParamStore,
                cfg: MgatConfig) -> Tensor:
    """Stacked layers (with optional residual) over the graph; row order of
    the output matches the input node order.

    Nodes are processed in their canonical order, so relabeling the node
    list permutes the output rows bit-exactly.
    """
    if node_embs.shape[0] != graph.n_nodes:
        raise AlignmentError(f"mgat_encode: {node_embs.shape[0]} embedding rows for "
                             f"{graph.n_nodes} nodes")
    order = graph.canonical_order()
    rank = None if order is None else np.argsort(order)  # node i's canonical number
    channels = {ch: channel_edges(graph, ch, rank) for ch in cfg.channels}
    h = node_embs if order is None else nm.gather_rows(node_embs, order)
    for layer in range(cfg.n_layers):
        out = mgat_layer(h, channels, store, layer)
        h = nm.add(h, out) if cfg.residual else out
    return h if order is None else nm.gather_rows(h, rank)
