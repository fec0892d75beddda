"""Multi-task training: teacher-forced smoothed cross-entropy on the summary
plus graph-similarity loss between the compressed source graph and the
ground-truth summary graph, weighted by beta. One cluster per step (graphs
are ragged); gradient accumulation provides larger effective batches.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import numeric as nm
from . import rouge
from .compressor import CompressorConfig, add_compressor_params, compress_graph
from .corpus import (RESERVED, DocumentCluster, Vocab, serialize_encoder_input,
                     summary_as_cluster)
from .embeddings import EmbeddingTable, MeanWordEmbedder
from .errors import ConfigError, DataError, NumericError
from .hetgraph import GraphConfig, HeteroGraph, build_hetero_graph
from .mgat import MgatConfig, add_mgat_params, mgat_encode
from .numeric import Adam, ParamStore, Tensor
from .text_model import (TextModelConfig, add_text_model_params, decode_beam,
                         decode_teacher_forced, encode_text, unit_embeddings)

log = logging.getLogger("dgsum.training")


@dataclass
class ModelConfig:
    text: TextModelConfig
    mgat: MgatConfig
    comp: CompressorConfig = field(default_factory=CompressorConfig)
    no_compressor: bool = False
    precision: str = "double"  # the parameters' dtype, which every tensor follows

    def __post_init__(self):
        if self.precision not in ("single", "double"):
            raise ConfigError(f"precision must be single or double, got {self.precision!r}")

    def build_params(self, vocab_size: int, seed: int) -> ParamStore:
        rng = np.random.default_rng(seed)
        store = ParamStore(np.float32 if self.precision == "single" else np.float64)
        add_text_model_params(store, self.text, vocab_size, rng)
        add_mgat_params(store, self.mgat, rng)
        if not self.no_compressor:
            add_compressor_params(store, self.text.d_model, rng)
        return store


@dataclass
class TrainConfig:
    beta: float = 0.5
    label_smoothing: float = 0.1
    lr: float = 3e-4
    epochs: int = 1
    patience: int = 5
    seed: int = 0
    accum: int = 1
    eval_every: int | None = None  # steps between dev evals; None = each epoch end

    def __post_init__(self):
        for name, ok, rule in (
                ("beta", 0.0 <= self.beta <= 1.0, "in [0, 1]"),
                ("label_smoothing", 0.0 <= self.label_smoothing < 1.0, "in [0, 1)"),
                ("lr", math.isfinite(self.lr) and self.lr > 0, "finite and > 0"),
                ("epochs", self.epochs >= 0, ">= 0"),
                ("patience", self.patience >= 1, ">= 1"), ("accum", self.accum >= 1, ">= 1"),
                ("eval_every", self.eval_every is None or self.eval_every >= 1, "None or >= 1")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class Resources:
    vocab: Vocab
    table: EmbeddingTable
    embedder: object
    graph_cfg: GraphConfig

    @classmethod
    def default(cls, vocab: Vocab, table: EmbeddingTable,
                graph_cfg: GraphConfig | None = None, embedder=None) -> "Resources":
        return cls(vocab=vocab, table=table,
                   embedder=embedder or MeanWordEmbedder(table),
                   graph_cfg=graph_cfg or GraphConfig())


@dataclass
class LossBreakdown:
    l_ce: float
    l_gs: float
    total: float


@dataclass
class ClusterBundle:
    """Static per-cluster artifacts, computed once as no parameter touches them.
    Each side, source and (for training) summary, is its encoder ids plus graph;
    the parsed cluster itself is not kept."""
    id: str
    src_ids: list[int]
    src_graph: HeteroGraph
    reference: list[list[str]] | None = None  # the summary's sentence tokens
    target: list[int] | None = None  # gold ids, at most max_out_len - 1
    sum_ids: list[int] | None = None
    sum_graph: HeteroGraph | None = None


def _ids_and_graph(cluster: DocumentCluster, resources: Resources,
                   max_len: int) -> tuple[list[int], HeteroGraph]:
    """The encoder input ids of ``cluster`` and its graph, on one layout."""
    ids, bounds = serialize_encoder_input(cluster, resources.vocab, max_len)
    return ids, build_hetero_graph(cluster, resources.table, resources.embedder,
                                   resources.graph_cfg, bounds=bounds)


def prepare_bundle(cluster: DocumentCluster, resources: Resources,
                   model_cfg: ModelConfig, need_summary: bool = True) -> ClusterBundle:
    """The source side of ``cluster``, its reference when it has a summary,
    and with ``need_summary`` its training target and summary side."""
    max_in = model_cfg.text.max_in_len
    bundle = ClusterBundle(cluster.id, *_ids_and_graph(cluster, resources, max_in))
    if cluster.summary:
        bundle.reference = [sent.tokens for sent in cluster.summary]
        if need_summary:
            tokens = [t for sent in bundle.reference for t in sent]
            bundle.target = [resources.vocab.encode(t)
                             for t in tokens[:model_cfg.text.max_out_len - 1]]
            bundle.sum_ids, bundle.sum_graph = _ids_and_graph(summary_as_cluster(cluster),
                                                              resources, max_in)
    return bundle


def encode_graph(ids: list[int], graph: HeteroGraph, params: ParamStore, model_cfg: ModelConfig,
                 train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """The graph encoding [n_nodes, d_model] of either side of a cluster,
    source or summary: text encode, each node's row, then MGAT."""
    rows = encode_text(ids, params, model_cfg.text, train=train, rng=rng)
    return mgat_encode(unit_embeddings(rows, ids, graph), graph, params, model_cfg.mgat)


def encode_compress(bundle: ClusterBundle, params: ParamStore, model_cfg: ModelConfig,
                    train: bool = False, rng: np.random.Generator | None = None):
    """Source pipeline: ``encode_graph`` -> compress. Returns (Q_p, memory
    positions, scores-or-None, selection)."""
    q_prime = encode_graph(bundle.src_ids, bundle.src_graph, params, model_cfg, train, rng)
    if model_cfg.no_compressor:
        positions = bundle.src_graph.token_positions()
        return q_prime, positions, None, np.arange(bundle.src_graph.n_nodes)
    return compress_graph(q_prime, bundle.src_graph, params, model_cfg.comp)


def graph_similarity_loss(q_p: Tensor, q_z: Tensor) -> Tensor:
    """Negative cosine similarity of the mean node embeddings."""
    if q_p.shape[0] == 0 or q_z.shape[0] == 0:
        raise DataError("graph_similarity_loss: empty encoding")
    loss = nm.mul(nm.cosine_sim(nm.mean(q_p, axis=0), nm.mean(q_z, axis=0)), -1.0)
    if not loss.requires_grad and float(loss.data) == 0.0:
        log.warning("graph similarity: zero-norm mean embedding, loss pinned to 0")
    return loss


def train_step(bundle: ClusterBundle, params: ParamStore, model_cfg: ModelConfig,
               train_cfg: TrainConfig,
               rng: np.random.Generator | None = None) -> tuple[LossBreakdown, dict]:
    """Forward both objectives, backward on the weighted total, and return
    the loss breakdown plus a name->gradient dict."""
    if bundle.target is None:
        raise DataError(f"cluster {bundle.id!r} has no summary to train on")
    rng = rng or np.random.default_rng(train_cfg.seed)
    beta = float(train_cfg.beta)

    q_p, positions, _, _ = encode_compress(bundle, params, model_cfg, train=True, rng=rng)
    logits = decode_teacher_forced(q_p, positions, [Vocab.BOS] + bundle.target, params,
                                   model_cfg.text, train=True, rng=rng)
    l_ce = nm.cross_entropy_smoothed(logits, bundle.target + [Vocab.EOS],
                                     train_cfg.label_smoothing)

    if beta == 1.0:
        l_gs = None
        total = nm.mul(l_ce, beta)
    else:
        q_z = encode_graph(bundle.sum_ids, bundle.sum_graph, params, model_cfg, True, rng)
        l_gs = graph_similarity_loss(q_p, q_z)
        total = nm.add(nm.mul(l_ce, beta), nm.mul(l_gs, 1.0 - beta))

    params.zero_grads()
    try:
        total.backward()
    except NumericError as e:
        raise NumericError(f"cluster {bundle.id!r}: {e}") from e
    # the parameters' own arrays: zero_grads() above makes the next backward
    # allocate new ones
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for name, t in params.items()}
    breakdown = LossBreakdown(l_ce=float(l_ce.data),
                              l_gs=0.0 if l_gs is None else float(l_gs.data),
                              total=float(total.data))
    return breakdown, grads


def summarize_bundle(bundle: ClusterBundle, params: ParamStore, model_cfg: ModelConfig,
                     vocab: Vocab, beam_width: int = 5,
                     max_len: int | None = None) -> list[str]:
    """Generate summary tokens for one cluster; no ground-truth input is
    touched anywhere on this path. Reserved ids are dropped from the text."""
    with nm.no_grad():
        q_p, positions, _, _ = encode_compress(bundle, params, model_cfg)
    ids = decode_beam(q_p, positions, params, model_cfg.text, beam_width, max_len)
    return [vocab.decode(i) for i in ids if i >= len(RESERVED)]


@dataclass
class FitResult:
    params: ParamStore
    log: list[dict]
    best_dev_rl: float
    steps: int


def score_summaries(bundles: list[ClusterBundle], params: ParamStore,
                    model_cfg: ModelConfig, vocab: Vocab, beam_width: int) -> dict:
    """``rouge.mean_rouge`` of the generated summaries of the clusters that
    have a reference, as ``dgsum eval`` would score them."""
    pairs = []
    for bundle in bundles:
        if bundle.reference:
            tokens = summarize_bundle(bundle, params, model_cfg, vocab, beam_width)
            pairs.append((rouge.sentences(" ".join(tokens)), bundle.reference))
    return rouge.mean_rouge(pairs)


def evaluate_dev(bundles: list[ClusterBundle], params: ParamStore,
                 model_cfg: ModelConfig, vocab: Vocab) -> dict:
    """Dev R-1/R-2/R-L of beam-width-1 (greedy) summaries."""
    scores = score_summaries(bundles, params, model_cfg, vocab, beam_width=1)
    return {key: scores[key] for key in ("r1", "r2", "rl")}


def fit(train_bundles: list[ClusterBundle], dev_bundles: list[ClusterBundle],
        params: ParamStore, model_cfg: ModelConfig, train_cfg: TrainConfig,
        resources: Resources) -> FitResult:
    """Seeded epochs of train steps with periodic dev evaluation; keeps the
    parameters of the best dev summary-level ROUGE-L and stops early after
    ``patience`` evaluations without improvement. Each Adam step takes the
    mean gradient of ``accum`` steps; groups do not span epochs, so an
    epoch's leftover steps make a smaller group, applied before its eval."""
    if not train_bundles:
        raise DataError("fit: empty training set")

    rng = np.random.default_rng(train_cfg.seed)
    optimizer = Adam(params, lr=train_cfg.lr)
    best, best_rl, bad_evals = None, -1.0, 0  # best is set by the first dev eval
    log_records: list[dict] = []
    step, acc, acc_count = 0, None, 0
    for _ in range(train_cfg.epochs):
        order = rng.permutation(len(train_bundles))
        for pos, bi in enumerate(order, 1):
            bundle = train_bundles[int(bi)]
            breakdown, grads = train_step(bundle, params, model_cfg, train_cfg, rng=rng)
            step += 1
            log_records.append({"kind": "step", "step": step, "cluster": bundle.id,
                                "l_ce": breakdown.l_ce, "l_gs": breakdown.l_gs,
                                "total": breakdown.total})
            acc = grads if acc is None else {k: acc[k] + grads[k] for k in acc}
            acc_count += 1
            epoch_end = pos == len(order)
            if acc_count == train_cfg.accum or epoch_end:  # a group ends with its epoch
                for name, t in params.items():
                    t.grad = acc[name] / acc_count
                optimizer.step()
                params.zero_grads()
                acc, acc_count = None, 0
            if (step % train_cfg.eval_every == 0) if train_cfg.eval_every else epoch_end:
                metrics = evaluate_dev(dev_bundles, params, model_cfg, resources.vocab)
                improved = metrics["rl"] > best_rl
                log_records.append({"kind": "dev", "step": step, **metrics, "best": improved})
                if improved:
                    best, best_rl, bad_evals = params.clone(), metrics["rl"], 0
                else:
                    bad_evals += 1
                    if bad_evals == train_cfg.patience:
                        return FitResult(params=best, log=log_records, best_dev_rl=best_rl,
                                         steps=step)

    if best is None:  # no dev evaluation ran
        best, best_rl = params.clone(), 0.0
    return FitResult(params=best, log=log_records, best_dev_rl=best_rl, steps=step)
