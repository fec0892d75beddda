"""Multi-task training: teacher-forced smoothed cross-entropy on the summary
plus graph-similarity loss between the compressed source graph and the
ground-truth summary graph, weighted by beta. One cluster per step (graphs
are ragged); gradient accumulation provides larger effective batches.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import numeric as nm
from . import rouge
from .compressor import CompressorConfig, add_compressor_params, compress_graph
from .corpus import (RESERVED, DocumentCluster, Vocab, serialize_encoder_input,
                     summary_as_cluster)
from .embeddings import EmbeddingTable, MeanWordEmbedder
from .errors import DataError, NumericError
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

    def build_params(self, vocab_size: int, seed: int) -> ParamStore:
        rng = np.random.default_rng(seed)
        store = ParamStore()
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
    """Static per-cluster artifacts: serializations and graphs do not depend
    on model parameters, so they are computed once."""
    cluster: DocumentCluster
    src_ids: list[int]
    src_bounds: object
    src_graph: HeteroGraph
    target_input: list[int] | None = None  # BOS + gold tokens
    target_gold: list[int] | None = None   # gold tokens + EOS
    ref_tokens: list[str] | None = None
    sum_ids: list[int] | None = None
    sum_bounds: object = None
    sum_graph: HeteroGraph | None = None


def prepare_bundle(cluster: DocumentCluster, resources: Resources,
                   model_cfg: ModelConfig, need_summary: bool = True) -> ClusterBundle:
    graph_cfg = resources.graph_cfg
    max_in = model_cfg.text.max_in_len
    src_ids, src_bounds = serialize_encoder_input(cluster, resources.vocab, max_in)
    src_graph = build_hetero_graph(cluster, resources.table, resources.embedder,
                                   graph_cfg, bounds=src_bounds)
    bundle = ClusterBundle(cluster=cluster, src_ids=src_ids, src_bounds=src_bounds,
                           src_graph=src_graph)
    if need_summary and cluster.summary:
        tokens = [t for sent in cluster.summary for t in sent.lower]
        tokens = tokens[:model_cfg.text.max_out_len - 1]
        ids = [resources.vocab.encode(t) for t in tokens]
        bundle.target_input = [Vocab.BOS] + ids
        bundle.target_gold = ids + [Vocab.EOS]
        bundle.ref_tokens = tokens
        sum_cluster = summary_as_cluster(cluster)
        bundle.sum_ids, bundle.sum_bounds = serialize_encoder_input(
            sum_cluster, resources.vocab, max_in)
        bundle.sum_graph = build_hetero_graph(sum_cluster, resources.table,
                                              resources.embedder, graph_cfg,
                                              bounds=bundle.sum_bounds)
    return bundle


def encode_compress(bundle: ClusterBundle, params: ParamStore, model_cfg: ModelConfig,
                    train: bool = False, rng: np.random.Generator | None = None):
    """Source pipeline: text encode -> graph encode -> compress. Returns
    (Q_p, memory positions, scores-or-None, selection)."""
    enc = encode_text(bundle.src_ids, bundle.src_bounds, params, model_cfg.text,
                      train=train, rng=rng)
    h0 = unit_embeddings(enc, bundle.src_graph)
    q_prime = mgat_encode(h0, bundle.src_graph, params, model_cfg.mgat)
    if model_cfg.no_compressor:
        positions = bundle.src_graph.token_positions()
        return q_prime, positions, None, np.arange(bundle.src_graph.n_nodes)
    q_p, positions, t, selection = compress_graph(q_prime, bundle.src_graph, params,
                                                  model_cfg.comp)
    return q_p, positions, t, selection


def encode_summary_graph(bundle: ClusterBundle, params: ParamStore,
                         model_cfg: ModelConfig, train: bool = False,
                         rng: np.random.Generator | None = None) -> Tensor:
    """Q'_z: the summary's graph encoding through the same text and graph
    encoders (one graph encoder processes both sides)."""
    enc = encode_text(bundle.sum_ids, bundle.sum_bounds, params, model_cfg.text,
                      train=train, rng=rng)
    h0 = unit_embeddings(enc, bundle.sum_graph)
    return mgat_encode(h0, bundle.sum_graph, params, model_cfg.mgat)


def cross_entropy_smoothed(logits: Tensor, target_ids, smoothing: float) -> Tensor:
    """Smoothed NLL averaged over non-PAD steps."""
    return nm.cross_entropy_smoothed(logits, target_ids, smoothing,
                                     ignore_index=Vocab.PAD)


def graph_similarity_loss(q_p: Tensor, q_z: Tensor) -> Tensor:
    """Negative cosine similarity of the mean node embeddings."""
    if q_p.shape[0] == 0 or q_z.shape[0] == 0:
        raise DataError("graph_similarity_loss: empty encoding")
    loss = -nm.cosine_sim(nm.mean(q_p, axis=0), nm.mean(q_z, axis=0))
    if not loss.requires_grad and float(loss.data) == 0.0:
        log.warning("graph similarity: zero-norm mean embedding, loss pinned to 0")
    return loss


def train_step(bundle: ClusterBundle, params: ParamStore, model_cfg: ModelConfig,
               train_cfg: TrainConfig,
               rng: np.random.Generator | None = None) -> tuple[LossBreakdown, dict]:
    """Forward both objectives, backward on the weighted total, and return
    the loss breakdown plus a name->gradient dict."""
    if bundle.target_input is None:
        raise DataError(f"cluster {bundle.cluster.id!r} has no summary to train on")
    rng = rng or np.random.default_rng(train_cfg.seed)
    beta = float(train_cfg.beta)

    q_p, positions, _, _ = encode_compress(bundle, params, model_cfg, train=True, rng=rng)
    logits = decode_teacher_forced(q_p, positions, bundle.target_input, params,
                                   model_cfg.text, train=True, rng=rng)
    l_ce = cross_entropy_smoothed(logits, bundle.target_gold, train_cfg.label_smoothing)

    if beta == 1.0:
        l_gs = None
        total = nm.mul(l_ce, beta)
    else:
        q_z = encode_summary_graph(bundle, params, model_cfg, train=True, rng=rng)
        l_gs = graph_similarity_loss(q_p, q_z)
        total = nm.add(nm.mul(l_ce, beta), nm.mul(l_gs, 1.0 - beta))

    params.zero_grads()
    try:
        total.backward()
    except NumericError as e:
        raise NumericError(f"cluster {bundle.cluster.id!r}: {e}") from e
    grads = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
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
        if bundle.cluster.summary:
            tokens = summarize_bundle(bundle, params, model_cfg, vocab, beam_width)
            pairs.append((rouge.sentences(" ".join(tokens)),
                          [s.lower for s in bundle.cluster.summary]))
    return rouge.mean_rouge(pairs)


def evaluate_dev(bundles: list[ClusterBundle], params: ParamStore,
                 model_cfg: ModelConfig, vocab: Vocab) -> dict:
    """Dev R-1/R-2/R-L of beam-width-1 (greedy) summaries."""
    scores = score_summaries(bundles, params, model_cfg, vocab, beam_width=1)
    return {key: scores[key] for key in ("r1", "r2", "rl")}


def fit(train_clusters: list[DocumentCluster] | list[ClusterBundle],
        dev_clusters: list[DocumentCluster] | list[ClusterBundle],
        params: ParamStore, model_cfg: ModelConfig, train_cfg: TrainConfig,
        resources: Resources) -> FitResult:
    """Seeded epochs of train steps with periodic dev evaluation; keeps the
    parameters of the best dev summary-level ROUGE-L and stops early after
    ``patience`` evaluations without improvement."""
    def as_bundles(items, need_summary):
        return [it if isinstance(it, ClusterBundle)
                else prepare_bundle(it, resources, model_cfg, need_summary)
                for it in items]

    train_bundles = as_bundles(train_clusters, True)
    dev_bundles = as_bundles(dev_clusters, True)
    if not train_bundles:
        raise DataError("fit: empty training set")

    rng = np.random.default_rng(train_cfg.seed)
    optimizer = Adam(params, lr=train_cfg.lr)
    best = params.clone()
    best_rl = -1.0
    bad_evals = 0
    log_records: list[dict] = []
    step = 0
    acc: dict | None = None
    acc_count = 0
    stop = False

    def run_dev_eval():
        nonlocal best, best_rl, bad_evals, stop
        metrics = evaluate_dev(dev_bundles, params, model_cfg, resources.vocab)
        improved = metrics["rl"] > best_rl
        if improved:
            best_rl = metrics["rl"]
            best = params.clone()
            bad_evals = 0
        else:
            bad_evals += 1
            if bad_evals >= train_cfg.patience:
                stop = True
        log_records.append({"kind": "dev", "step": step, **metrics, "best": improved})

    for _ in range(train_cfg.epochs):
        order = rng.permutation(len(train_bundles))
        for bi in order:
            bundle = train_bundles[int(bi)]
            breakdown, grads = train_step(bundle, params, model_cfg, train_cfg, rng=rng)
            step += 1
            log_records.append({"kind": "step", "step": step, "cluster": bundle.cluster.id,
                                "l_ce": breakdown.l_ce, "l_gs": breakdown.l_gs,
                                "total": breakdown.total})
            if acc is None:
                acc = grads
            else:
                for name in acc:
                    acc[name] += grads[name]
            acc_count += 1
            if acc_count >= train_cfg.accum:
                for name, t in params.items():
                    t.grad = acc[name] / acc_count
                optimizer.step()
                params.zero_grads()
                acc = None
                acc_count = 0
            if train_cfg.eval_every and step % train_cfg.eval_every == 0:
                run_dev_eval()
                if stop:
                    break
        if stop:
            break
        if not train_cfg.eval_every and train_cfg.epochs > 0:
            run_dev_eval()
            if stop:
                break

    if acc is not None and acc_count and not stop:
        for name, t in params.items():
            t.grad = acc[name] / acc_count
        optimizer.step()
        params.zero_grads()

    if best_rl < 0:  # no dev evaluation ever ran
        best = params.clone()
        best_rl = 0.0
    return FitResult(params=best, log=log_records, best_dev_rl=best_rl, steps=step)
