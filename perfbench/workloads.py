"""The three workloads. Each set-up and each operation calls the public
``dgsum`` functions the matching CLI command calls, through module
attributes, so the traced run's wrappers see every call.

* ``train``: one operation is ``training.train_step`` then ``Adam.step``, the
  inner loop of ``fit`` at ``accum`` 1 (``dgsum train``).
* ``summarize``: one operation is one cluster as ``dgsum summarize`` does it,
  ``prepare_bundle(need_summary=False)`` then ``summarize_bundle``.
* ``ingest``: one operation is one cluster as ``dgsum graph`` does it,
  ``build_hetero_graph``, ``to_dot``, ``to_json``, ``validate_graph``.

Operations cycle through the generated clusters in file order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import checks
from gen import CorpusSpec


@dataclass
class Outcome:
    units: int                                   # work done, for the rate metric
    digest: dict                                 # compared on the default seed
    problems: list[str] = field(default_factory=list)


class Workload:
    name = ""
    why = ""
    spec: CorpusSpec
    options: dict = {}        # RunConfig fields, as CLI flags would set them
    unit = ""                 # what ``items_per_s`` counts
    aliases: tuple[str, str, str] = ("", "", "")
    digest_ops = 8            # operations covered by the stored digest

    def __init__(self, dg):
        self.dg = dg

    def config(self, files: dict):
        return self.dg.cli.RunConfig(data=files["data"], embeddings=files["embeddings"],
                                     **self.options)

    def setup(self, files: dict) -> None:
        raise NotImplementedError

    def pool(self) -> int:
        """Distinct inputs the operations cycle through."""
        return len(self.clusters)

    def run(self, i: int):
        raise NotImplementedError

    def inspect(self, i: int, out) -> Outcome:
        raise NotImplementedError


class Train(Workload):
    name = "train"
    why = ("dense n^2 attention in text_model and mgat plus the numeric backward pass; "
           "graph build is paid in set-up only")
    spec = CorpusSpec(n_clusters=4, docs=5, sents=(4, 5), words=(14, 22), summary_words=40)
    unit = "source tokens"
    aliases = ("train_step_ms_p50", "train_step_ms_tail", "train_src_tokens_per_s")

    def setup(self, files: dict) -> None:
        dg = self.dg
        cfg = self.cfg = self.config(files)
        dg.numeric.set_precision(cfg.precision)
        train_set = [c for c in dg.corpus.load_clusters(cfg.data) if c.summary]
        self.vocab = dg.corpus.build_vocab(train_set, min_freq=cfg.min_freq)
        resources = cfg.resources(self.vocab)
        self.model_cfg = cfg.model_config()
        self.train_cfg = cfg.train_config()
        self.params = self.model_cfg.build_params(len(self.vocab), cfg.seed)
        self.bundles = [dg.training.prepare_bundle(c, resources, self.model_cfg, True)
                        for c in train_set]
        self.optimizer = dg.numeric.Adam(self.params, lr=self.train_cfg.lr)
        self.rng = np.random.default_rng(self.train_cfg.seed)

    def pool(self) -> int:
        return len(self.bundles)

    def run(self, i: int):
        bundle = self.bundles[i % len(self.bundles)]
        breakdown, grads = self.dg.training.train_step(bundle, self.params, self.model_cfg,
                                                       self.train_cfg, rng=self.rng)
        for name, t in self.params.items():
            t.grad = grads[name]
        self.optimizer.step()
        self.params.zero_grads()
        return bundle, breakdown

    def inspect(self, i: int, out) -> Outcome:
        bundle, b = out
        losses = {"l_ce": b.l_ce, "l_gs": b.l_gs, "total": b.total}
        return Outcome(len(bundle.src_ids), losses, checks.loss_problems(losses))


class Summarize(Workload):
    name = "summarize"
    why = ("incremental beam decoding under no_grad: decoder steps and beam bookkeeping; "
           "no backward, graph build small")
    spec = CorpusSpec(n_clusters=24, docs=3, sents=(3, 5), words=(14, 22), lexicon=4000,
                      topics_per_cluster=4, zipf=0.6)
    options = {"max_out_len": 32, "min_freq": 1}
    unit = "summary tokens"
    aliases = ("summarize_ms_p50", "summarize_ms_tail", "summary_tokens_per_s")

    def setup(self, files: dict) -> None:
        dg = self.dg
        cfg = self.cfg = self.config(files)
        dg.numeric.set_precision(cfg.precision)
        self.clusters = dg.corpus.load_clusters(cfg.data)
        # the vocabulary `dgsum train` would store for this corpus
        self.vocab = dg.corpus.build_vocab(self.clusters, min_freq=cfg.min_freq)
        self.resources = cfg.resources(self.vocab)
        self.model_cfg = cfg.model_config()
        self.params = self.model_cfg.build_params(len(self.vocab), cfg.seed)

    def run(self, i: int):
        training = self.dg.training
        cluster = self.clusters[i % len(self.clusters)]
        bundle = training.prepare_bundle(cluster, self.resources, self.model_cfg,
                                         need_summary=False)
        tokens = training.summarize_bundle(bundle, self.params, self.model_cfg, self.vocab,
                                           beam_width=self.cfg.beam_width)
        return bundle, tokens

    def inspect(self, i: int, out) -> Outcome:
        bundle, tokens = out
        ids = [self.vocab.token_to_id.get(t, -1) for t in tokens]
        problems = checks.token_problems(ids, len(self.vocab), self.cfg.max_out_len)
        return Outcome(len(tokens), {"ids": ids, "nodes": bundle.src_graph.n_nodes}, problems)


class Ingest(Workload):
    name = "ingest"
    why = ("hetgraph pair loops: WE cosine over noun pairs, SS cosine, DD ROUGE, "
           "export and validation; no model")
    spec = CorpusSpec(n_clusters=4, docs=12, sents=(3, 4), words=(14, 22))
    unit = "graph nodes"
    aliases = ("ingest_ms_p50", "ingest_ms_tail", "ingest_nodes_per_s")
    digest_ops = 1

    def setup(self, files: dict) -> None:
        dg = self.dg
        cfg = self.cfg = self.config(files)
        self.table = dg.embeddings.EmbeddingTable.load(cfg.embeddings, cfg.embedding_dim)
        self.embedder = dg.embeddings.MeanWordEmbedder(self.table)
        self.clusters = dg.corpus.load_clusters(cfg.data)
        self.graph_cfg = cfg.graph_config()

    def run(self, i: int):
        hetgraph = self.dg.hetgraph
        cluster = self.clusters[i % len(self.clusters)]
        g = hetgraph.build_hetero_graph(cluster, self.table, self.embedder, self.graph_cfg)
        exported = (g.to_dot(cluster.id), g.to_json())
        report = hetgraph.validate_graph(g)
        return g, exported, report

    def inspect(self, i: int, out) -> Outcome:
        g, exported, report = out
        problems = list(report.violations[:5])
        if not all(exported):
            problems.append("empty export")
        return Outcome(g.n_nodes, checks.graph_digest(g), problems)


WORKLOADS = {w.name: w for w in (Train, Summarize, Ingest)}
