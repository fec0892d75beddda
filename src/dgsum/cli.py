"""Command-line interface: ``train``, ``summarize``, ``eval``, ``ksweep``,
``graph``.

Configuration layers: dataclass defaults, then a JSON config file
(``--config``), then explicit CLI flags. The resolved configuration is
echoed into the output directory so a run can be reproduced from its
artifacts alone. Exit codes: 0 success, 1 usage/config error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

from . import numeric as nm
from . import rouge
from .compressor import CompressorConfig
from .corpus import Vocab, build_vocab, load_clusters
from .embeddings import EmbeddingTable, MeanWordEmbedder, PrecomputedEmbedder
from .errors import ConfigError, DataError, DgsumError, NumericError, ShapeError
from .hetgraph import GraphConfig, build_hetero_graph, validate_graph
from .mgat import MgatConfig
from .text_model import TextModelConfig
from .training import (ModelConfig, Resources, TrainConfig, fit, prepare_bundle,
                       score_summaries, summarize_bundle)

log = logging.getLogger("dgsum.cli")


@dataclass
class RunConfig:
    # data / io
    data: str | None = None
    dev: str | None = None
    out: str | None = None
    max_input_len: int = 4096
    min_freq: int = 2
    # embeddings
    embeddings: str | None = None
    embedding_dim: int = 100
    sentence_embeddings: str | None = None
    # graph
    we_threshold: float = 0.5
    ss_threshold: float | None = None
    # text model
    d_model: int = 128
    n_layers_enc: int = 2
    n_layers_dec: int = 2
    n_heads: int = 4
    ffn_dim: int = 256
    attention_window: int = 16
    max_out_len: int = 512
    dropout: float = 0.0
    # graph encoder
    mgat_layers: int = 2
    mgat_heads: int = 2
    mgat_head_dim: int = 32
    mgat_residual: bool = True
    no_mgat: bool = False
    # compressor
    k: float = 0.5
    renorm_mask: bool = False
    no_compressor: bool = False
    # training / decoding
    beta: float = 0.5
    label_smoothing: float = 0.1
    lr: float = 3e-4
    epochs: int = 1
    patience: int = 5
    seed: int = 0
    accum: int = 1
    eval_every: int | None = None
    beam_width: int = 5
    length_norm: bool = True
    precision: str = "double"

    def validate(self) -> None:
        if self.precision not in ("single", "double"):
            raise ConfigError(f"precision must be single or double, got {self.precision!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 < self.k <= 1.0:
            raise ConfigError(f"k must be in (0, 1], got {self.k}")

    def model_config(self) -> ModelConfig:
        text = TextModelConfig(d_model=self.d_model, n_layers_enc=self.n_layers_enc,
                               n_layers_dec=self.n_layers_dec, n_heads=self.n_heads,
                               ffn_dim=self.ffn_dim, attention_window=self.attention_window,
                               max_in_len=self.max_input_len, max_out_len=self.max_out_len,
                               dropout=self.dropout, length_norm=self.length_norm)
        mgat = MgatConfig(n_layers=self.mgat_layers, n_heads=self.mgat_heads,
                          d_in=self.d_model, d_head=self.mgat_head_dim,
                          residual=self.mgat_residual, single_channel=self.no_mgat)
        comp = CompressorConfig(k=self.k, renorm_mask=self.renorm_mask)
        return ModelConfig(text=text, mgat=mgat, comp=comp,
                           no_compressor=self.no_compressor)

    def train_config(self) -> TrainConfig:
        return TrainConfig(beta=self.beta, label_smoothing=self.label_smoothing,
                           lr=self.lr, epochs=self.epochs, patience=self.patience,
                           seed=self.seed, accum=self.accum, eval_every=self.eval_every)

    def graph_config(self) -> GraphConfig:
        return GraphConfig(we_threshold=self.we_threshold, ss_threshold=self.ss_threshold,
                           max_input_len=self.max_input_len)

    def resources(self, vocab: Vocab) -> Resources:
        if not self.embeddings:
            raise ConfigError("--embeddings is required")
        table = EmbeddingTable.load(self.embeddings, self.embedding_dim)
        if self.sentence_embeddings:
            embedder = PrecomputedEmbedder(self.sentence_embeddings, self.embedding_dim)
        else:
            embedder = MeanWordEmbedder(table)
        return Resources(vocab=vocab, table=table, embedder=embedder,
                         graph_cfg=self.graph_config())


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def resolve_config(file_path: str | None, overrides: dict) -> RunConfig:
    """defaults < config file < explicit CLI flags."""
    values: dict = {}
    if file_path:
        p = Path(file_path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            loaded = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"{p}: invalid JSON: {e}")
        unknown = set(loaded) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"{p}: unknown config keys {sorted(unknown)}")
        values.update(loaded)
    for key, val in overrides.items():
        if val is not None:
            values.update({key: val})
    unknown = set(values) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def echo_config(cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(
        json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True), encoding="utf-8")


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _read_summaries(path) -> dict[str, str]:
    p = Path(path)
    if not p.exists():
        raise DataError(f"file not found: {p}")
    out: dict[str, str] = {}
    with p.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{p}:{lineno}: malformed record: {e}")
            if "id" not in rec or "summary" not in rec:
                raise DataError(f"{p}:{lineno}: record needs 'id' and 'summary'")
            cid = str(rec["id"])
            if cid in out:
                raise DataError(f"{p}:{lineno}: duplicate id {cid!r}")
            out[cid] = str(rec["summary"])
    return out


# --- commands ------------------------------------------------------------

def _train_model(cfg: RunConfig):
    """Vocabulary, resources and parameters from ``cfg``, then ``fit`` on the
    clusters of ``--data`` that have summaries, selecting on ``--dev`` (or the
    training set). Returns (training clusters, vocab, resources, model
    config, fit result)."""
    train_set = [c for c in load_clusters(cfg.data) if c.summary]
    if not train_set:
        raise DataError(f"{cfg.data}: no clusters with summaries to train on")
    dev_set = ([c for c in load_clusters(cfg.dev) if c.summary]
               if cfg.dev else train_set)
    vocab = build_vocab(train_set, min_freq=cfg.min_freq)
    resources = cfg.resources(vocab)
    model_cfg = cfg.model_config()
    params = model_cfg.build_params(len(vocab), cfg.seed)
    result = fit(train_set, dev_set, params, model_cfg, cfg.train_config(), resources)
    return train_set, vocab, resources, model_cfg, result


def cmd_train(cfg: RunConfig) -> int:
    if not cfg.data or not cfg.out:
        raise ConfigError("train requires --data and --out")
    nm.set_precision(cfg.precision)
    out_dir = Path(cfg.out)
    _, vocab, _, _, result = _train_model(cfg)

    echo_config(cfg, out_dir)
    result.params.save(out_dir / "checkpoint.npz")
    vocab.save(out_dir / "vocab.json")
    _write_jsonl(out_dir / "metrics.jsonl", result.log)
    print(f"trained {result.steps} steps; best dev R-L {result.best_dev_rl:.4f}; "
          f"artifacts in {out_dir}")
    return 0


# fields that must match the checkpoint to rebuild the parameter shapes
_SHAPE_KEYS = ("d_model", "n_layers_enc", "n_layers_dec", "n_heads", "ffn_dim",
               "attention_window", "max_input_len", "max_out_len", "mgat_layers",
               "mgat_heads", "mgat_head_dim", "mgat_residual", "no_mgat",
               "no_compressor", "min_freq")


def _load_model(cfg: RunConfig, model_dir: str, explicit: set[str] = frozenset()):
    mdir = Path(model_dir)
    cfg_path = mdir / "config.json"
    if cfg_path.exists():
        stored = json.loads(cfg_path.read_text(encoding="utf-8"))
        for key, val in stored.items():
            if key in _SHAPE_KEYS:
                setattr(cfg, key, val)  # checkpoint compatibility wins
            elif key in ("data", "dev", "out"):
                continue
            elif key not in explicit:
                setattr(cfg, key, val)  # training-run value as fallback
    vocab = Vocab.load(mdir / "vocab.json")
    model_cfg = cfg.model_config()
    params = model_cfg.build_params(len(vocab), cfg.seed)
    params.load_data_from(mdir / "checkpoint.npz")
    return vocab, model_cfg, params


def cmd_summarize(cfg: RunConfig, model_dir: str,
                  explicit: set[str] = frozenset()) -> int:
    if not cfg.data or not cfg.out:
        raise ConfigError("summarize requires --data and --out")
    nm.set_precision(cfg.precision)
    vocab, model_cfg, params = _load_model(cfg, model_dir, explicit)
    resources = cfg.resources(vocab)
    clusters = load_clusters(cfg.data)
    records = []
    for cluster in clusters:
        bundle = prepare_bundle(cluster, resources, model_cfg, need_summary=False)
        tokens = summarize_bundle(bundle, params, model_cfg, vocab,
                                  beam_width=cfg.beam_width)
        records.append({"id": cluster.id, "summary": " ".join(tokens)})
    out_path = Path(cfg.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out_path, records)
    print(f"wrote {len(records)} summaries to {out_path}")
    return 0


def cmd_eval(cfg: RunConfig, generated_path: str, references_path: str) -> int:
    generated = _read_summaries(generated_path)
    references = _read_summaries(references_path)
    report = rouge.corpus_rouge(generated, references)
    print(f"R-1 {100 * report['r1']:.2f}  R-2 {100 * report['r2']:.2f}  "
          f"R-L {100 * report['rl']:.2f}  len {report['mean_length']:.1f}  "
          f"n {report['count']}")
    if cfg.out:
        out_path = Path(cfg.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(report, indent=2), encoding="utf-8")
    return 0


def cmd_ksweep(cfg: RunConfig, k_values: list[float], model_dir: str | None,
               explicit: set[str] = frozenset()) -> int:
    if len(k_values) < 2:
        raise ConfigError(f"ksweep needs at least 2 k values, got {k_values}")
    if not cfg.data:
        raise ConfigError("ksweep requires --data")
    nm.set_precision(cfg.precision)
    if model_dir:  # one model, its clusters and graphs, re-compressed at each k
        vocab, model_cfg, params = _load_model(cfg, model_dir, explicit | {"k"})
        resources = cfg.resources(vocab)
        bundles = [prepare_bundle(c, resources, model_cfg, need_summary=False)
                   for c in load_clusters(cfg.data) if c.summary]
    rows = []
    for k in k_values:
        if model_dir:
            k_model_cfg = dataclasses.replace(
                model_cfg, comp=CompressorConfig(k=k, renorm_mask=cfg.renorm_mask))
        else:  # one model per k, trained as `dgsum train` trains it
            clusters, vocab, resources, k_model_cfg, result = _train_model(
                dataclasses.replace(cfg, k=k))
            params = result.params
            bundles = [prepare_bundle(c, resources, k_model_cfg, need_summary=False)
                       for c in clusters]
        scores = score_summaries(bundles, params, k_model_cfg, vocab, cfg.beam_width)
        rows.append({"k": k, "mean_length": scores["mean_length"], "r1": scores["r1"],
                     "r2": scores["r2"], "rl": scores["rl"]})

    print(f"{'k':>6}  {'mean_len':>9}  {'R-1':>6}  {'R-2':>6}  {'R-L':>6}")
    for row in rows:
        print(f"{row['k']:>6.2f}  {row['mean_length']:>9.2f}  {100 * row['r1']:>6.2f}  "
              f"{100 * row['r2']:>6.2f}  {100 * row['rl']:>6.2f}")
    pairs = list(zip(rows, rows[1:]))
    up = sum(1 for a, b in pairs if b["mean_length"] >= a["mean_length"])
    print(f"trend (informational): mean length non-decreasing in {up}/{len(pairs)} "
          f"adjacent k pairs")
    if cfg.out:
        out_path = Path(cfg.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        _write_jsonl(out_path, rows)
    return 0


def cmd_graph(cfg: RunConfig) -> int:
    if not cfg.data or not cfg.out:
        raise ConfigError("graph requires --data and --out")
    resources = cfg.resources(Vocab([]))  # graph building reads no vocabulary
    clusters = load_clusters(cfg.data)
    for cluster in clusters:  # ids become file names under --out
        if cluster.id in ("", ".", "..") or Path(cluster.id).name != cluster.id:
            raise DataError(f"cluster id {cluster.id!r} is not a plain file name")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    total_violations = []
    for cluster in clusters:
        g = build_hetero_graph(cluster, resources.table, resources.embedder,
                               resources.graph_cfg)
        (out_dir / f"{cluster.id}.dot").write_text(g.to_dot(cluster.id), encoding="utf-8")
        (out_dir / f"{cluster.id}.json").write_text(g.to_json(), encoding="utf-8")
        report = validate_graph(g)
        total_violations.extend(f"{cluster.id}: {v}" for v in report.violations)
    report_path = out_dir / "validation.txt"
    report_path.write_text("\n".join(total_violations) + ("\n" if total_violations else ""),
                           encoding="utf-8")
    print(f"exported {len(clusters)} graphs to {out_dir}; "
          f"{len(total_violations)} validation violations")
    if total_violations:
        return 2
    return 0


# --- argument parsing -------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--dev", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--precision", choices=("single", "double"), default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--embedding-dim", type=int, default=None, dest="embedding_dim")
    p.add_argument("--sentence-embeddings", default=None, dest="sentence_embeddings")
    p.add_argument("--max-input-len", type=int, default=None, dest="max_input_len")
    p.add_argument("--min-freq", type=int, default=None, dest="min_freq")
    p.add_argument("--we-threshold", type=float, default=None, dest="we_threshold")
    p.add_argument("--ss-threshold", type=float, default=None, dest="ss_threshold")
    p.add_argument("--d-model", type=int, default=None, dest="d_model")
    p.add_argument("--n-layers-enc", type=int, default=None, dest="n_layers_enc")
    p.add_argument("--n-layers-dec", type=int, default=None, dest="n_layers_dec")
    p.add_argument("--n-heads", type=int, default=None, dest="n_heads")
    p.add_argument("--ffn-dim", type=int, default=None, dest="ffn_dim")
    p.add_argument("--attention-window", type=int, default=None, dest="attention_window")
    p.add_argument("--max-out-len", type=int, default=None, dest="max_out_len")
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--mgat-layers", type=int, default=None, dest="mgat_layers")
    p.add_argument("--mgat-heads", type=int, default=None, dest="mgat_heads")
    p.add_argument("--mgat-head-dim", type=int, default=None, dest="mgat_head_dim")
    p.add_argument("--no-mgat", action="store_const", const=True, default=None,
                   dest="no_mgat")
    p.add_argument("--no-residual", action="store_const", const=False, default=None,
                   dest="mgat_residual")
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--renorm-mask", action="store_const", const=True, default=None,
                   dest="renorm_mask")
    p.add_argument("--no-compressor", action="store_const", const=True, default=None,
                   dest="no_compressor")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--label-smoothing", type=float, default=None, dest="label_smoothing")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--accum", type=int, default=None)
    p.add_argument("--eval-every", type=int, default=None, dest="eval_every")
    p.add_argument("--beam-width", type=int, default=None, dest="beam_width")
    p.add_argument("--no-length-norm", action="store_const", const=False, default=None,
                   dest="length_norm")


def build_parser() -> _Parser:
    parser = _Parser(prog="dgsum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "summarize", "eval", "ksweep", "graph"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "summarize":
            p.add_argument("--model", required=True)
        if name == "ksweep":
            p.add_argument("--model", default=None)
            p.add_argument("--k-values", required=True, dest="k_values")
        if name == "eval":
            p.add_argument("--generated", required=True)
            p.add_argument("--references", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING)
    try:
        args = build_parser().parse_args(argv)
        overrides = {k: v for k, v in vars(args).items()
                     if k in _FIELDS and v is not None}
        cfg = resolve_config(args.config, overrides)
        explicit = set(overrides)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "summarize":
            return cmd_summarize(cfg, args.model, explicit)
        if args.command == "eval":
            return cmd_eval(cfg, args.generated, args.references)
        if args.command == "ksweep":
            try:
                k_values = [float(x) for x in args.k_values.split(",") if x.strip()]
            except ValueError:
                raise ConfigError(f"bad --k-values {args.k_values!r}")
            return cmd_ksweep(cfg, k_values, args.model, explicit)
        if args.command == "graph":
            return cmd_graph(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (NumericError, ShapeError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except DgsumError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
