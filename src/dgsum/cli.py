"""Command-line interface: ``train``, ``summarize``, ``eval``, ``ksweep``,
``graph``.

Configuration layers, lowest first: the ``RunConfig`` defaults, a model's
stored ``config.json`` (``summarize`` and ``ksweep --model``), a JSON config
file (``--config``), then the flags, one per ``RunConfig`` field. The
resolved configuration is echoed into the output directory so a run can be
reproduced from its artifacts alone. Exit codes: 0 success, 1 usage/config
error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from . import rouge
from .compressor import CompressorConfig
from .corpus import Vocab, build_vocab, load_clusters, read_records
from .embeddings import EmbeddingTable, MeanWordEmbedder, PrecomputedEmbedder
from .errors import ConfigError, DataError, DgsumError, NumericError, ShapeError
from .hetgraph import GraphConfig, build_hetero_graph, validate_graph
from .mgat import MgatConfig
from .text_model import TextModelConfig
from .training import (ModelConfig, Resources, TrainConfig, fit, prepare_bundle,
                       score_summaries, summarize_bundle)


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
        """Raise ``ConfigError`` on a bad value; the sub-configs built here
        check their own fields."""
        for name, floor in (("beam_width", 1), ("min_freq", 1), ("embedding_dim", 1),
                            ("seed", 0), ("max_input_len", 16)):  # 16: the serializer's floor
            if getattr(self, name) < floor:
                raise ConfigError(f"{name} must be >= {floor}, got {getattr(self, name)}")
        self.model_config()
        self.train_config()
        self.graph_config()

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
                           no_compressor=self.no_compressor, precision=self.precision)

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


# each field's annotation as a tuple of types: (int,), (float, NoneType), ...
_TYPES = {name: typing.get_args(hint) or (hint,)
          for name, hint in typing.get_type_hints(RunConfig).items()}

# fields that must match the checkpoint to rebuild the parameter shapes
_SHAPE_KEYS = ("d_model", "n_layers_enc", "n_layers_dec", "n_heads", "ffn_dim",
               "attention_window", "max_input_len", "max_out_len", "mgat_layers",
               "mgat_heads", "mgat_head_dim", "mgat_residual", "no_mgat",
               "no_compressor", "min_freq")


def _read_layer(path: Path) -> dict:
    """A JSON object of ``RunConfig`` fields, each value of its field's type
    (an int is a float, a bool is not an int, null only where None is)."""
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or not JSON
        raise ConfigError(f"cannot read config {path}: {e}")
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: config must be a JSON object, got {loaded!r}")
    unknown = set(loaded) - set(_TYPES)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    for key, val in loaded.items():
        types = _TYPES[key]
        accepted = types + (int,) if float in types else types
        if isinstance(val, bool) != (bool in types) or not isinstance(val, accepted):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise ConfigError(f"{path}: {key!r} must be {names}, got {val!r}")
    return loaded


def resolve_config(file_path: str | None, flags: dict,
                   model_dir: str | None = None) -> RunConfig:
    """Layer, lowest first: the defaults; the stored ``config.json`` of
    ``model_dir`` without its data, dev and out paths; the ``--config`` file;
    the flags. Then the stored shape keys override all, so the checkpoint
    loads."""
    stored: dict = {}
    if model_dir and (Path(model_dir) / "config.json").exists():
        stored = _read_layer(Path(model_dir) / "config.json")
    values = {k: v for k, v in stored.items() if k not in ("data", "dev", "out")}
    if file_path:
        values.update(_read_layer(Path(file_path)))
    values.update((k, v) for k, v in flags.items() if v is not None)
    values.update((k, stored[k]) for k in _SHAPE_KEYS if k in stored)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, creating its parent directories."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")


def _write_jsonl(path, records) -> None:
    _write_text(path, "".join(json.dumps(rec) + "\n" for rec in records))


def _check_out(out: str | None, want_dir: bool) -> None:
    """``--out`` must name nothing yet, or a directory (``want_dir``) or a
    file; a directory only when it is empty, so no model is replaced."""
    if not out or not Path(out).exists():
        return
    if Path(out).is_dir() != want_dir:
        raise ConfigError(f"--out {out} is {'not ' if want_dir else ''}a directory")
    if want_dir and any(Path(out).iterdir()):
        raise ConfigError(f"--out {out} is not empty; remove it or choose another")


def _read_summaries(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, cid, rec in read_records(path, "summaries", ("id", "summary")):
        if not isinstance(rec["summary"], str):
            raise DataError(f"{path}:{lineno}: cluster {cid!r}: 'summary' must be a string")
        out[cid] = rec["summary"]
    return out


def _with_summaries(path, purpose: str) -> list:
    """The clusters of ``path`` that have a summary; a file with none is a
    data error that names it, before any model work."""
    clusters = [c for c in load_clusters(path) if c.summary]
    if not clusters:
        raise DataError(f"{path}: no clusters with summaries to {purpose}")
    return clusters


def _each_cluster(clusters, prepare) -> list:
    """``prepare(c)`` of each cluster; a cluster that raises ``DataError`` is
    named on stderr with the reason and skipped."""
    out = []
    for c in clusters:
        try:
            out.append(prepare(c))
        except DataError as e:
            named = str(e) if repr(c.id) in str(e) else f"cluster {c.id!r}: {e}"
            print(f"data error: {named}", file=sys.stderr)
    return out


def _bundles(clusters, resources: Resources, model_cfg, need_summary: bool = False) -> list:
    """``prepare_bundle`` of each cluster that ``_each_cluster`` keeps."""
    return _each_cluster(clusters, lambda c: prepare_bundle(c, resources, model_cfg, need_summary))


# --- commands ------------------------------------------------------------

def _prepare_training(cfg: RunConfig):
    """The vocabulary and resources of the clusters of ``--data`` that have
    summaries, and the training and dev bundles (the dev set is ``--dev``, or
    the training set). A dev cluster is prepared as ``summarize`` prepares
    one, plus its reference. The bundles read no compression ratio, so they
    serve every k. Any bad cluster stops the run with every bad one named.
    Returns (resources, training bundles, dev bundles)."""
    train_set = _with_summaries(cfg.data, "train on")
    dev_set = _with_summaries(cfg.dev, "score") if cfg.dev else []
    resources = cfg.resources(build_vocab(train_set, min_freq=cfg.min_freq))
    model_cfg = cfg.model_config()
    train_bundles = _bundles(train_set, resources, model_cfg, need_summary=True)
    dev_bundles = _bundles(dev_set, resources, model_cfg)
    n_bad = len(train_set) + len(dev_set) - len(train_bundles) - len(dev_bundles)
    if n_bad:
        raise DataError(f"{n_bad} cluster(s) could not be prepared; nothing was trained")
    return resources, train_bundles, dev_bundles or train_bundles


def _train_model(cfg: RunConfig, resources: Resources, train_bundles, dev_bundles):
    """``fit`` of a fresh model of ``cfg`` on prepared bundles."""
    model_cfg = cfg.model_config()
    params = model_cfg.build_params(len(resources.vocab), cfg.seed)
    return fit(train_bundles, dev_bundles, params, model_cfg, cfg.train_config(), resources)


def cmd_train(cfg: RunConfig) -> int:
    if not cfg.data or not cfg.out:
        raise ConfigError("train requires --data and --out")
    out_dir = Path(cfg.out)
    resources, train_bundles, dev_bundles = _prepare_training(cfg)
    result = _train_model(cfg, resources, train_bundles, dev_bundles)

    _write_text(out_dir / "config.json",
                json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True))
    result.params.save(out_dir / "checkpoint.npz")
    resources.vocab.save(out_dir / "vocab.json")
    _write_jsonl(out_dir / "metrics.jsonl", result.log)
    if any(rec["kind"] == "dev" for rec in result.log):
        selected = f"best dev R-L {result.best_dev_rl:.4f}"
    else:
        selected = "no dev evaluation ran, so the last parameters were kept"
    print(f"trained {result.steps} steps; {selected}; artifacts in {out_dir}")
    return 0


def _load_model(cfg: RunConfig, model_dir: str):
    mdir = Path(model_dir)
    vocab = Vocab.load(mdir / "vocab.json")
    model_cfg = cfg.model_config()
    params = model_cfg.build_params(len(vocab), cfg.seed)
    params.load_data_from(mdir / "checkpoint.npz")
    return vocab, model_cfg, params


def cmd_summarize(cfg: RunConfig, model_dir: str) -> int:
    if not cfg.data or not cfg.out:
        raise ConfigError("summarize requires --data and --out")
    vocab, model_cfg, params = _load_model(cfg, model_dir)
    resources = cfg.resources(vocab)
    clusters = load_clusters(cfg.data)
    bundles = _bundles(clusters, resources, model_cfg)
    records = []
    for bundle in bundles:
        tokens = summarize_bundle(bundle, params, model_cfg, vocab,
                                  beam_width=cfg.beam_width)
        records.append({"id": bundle.id, "summary": " ".join(tokens)})
    _write_jsonl(cfg.out, records)
    print(f"wrote {len(records)} summaries to {cfg.out}")
    return 2 if len(bundles) < len(clusters) else 0


def cmd_eval(cfg: RunConfig, generated_path: str, references_path: str) -> int:
    generated = _read_summaries(generated_path)
    references = _read_summaries(references_path)
    if not references:
        raise DataError(f"{references_path}: no summaries to score")
    report = rouge.corpus_rouge(generated, references)
    print(f"R-1 {100 * report['r1']:.2f}  R-2 {100 * report['r2']:.2f}  "
          f"R-L {100 * report['rl']:.2f}  len {report['mean_length']:.1f}  "
          f"n {report['count']}")
    if cfg.out:
        _write_text(cfg.out, json.dumps(report, indent=2))
    return 0


def cmd_ksweep(cfg: RunConfig, k_values: list[float], model_dir: str | None) -> int:
    if len(k_values) < 2:
        raise ConfigError(f"ksweep needs at least 2 k values, got {k_values}")
    if not cfg.data:
        raise ConfigError("ksweep requires --data")
    k_cfgs = [dataclasses.replace(cfg, k=k) for k in k_values]
    for k_cfg in k_cfgs:  # a bad k stops the sweep before any model work
        k_cfg.model_config()
    n_failed = 0
    if model_dir:  # one model, its clusters and graphs, re-compressed at each k
        clusters = _with_summaries(cfg.data, "score")
        vocab, model_cfg, params = _load_model(cfg, model_dir)
        resources = cfg.resources(vocab)
        bundles = _bundles(clusters, resources, model_cfg)
        n_failed = len(clusters) - len(bundles)
    else:  # one model per k, trained as `dgsum train` trains it, on one preparation
        resources, bundles, dev_bundles = _prepare_training(cfg)
    rows = []
    for k_cfg in k_cfgs:
        if not model_dir:
            params = _train_model(k_cfg, resources, bundles, dev_bundles).params
        scores = score_summaries(bundles, params, k_cfg.model_config(), resources.vocab,
                                 cfg.beam_width)
        rows.append({"k": k_cfg.k, "mean_length": scores["mean_length"], "r1": scores["r1"],
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
        _write_jsonl(cfg.out, rows)
    return 2 if n_failed else 0


def _plain_file_name(cid: str) -> bool:
    """Whether ``<cid>.json`` is one file name: no path, no NUL byte, at
    most 255 bytes of UTF-8."""
    try:
        size = len(f"{cid}.json".encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate
        return False
    return cid not in ("", ".", "..") and Path(cid).name == cid and "\0" not in cid and size <= 255


def cmd_graph(cfg: RunConfig) -> int:
    if not cfg.data or not cfg.out:
        raise ConfigError("graph requires --data and --out")
    resources = cfg.resources(Vocab([]))  # graph building reads no vocabulary
    clusters = load_clusters(cfg.data)
    for cluster in clusters:  # ids become file names under --out
        if not _plain_file_name(cluster.id):
            raise DataError(f"cluster id {cluster.id!r} is not a plain file name")
    out_dir = Path(cfg.out)

    def export(cluster) -> list[str]:
        g = build_hetero_graph(cluster, resources.table, resources.embedder,
                               resources.graph_cfg)
        _write_text(out_dir / f"{cluster.id}.dot", g.to_dot(cluster.id))
        _write_text(out_dir / f"{cluster.id}.json", g.to_json())
        return [f"{cluster.id}: {v}" for v in validate_graph(g).violations]

    reports = _each_cluster(clusters, export)
    total_violations = [v for report in reports for v in report]
    _write_text(out_dir / "validation.txt", "".join(f"{v}\n" for v in total_violations))
    print(f"exported {len(reports)} graphs to {out_dir}; "
          f"{len(total_violations)} validation violations")
    return 2 if total_violations or len(reports) < len(clusters) else 0


# --- argument parsing -------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# the one switch not spelled after its field
_FLAG_NAMES = {"mgat_residual": "residual"}


def _add_common(p: argparse.ArgumentParser) -> None:
    """``--config`` and one flag per ``RunConfig`` field: ``--`` plus the
    field name with dashes, typed by the field's annotation. A bool field is a
    switch to the opposite of its default, ``--no-<name>`` when that is True."""
    p.add_argument("--config", default=None)
    for f in dataclasses.fields(RunConfig):
        flag = _FLAG_NAMES.get(f.name, f.name).replace("_", "-")
        base = _TYPES[f.name][0]
        if base is bool:
            p.add_argument(f"--no-{flag}" if f.default else f"--{flag}", action="store_const",
                           const=not f.default, default=None, dest=f.name)
        else:
            p.add_argument(f"--{flag}", type=base, default=None, dest=f.name)


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
        flags = {k: v for k, v in vars(args).items() if k in _TYPES}
        cfg = resolve_config(args.config, flags, getattr(args, "model", None))
        _check_out(cfg.out, want_dir=args.command in ("train", "graph"))
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "summarize":
            return cmd_summarize(cfg, args.model)
        if args.command == "eval":
            return cmd_eval(cfg, args.generated, args.references)
        if args.command == "ksweep":
            try:
                k_values = [float(x) for x in args.k_values.split(",") if x.strip()]
            except ValueError:
                raise ConfigError(f"bad --k-values {args.k_values!r}")
            return cmd_ksweep(cfg, k_values, args.model)
        return cmd_graph(cfg)  # the parser admits no other command
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (NumericError, ShapeError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"numeric error: out of memory: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # writing an output
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DgsumError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
