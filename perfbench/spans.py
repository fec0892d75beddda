"""Tracing for the benchmark's traced run.

Wrappers go on the attributes where ``dgsum`` looks its callees up (module
globals imported by name, package attributes, class methods) and are removed
again after each traced operation, so untraced operations run the program
unchanged. Layer calls become spans (name, start, end, parent span,
operation id), kept in memory and written out when the run ends.
High-count calls (``cosine``, numeric primitives, decoder steps) only add to
per-operation counters: calls, seconds and output bytes. Their counts are
exact; their times include the wrapper's own cost.

Memory peaks come from ``tracemalloc``: each span with ``peak=True``
records the highest traced allocation above its starting level.
"""

from __future__ import annotations

import json
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

MB = 1e6

# Spans that do a stage of work; orchestration spans (train_step,
# prepare_bundle, summarize_bundle) only group them. span_coverage is the
# share of an operation's time covered by outermost stage spans.
STAGES = frozenset({
    "corpus.serialize", "hetgraph.build", "hetgraph.validate", "hetgraph.export",
    "text_model.encode", "text_model.teacher_forced", "text_model.beam_search",
    "mgat.encode", "compressor.compress", "numeric.backward", "numeric.adam",
})

# numeric primitives that carry the time of the models' forward passes
PRIMS = ("matmul", "softmax", "add", "mul", "layer_norm", "gather_rows", "concat",
         "slice_axis", "transpose", "masked_fill", "leaky_relu", "elu")


@dataclass
class Count:
    """What the counted calls of one name did in one scope."""
    calls: int = 0
    seconds: float = 0.0
    out_bytes: float = 0.0
    flops: float = 0.0


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: str
    end: float = 0.0
    peak_mb: float | None = None
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self.counters: dict[str, Count] = defaultdict(Count)
        self._open: list[int] = []
        self._mem: list[list[float]] = []   # per open span: [start level, peak]

    def begin(self, name: str, peak: bool = False) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, parent, self.op))
        idx = len(self.spans) - 1
        self._open.append(idx)
        if tracemalloc.is_tracing():
            self._fold_peak()
            self._mem.append([tracemalloc.get_traced_memory()[0], -1.0 if not peak else 0.0])
        self.spans[idx].start = perf_counter()
        return idx

    def end(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = perf_counter()
        self._open.pop()
        if tracemalloc.is_tracing():
            self._fold_peak()
            start, peak = self._mem.pop()
            if peak >= 0:
                span.peak_mb = max(peak - start, 0.0) / MB
        return span

    def _fold_peak(self) -> None:
        """Fold the peak since the last reset into every open span."""
        peak = tracemalloc.get_traced_memory()[1]
        for rec in self._mem:
            if rec[1] >= 0:
                rec[1] = max(rec[1], peak)
        tracemalloc.reset_peak()

    def count(self, name: str, seconds: float, out_bytes: float = 0.0,
              flops: float = 0.0) -> None:
        c = self.counters[name]
        c.calls += 1
        c.seconds += seconds
        c.out_bytes += out_bytes
        c.flops += flops

    def take_counters(self) -> dict[str, Count]:
        out = dict(self.counters)
        self.counters = defaultdict(Count)
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "op": s.op, "parent": s.parent,
                                     "start": s.start, "end": s.end, "peak_mb": s.peak_mb,
                                     "info": s.info}) + "\n")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _spanned(tracer: Tracer, name: str, fn, peak: bool = False, after=None):
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name, peak)
        try:
            out = fn(*args, **kwargs)
        finally:
            span = tracer.end(idx)
        if after is not None:
            after(span, args, out)
        return out
    return wrapper


def _counted(tracer: Tracer, name: str, fn, flops=None):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        data = getattr(out, "data", None)
        tracer.count(name, dt, getattr(data, "nbytes", 0.0),
                     flops(args, out) if flops is not None else 0.0)
        return out
    return wrapper


def _matmul_flops(args, out) -> float:
    return 2.0 * out.data.size * args[0].shape[-1]


def install(tracer: Tracer, dg) -> Patches:
    """Wrap the calls into each ``dgsum`` layer; ``dg`` is the imported
    package. Returns the patches, to be undone after the traced operation."""
    p = Patches()
    training, hetgraph, text_model = dg.training, dg.hetgraph, dg.text_model
    nm = dg.numeric

    def graph_shape(span, args, g):
        span.info["nodes"] = g.n_nodes
        span.info["edges"] = {t: len(e) for t, e in g.edges.items()}

    def kept(span, args, out):
        span.info["kept"] = len(out[3])
        span.info["nodes"] = args[0].shape[0]

    build = _spanned(tracer, "hetgraph.build", hetgraph.build_hetero_graph, True, graph_shape)
    validate = _spanned(tracer, "hetgraph.validate", hetgraph.validate_graph)
    p.set(hetgraph, "build_hetero_graph", build)
    p.set(hetgraph, "validate_graph", validate)
    p.set(training, "build_hetero_graph", build)
    p.set(hetgraph.HeteroGraph, "to_dot",
          _spanned(tracer, "hetgraph.export", hetgraph.HeteroGraph.to_dot))
    p.set(hetgraph.HeteroGraph, "to_json",
          _spanned(tracer, "hetgraph.export", hetgraph.HeteroGraph.to_json))
    p.set(hetgraph, "cosine", _counted(tracer, "embeddings.cosine", hetgraph.cosine))
    p.set(dg.rouge, "rouge_avg_f1",
          _counted(tracer, "rouge.avg_f1", dg.rouge.rouge_avg_f1))
    emb = dg.embeddings
    p.set(emb.MeanWordEmbedder, "embed",
          _counted(tracer, "embeddings.embed", emb.MeanWordEmbedder.embed))
    p.set(emb.EmbeddingTable, "load",
          staticmethod(_spanned(tracer, "embeddings.load", emb.EmbeddingTable.load)))

    p.set(training, "prepare_bundle",
          _spanned(tracer, "training.prepare_bundle", training.prepare_bundle))
    p.set(training, "train_step",
          _spanned(tracer, "training.train_step", training.train_step))
    p.set(training, "summarize_bundle",
          _spanned(tracer, "training.summarize_bundle", training.summarize_bundle))
    p.set(training, "serialize_encoder_input",
          _spanned(tracer, "corpus.serialize", training.serialize_encoder_input))
    p.set(training, "encode_text",
          _spanned(tracer, "text_model.encode", training.encode_text, True))
    p.set(training, "decode_teacher_forced",
          _spanned(tracer, "text_model.teacher_forced", training.decode_teacher_forced))
    p.set(training, "mgat_encode", _spanned(tracer, "mgat.encode", training.mgat_encode, True))
    p.set(training, "compress_graph",
          _spanned(tracer, "compressor.compress", training.compress_graph, after=kept))

    beam_search = text_model.beam_search

    def traced_beam(step_logprobs, *args, **kwargs):
        steps: list[float] = []

        def step(prefix):
            t0 = perf_counter()
            out = step_logprobs(prefix)
            dt = perf_counter() - t0
            steps.append(dt)
            tracer.count("text_model.decode_step", dt)
            return out

        idx = tracer.begin("text_model.beam_search")
        try:
            ids = beam_search(step, *args, **kwargs)
        finally:
            span = tracer.end(idx)
        span.info["steps"] = steps
        span.info["tokens"] = len(ids)
        return ids

    p.set(text_model, "beam_search", traced_beam)

    for prim in PRIMS:
        p.set(nm, prim, _counted(tracer, f"numeric.{prim}", getattr(nm, prim),
                                 _matmul_flops if prim == "matmul" else None))
    # nm.embedding is gather_rows under another name
    p.set(nm, "embedding", _counted(tracer, "numeric.gather_rows", dg.numeric.tensor.gather_rows))
    p.set(nm.Tensor, "backward",
          _spanned(tracer, "numeric.backward", nm.Tensor.backward, True))
    p.set(nm.Adam, "step", _spanned(tracer, "numeric.adam", nm.Adam.step))
    return p
