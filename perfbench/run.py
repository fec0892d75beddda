"""dgsum benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Builds a seeded synthetic corpus under ``perfbench/.work``, sets up the
workload the way the matching CLI command does, then runs operations back to
back for ``--seconds`` (after one warm-up operation) and checks every output.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
rotates untraced, span-traced and memory-traced operations and reports
per-layer metrics from the spans (written to ``perfbench/.out``). The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--write-digest`` stores the outputs of the first operations on the default
seed as the reference later runs are compared with.

dgsum is imported from ``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: on a 2-vCPU machine two threads
# made a train step no faster at these matrix sizes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import spans as sp  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
SETUP_REPEATS = 5      # setup_s is the median of these
MIN_OPS = 11           # the tail needs 10 samples beyond it

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_ms_p50", "ms"),
              ("op_ms_tail", "ms"), ("items_per_s", "1/s"))


PER_LAYER = (
    ("corpus.serialize_ms", "ms"), ("corpus.serialize_calls", "count"),
    ("embeddings.load_ms", "ms"), ("embeddings.cosine_calls", "count"),
    ("embeddings.cosine_ms", "ms"), ("embeddings.embed_calls", "count"),
    ("embeddings.embed_ms", "ms"),
    ("rouge.avg_f1_calls", "count"), ("rouge.avg_f1_ms", "ms"),
    ("hetgraph.build_ms", "ms"), ("hetgraph.build_calls", "count"),
    ("hetgraph.build_peak_mb", "MB"), ("hetgraph.validate_ms", "ms"),
    ("hetgraph.export_ms", "ms"), ("hetgraph.nodes", "count"),
    *((f"hetgraph.edges.{t}", "count") for t in ("WE", "WO", "SS", "DD", "DS", "SW")),
    ("hetgraph.we_keep_ratio", "ratio"),
    ("numeric.backward_ms", "ms"), ("numeric.backward_peak_mb", "MB"),
    ("numeric.adam_ms", "ms"), ("numeric.matmul_gflop", "GFLOP"),
    *((f"numeric.{prim}.{m}", unit) for prim in sp.PRIMS
      for m, unit in (("calls", "count"), ("ms", "ms"), ("out_mb", "MB"))),
    ("text_model.encode_ms", "ms"), ("text_model.encode_calls", "count"),
    ("text_model.encode_peak_mb", "MB"), ("text_model.teacher_forced_ms", "ms"),
    ("text_model.decode_step_calls", "count"), ("text_model.decode_step_ms", "ms"),
    ("text_model.step_ms_early", "ms"), ("text_model.step_ms_late", "ms"),
    ("text_model.beam_overhead_ms", "ms"), ("text_model.tokens_emitted", "count"),
    ("mgat.encode_ms", "ms"), ("mgat.encode_calls", "count"), ("mgat.peak_mb", "MB"),
    ("compressor.compress_ms", "ms"), ("compressor.kept_ratio", "ratio"),
    ("training.prepare_bundle_ms", "ms"), ("training.train_step_ms", "ms"),
    ("training.span_coverage", "ratio"), ("training.trace_overhead", "ratio"),
)


def import_dgsum(root: Path):
    """Import the package from ``root/src`` only; fail if it is not there."""
    src = (root / "src").resolve()
    if not (src / "dgsum" / "__init__.py").is_file():
        raise SystemExit(f"benchmark error: no dgsum sources under {src}")
    sys.path.insert(0, str(src))
    import dgsum
    if Path(dgsum.__file__).resolve().parent != src / "dgsum":
        raise SystemExit(f"benchmark error: dgsum imported from {dgsum.__file__}, not {src}")
    return dgsum


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with at least 10
    samples beyond it (the maximum if there are fewer than 11 samples)."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


PLAIN, SPANS, MEMORY = "plain", "spans", "memory"


class Runner:
    """Set-up and the closed loop of operations for one workload.

    A traced run cycles through three modes: untraced operations, operations
    with spans (per-layer times and counts) and operations with spans plus
    ``tracemalloc`` (per-stage memory peaks only, since tracing every
    allocation slows Python-heavy code several times over)."""

    def __init__(self, dg, workload, seed: int, seconds: float, trace: bool):
        self.dg = dg
        self.make = workloads.WORKLOADS[workload]
        self.wl = self.make(dg)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = sp.Tracer() if trace else None
        self.modes: dict[str, str] = {}          # scope id -> mode
        self.counters: dict[str, dict] = {}      # scope id -> counters
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[dict] = []
        self.stored: list[dict] = []
        self.compared = 0
        self.units = 0

    # -- set-up -------------------------------------------------------------
    def setup(self, work: Path) -> list[float]:
        times = []
        for r in range(SETUP_REPEATS):
            self.wl = self.make(self.dg)  # the previous set-up's state is freed
            gc.collect()
            scope = f"setup{r}"
            if self.trace:
                self._start_trace(scope, MEMORY if r % 2 else SPANS)
            t0 = perf_counter()
            files = gen.write_corpus(work / scope, self.wl.spec, self.seed,
                                     self.dg.hetgraph.STOPWORDS)
            self.wl.setup(files)
            times.append(perf_counter() - t0)
            if self.trace:
                self._stop_trace(scope)
            self.corpus = files["stats"]
        return times

    def _start_trace(self, scope: str, mode: str) -> None:
        self.modes[scope] = mode
        self.tracer.op = scope
        self.patches = sp.install(self.tracer, self.dg)
        if mode == MEMORY:
            tracemalloc.start()

    def _stop_trace(self, scope: str) -> None:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        self.patches.undo()
        self.counters[scope] = self.tracer.take_counters()

    # -- operations -----------------------------------------------------------
    def one(self, i: int, mode: str) -> float:
        """Run operation i; return its wall time in seconds."""
        self.attempted += 1
        out, problems = None, []
        scope = f"op{i}"
        if mode != PLAIN:
            self._start_trace(scope, mode)
            idx = self.tracer.begin("op")
        t0 = perf_counter()
        try:
            out = self.wl.run(i)
        except Exception as e:  # a failed operation is counted, the run goes on
            problems = [f"raised {type(e).__name__}: {e}"]
            self.errors.append(traceback.format_exc())
        dt = perf_counter() - t0
        if mode != PLAIN:
            self.tracer.end(idx)
            self._stop_trace(scope)
        if out is not None:
            outcome = self.wl.inspect(i, out)
            self.units += outcome.units
            problems = outcome.problems
            if i < len(self.stored):
                self.compared += 1
                problems = problems + checks.compare(self.stored[i], outcome.digest, "digest")
            if i < self.wl.digest_ops:
                self.digests.append(outcome.digest)
        if problems:
            self.failed += 1
            self.errors.append(f"op {i}: " + "; ".join(problems[:5]))
        return dt

    def measure(self) -> dict[str, list[float]]:
        """Warm up with one operation, then run back to back until the time
        is up. A traced run rotates the three modes so that every cluster is
        seen in each."""
        self.one(0, PLAIN)
        self.units = 0
        times: dict[str, list[float]] = {PLAIN: [], SPANS: [], MEMORY: []}
        modes = (PLAIN, SPANS, MEMORY) if self.trace else (PLAIN,)
        pool = self.wl.pool()
        start = perf_counter()
        i = 1
        while True:
            elapsed = perf_counter() - start
            if elapsed >= self.seconds and (i > MIN_OPS or elapsed >= 4 * self.seconds):
                break
            mode = modes[(i + i // pool) % len(modes)]
            times[mode].append(self.one(i, mode))
            i += 1
        return times


def layer_values(spans, counters: dict, op_ms: float | None, all_spans) -> dict[str, float]:
    """Per-layer values of one scope (one set-up or one traced operation);
    only metrics with evidence in the scope appear."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    v: dict[str, float] = {}

    def ms(name):
        return sum(s.ms for s in by[name])

    def peak(name):
        return max((s.peak_mb or 0.0) for s in by[name])

    def count(cname, prefix, sep="_"):
        c = counters.get(cname)
        if c:
            v[f"{prefix}{sep}calls"] = c.calls
            v[f"{prefix}{sep}ms"] = c.seconds * 1e3
        return c

    if by["corpus.serialize"]:
        v["corpus.serialize_ms"] = ms("corpus.serialize")
        v["corpus.serialize_calls"] = len(by["corpus.serialize"])
    if by["embeddings.load"]:
        v["embeddings.load_ms"] = ms("embeddings.load")
    cos = count("embeddings.cosine", "embeddings.cosine")
    count("embeddings.embed", "embeddings.embed")
    count("rouge.avg_f1", "rouge.avg_f1")
    if by["hetgraph.build"]:
        builds = by["hetgraph.build"]
        v["hetgraph.build_ms"] = ms("hetgraph.build")
        v["hetgraph.build_calls"] = len(builds)
        v["hetgraph.build_peak_mb"] = peak("hetgraph.build")
        v["hetgraph.nodes"] = sum(s.info["nodes"] for s in builds)
        for t in ("WE", "WO", "SS", "DD", "DS", "SW"):
            v[f"hetgraph.edges.{t}"] = sum(s.info["edges"][t] for s in builds)
        if cos:
            v["hetgraph.we_keep_ratio"] = v["hetgraph.edges.WE"] / cos.calls
    if by["hetgraph.validate"]:
        v["hetgraph.validate_ms"] = ms("hetgraph.validate")
    if by["hetgraph.export"]:
        v["hetgraph.export_ms"] = ms("hetgraph.export")
    if by["numeric.backward"]:
        v["numeric.backward_ms"] = ms("numeric.backward")
        v["numeric.backward_peak_mb"] = peak("numeric.backward")
    if by["numeric.adam"]:
        v["numeric.adam_ms"] = ms("numeric.adam")
    for prim in sp.PRIMS:
        c = count(f"numeric.{prim}", f"numeric.{prim}", ".")
        if c:
            v[f"numeric.{prim}.out_mb"] = c.out_bytes / sp.MB
            if prim == "matmul":
                v["numeric.matmul_gflop"] = c.flops / 1e9
    if by["text_model.encode"]:
        v["text_model.encode_ms"] = ms("text_model.encode")
        v["text_model.encode_calls"] = len(by["text_model.encode"])
        v["text_model.encode_peak_mb"] = peak("text_model.encode")
    if by["text_model.teacher_forced"]:
        v["text_model.teacher_forced_ms"] = ms("text_model.teacher_forced")
    steps = count("text_model.decode_step", "text_model.decode_step")
    if by["text_model.beam_search"] and steps:
        beams = by["text_model.beam_search"]
        early, late = [], []
        for b in beams:
            st = b.info["steps"]
            q = max(len(st) // 4, 1)
            early.append(statistics.median(st[:q]) * 1e3)
            late.append(statistics.median(st[-q:]) * 1e3)
        v["text_model.step_ms_early"] = statistics.fmean(early)
        v["text_model.step_ms_late"] = statistics.fmean(late)
        v["text_model.beam_overhead_ms"] = ms("text_model.beam_search") - steps.seconds * 1e3
        v["text_model.tokens_emitted"] = sum(b.info["tokens"] for b in beams)
    if by["mgat.encode"]:
        v["mgat.encode_ms"] = ms("mgat.encode")
        v["mgat.encode_calls"] = len(by["mgat.encode"])
        v["mgat.peak_mb"] = peak("mgat.encode")
    if by["compressor.compress"]:
        comp = by["compressor.compress"]
        v["compressor.compress_ms"] = ms("compressor.compress")
        v["compressor.kept_ratio"] = (sum(s.info["kept"] for s in comp)
                                      / sum(s.info["nodes"] for s in comp))
    if by["training.prepare_bundle"]:
        v["training.prepare_bundle_ms"] = ms("training.prepare_bundle")
    if by["training.train_step"]:
        v["training.train_step_ms"] = ms("training.train_step")
    if op_ms:
        v["training.span_coverage"] = stage_ms(spans, all_spans) / op_ms
    return v


def stage_ms(spans, all_spans) -> float:
    """Time covered by outermost stage spans; orchestration spans such as
    train_step are transparent. ``parent`` indexes ``all_spans``."""

    def nested(s) -> bool:
        p = s.parent
        while p is not None:
            if all_spans[p].name in sp.STAGES:
                return True
            p = all_spans[p].parent
        return False

    return sum(s.ms for s in spans if s.name in sp.STAGES and not nested(s))


def per_layer_metrics(runner: Runner, times: dict[str, list[float]]) -> dict[str, float]:
    """Median over traced operations of each metric they show, peaks from
    the memory-mode scopes and everything else from the span-mode scopes. A
    metric only set-up shows (graph build in ``train``, embedding load) is
    the median over the traced set-ups."""
    spans = runner.tracer.spans
    scopes = defaultdict(list)
    for s in spans:
        scopes[s.op].append(s)
    op_vals, setup_vals = defaultdict(list), defaultdict(list)
    for scope, members in scopes.items():
        root = next((s for s in members if s.name == "op"), None)
        vals = layer_values(members, runner.counters[scope], root and root.ms, spans)
        memory = runner.modes[scope] == MEMORY
        target = setup_vals if scope.startswith("setup") else op_vals
        for k, x in vals.items():
            if k.endswith("peak_mb") == memory:
                target[k].append(x)
    out = {}
    for name, _ in PER_LAYER:
        vals = op_vals.get(name) or setup_vals.get(name)
        out[name] = statistics.median_low(vals) if vals else 0.0
    if times[SPANS] and times[PLAIN]:
        out["training.trace_overhead"] = (statistics.median(times[SPANS])
                                          / statistics.median(times[PLAIN]))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digest", action="store_true",
                    help="store the first operations' outputs as the reference")
    args = ap.parse_args(argv)

    dg = import_dgsum(ROOT)
    runner = Runner(dg, args.workload, args.seed, args.seconds, bool(args.trace))
    digest_path = HERE / "digest" / f"{args.workload}.json"
    if args.write_digest and args.seed != DEFAULT_SEED:
        raise SystemExit(f"benchmark error: digests are stored for seed {DEFAULT_SEED} only")
    if args.seed == DEFAULT_SEED and not args.write_digest:
        runner.stored = json.loads(digest_path.read_text(encoding="utf-8"))["ops"]

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = runner.setup(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    times = runner.measure()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wl = runner.wl
    plain_ms = [t * 1e3 for t in times[PLAIN]]
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
          f"{wl.why}")
    print(f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {np.__version__}, BLAS threads {BLAS_THREADS}; closed loop, 1 client")
    print(f"corpus: {json.dumps(runner.corpus)}")
    for e in runner.errors[:3]:
        print(e.rstrip(), file=sys.stderr)
    if args.write_digest:
        if runner.failed:
            raise SystemExit("benchmark error: operations failed, digest not written")
        digest_path.parent.mkdir(exist_ok=True)
        digest_path.write_text(json.dumps({"seed": DEFAULT_SEED, "ops": runner.digests}) + "\n",
                               encoding="utf-8")
        print(f"digest: stored {len(runner.digests)} operations in {digest_path.name}")
    elif runner.stored:
        print(f"digest: compared {runner.compared} operations with {digest_path.name}")

    if args.trace:
        out_dir = HERE / ".out"
        out_dir.mkdir(exist_ok=True)
        runner.tracer.write(out_dir / f"trace-{wl.name}-{args.seed}.jsonl")
        values = per_layer_metrics(runner, times)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    else:
        value, pct = tail(plain_ms)
        values = {"setup_s": statistics.median(setup_times), "peak_rss_mb": rss_mb,
                  "op_ms_p50": statistics.median(plain_ms), "op_ms_tail": value,
                  "items_per_s": runner.units / sum(times[PLAIN])}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        p50, tail_name, rate = wl.aliases
        print(f"setup_s {values['setup_s']:.4f} s (median of {SETUP_REPEATS}: "
              + ", ".join(f"{t:.4f}" for t in setup_times) + ")")
        print(f"op_ms_p50 ({p50}) {values['op_ms_p50']:.3f} ms over {len(plain_ms)} operations")
        print(f"op_ms_tail ({tail_name}) {value:.3f} ms = p{pct:.1f}, "
              f"{len(plain_ms)} samples")
        print(f"items_per_s ({rate}) {values['items_per_s']:.3f} {wl.unit}/s")
        print(f"peak_rss_mb {rss_mb:.1f} MB")
    print(f"failed_frac {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4f}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
