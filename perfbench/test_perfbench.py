"""Tests of the benchmark's own code: corpus generator, output checks,
tracing wrappers and metric names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

dg = run.import_dgsum(HERE.parent)

SMALL = gen.CorpusSpec(n_clusters=2, docs=3, sents=(2, 3), words=(6, 10), summary_words=14,
                       lexicon=300)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def write(tmp_path: Path, seed: int, sub: str, spec=SMALL) -> dict:
    return gen.write_corpus(tmp_path / sub, spec, seed, dg.hetgraph.STOPWORDS)


def test_generator_is_byte_identical_for_one_seed(tmp_path):
    a, b = write(tmp_path, 7, "a"), write(tmp_path, 7, "b")
    for key in ("data", "embeddings"):
        assert Path(a[key]).read_bytes() == Path(b[key]).read_bytes()
    assert a["stats"] == b["stats"]


def test_generator_differs_for_another_seed(tmp_path):
    a, b = write(tmp_path, 7, "a"), write(tmp_path, 8, "b")
    for key in ("data", "embeddings"):
        assert Path(a[key]).read_bytes() != Path(b[key]).read_bytes()


def test_generator_keeps_sizes_across_seeds(tmp_path):
    a, b = write(tmp_path, 1, "a"), write(tmp_path, 2, "b")
    for key in ("clusters", "src_tokens_per_cluster", "summary_tokens_per_cluster"):
        assert a["stats"][key] == b["stats"][key]
    assert 0.4 < a["stats"]["noun_density"] < 0.65


def test_generated_files_load_and_give_we_edges(tmp_path):
    files = write(tmp_path, 3, "c")
    clusters = dg.corpus.load_clusters(files["data"])
    table = dg.embeddings.EmbeddingTable.load(files["embeddings"], gen.DIM)
    assert len(clusters) == SMALL.n_clusters and all(c.summary for c in clusters)
    stats = files["stats"]
    n_tokens = sum(len(s) for d in clusters[0].documents for s in d.sentences)
    assert [n_tokens, n_tokens] == stats["src_tokens_per_cluster"]
    g = dg.hetgraph.build_hetero_graph(clusters[0], table)
    assert g.edges["WE"]
    assert dg.hetgraph.validate_graph(g).ok


def test_check_flags_a_perturbed_loss():
    losses = {"l_ce": 6.25, "l_gs": -0.8, "total": 2.725}
    assert checks.compare(losses, dict(losses)) == []
    assert checks.compare(losses, {**losses, "l_ce": 6.25 * (1 + 1e-12)}) == []
    assert checks.compare(losses, {**losses, "l_ce": 6.25 * (1 + 1e-7)})
    assert checks.loss_problems({**losses, "total": math.nan})


def test_check_flags_a_perturbed_token():
    out = {"ids": [7, 9, 11], "nodes": 40}
    assert checks.compare(out, {"ids": [7, 9, 11], "nodes": 40}) == []
    assert checks.compare(out, {"ids": [7, 9, 12], "nodes": 40})
    assert checks.compare(out, {"ids": [7, 9], "nodes": 40})
    assert checks.token_problems([7, 50], vocab_size=50, budget=4)
    assert checks.token_problems([7, 8, 9], vocab_size=50, budget=2)
    assert checks.token_problems([7, 8], vocab_size=50, budget=2) == []


def test_check_flags_a_perturbed_edge(tmp_path):
    files = write(tmp_path, 4, "d")
    cluster = dg.corpus.load_clusters(files["data"])[0]
    table = dg.embeddings.EmbeddingTable.load(files["embeddings"], gen.DIM)
    g = dg.hetgraph.build_hetero_graph(cluster, table)
    ref = json.loads(json.dumps(checks.graph_digest(g)))  # as stored on disk
    assert checks.compare(ref, checks.graph_digest(g)) == []

    def variant(etype, edit):
        edges = {t: list(e) for t, e in g.edges.items()}
        edges[etype] = edit(edges[etype])
        return checks.graph_digest(dg.hetgraph.HeteroGraph(g.nodes, edges))

    nudged = variant("SS", lambda e: [(e[0][0], e[0][1], e[0][2] * (1 + 1e-7))] + e[1:])
    assert checks.compare(ref, nudged)
    tiny = variant("SS", lambda e: [(e[0][0], e[0][1], e[0][2] * (1 + 1e-13))] + e[1:])
    assert checks.compare(ref, tiny) == []
    assert checks.compare(ref, variant("WE", lambda e: e[1:]))
    moved = variant("WO", lambda e: [(e[0][0], e[0][1] + 1, e[0][2])] + e[1:])
    assert checks.compare(ref, moved)


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail([float(x) for x in range(1, 51)])
    assert value == 40.0 and pct == 80.0
    assert sum(1 for x in range(1, 51) if x > value) == 10


def test_wrappers_are_removed_after_a_traced_operation():
    watched = [(dg.training, "train_step"), (dg.hetgraph, "cosine"), (dg.numeric, "matmul"),
               (dg.text_model, "beam_search"), (dg.numeric.Tensor, "backward")]
    before = [vars(o)[a] if isinstance(o, type) else getattr(o, a) for o, a in watched]
    patches = spans.install(spans.Tracer(), dg)
    assert dg.hetgraph.cosine is not before[1]
    patches.undo()
    after = [vars(o)[a] if isinstance(o, type) else getattr(o, a) for o, a in watched]
    assert all(x is y for x, y in zip(before, after))
    assert isinstance(vars(dg.embeddings.EmbeddingTable)["load"], classmethod)


def test_metric_names_and_counts_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == list(run.PER_LAYER)
    assert len(e2e) <= 16 and len(layers) <= 128
    names = [n for n, _ in e2e + layers]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_stored_digest_covers_the_first_operations(name):
    stored = json.loads((HERE / "digest" / f"{name}.json").read_text())
    assert stored["seed"] == run.DEFAULT_SEED
    assert len(stored["ops"]) == workloads.WORKLOADS[name].digest_ops

