"""Top-k sentence selection, closure, soft masking, and differentiability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgsum.numeric as nm
from dgsum.compressor import (CompressorConfig, compress, compress_graph,
                              extend_selection, node_scores,
                              select_topk_sentences)
from dgsum.embeddings import MeanWordEmbedder
from dgsum.errors import ConfigError, DataError
from dgsum.hetgraph import EDGE_TYPES, GraphConfig, HeteroGraph, NodeId, build_hetero_graph
from dgsum.numeric import ParamStore, Tensor
from conftest import cluster_from_texts
from oracles import extend_selection_oracle

RNG = np.random.default_rng(55)


def graph_for(table_for, texts=("storm hits coast. waves flood town. rescue starts now.",
                                "storm nears coast. people leave early.")):
    cluster = cluster_from_texts("c", list(texts))
    table = table_for([cluster])
    return build_hetero_graph(cluster, table, MeanWordEmbedder(table), GraphConfig())


def doc_only_graph():
    nodes = [NodeId(kind="document", index=0, doc=0, token_position=0)]
    return HeteroGraph(nodes, {t: [] for t in EDGE_TYPES})


class TestNodeScores:
    def test_sums_to_one(self, table_for):
        g = graph_for(table_for)
        q = Tensor(RNG.normal(size=(g.n_nodes, 6)))
        r = Tensor(RNG.normal(size=6))
        t = node_scores(q, r)
        assert abs(t.data.sum() - 1.0) < 1e-7

    def test_zero_r_uniform(self, table_for):
        g = graph_for(table_for)
        q = Tensor(RNG.normal(size=(g.n_nodes, 6)))
        t = node_scores(q, Tensor(np.zeros(6)))
        assert np.allclose(t.data, 1.0 / g.n_nodes, atol=1e-12)

    def test_matches_direct_softmax(self, table_for):
        g = graph_for(table_for)
        q = RNG.normal(size=(g.n_nodes, 6))
        r = RNG.normal(size=6)
        t = node_scores(Tensor(q), Tensor(r))
        raw = q @ r
        e = np.exp(raw - raw.max())
        assert np.allclose(t.data, e / e.sum(), atol=1e-12)

    def test_shape_mismatch(self, table_for):
        g = graph_for(table_for)
        with pytest.raises(Exception):
            node_scores(Tensor(RNG.normal(size=(g.n_nodes, 6))),
                        Tensor(RNG.normal(size=5)))


class TestSelectTopK:
    def test_k_one_keeps_all(self, table_for):
        g = graph_for(table_for)
        t = RNG.random(g.n_nodes)
        sel = select_topk_sentences(t, 1.0, g)
        assert np.array_equal(sel, g.kind_indices("sentence"))

    def test_ceil_counts(self, table_for):
        g = graph_for(table_for)  # 5 sentences
        assert len(g.kind_indices("sentence")) == 5
        t = RNG.random(g.n_nodes)
        for k, expected in ((0.5, 3), (0.2, 1), (0.6, 3), (0.8, 4), (1.0, 5)):
            assert len(select_topk_sentences(t, k, g)) == expected

    def test_highest_scores_kept(self, table_for):
        g = graph_for(table_for)
        sent = g.kind_indices("sentence")
        t = np.zeros(g.n_nodes)
        t[sent] = [0.1, 0.9, 0.3, 0.8, 0.2]
        sel = select_topk_sentences(t, 0.4, g)  # ceil(2) = 2 best
        assert set(sel) == {sent[1], sent[3]}

    def test_equal_scores_lowest_index(self, table_for):
        g = graph_for(table_for)
        t = np.full(g.n_nodes, 0.5)
        sel = select_topk_sentences(t, 0.5, g)
        assert np.array_equal(sel, g.kind_indices("sentence")[:3])

    def test_zero_sentence_graph_error(self):
        with pytest.raises(DataError):
            select_topk_sentences(np.ones(1), 0.5, doc_only_graph())

    def test_invalid_k(self, table_for):
        g = graph_for(table_for)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                select_topk_sentences(np.ones(g.n_nodes), bad, g)


class TestExtend:
    def test_all_sentences_totals_all_nodes(self, table_for):
        g = graph_for(table_for)
        sel = extend_selection(g.kind_indices("sentence"), g)
        assert np.array_equal(sel, np.arange(g.n_nodes))

    def test_one_sentence_enumeration(self, table_for):
        cluster = cluster_from_texts("one", ["went there again"])
        table = table_for([cluster])
        g = build_hetero_graph(cluster, table, MeanWordEmbedder(table), GraphConfig())
        sent = g.kind_indices("sentence")
        sel = extend_selection(sent, g)
        assert len(sel) == 5  # 1 sentence + 3 words + 1 document

    def test_closure_soundness(self, table_for):
        g = graph_for(table_for)
        t = RNG.random(g.n_nodes)
        chosen = select_topk_sentences(t, 0.4, g)
        sel = extend_selection(chosen, g)
        chosen_set = set(chosen.tolist())
        for idx in sel:
            nd = g.nodes[int(idx)]
            if nd.kind == "sentence":
                assert idx in chosen_set
            elif nd.kind == "word":
                links = [j for j, _ in g.adjacency("SW", int(idx))]
                assert any(j in chosen_set for j in links)
            else:
                links = [j for j, _ in g.adjacency("DS", int(idx))]
                assert any(j in chosen_set for j in links)
        # no retained word's sentence is dropped
        for idx in sel:
            nd = g.nodes[int(idx)]
            if nd.kind == "word":
                (s_idx, _), = g.adjacency("SW", int(idx))
                assert s_idx in chosen_set

    def test_matches_set_oracle_on_random_selections(self, table_for):
        rng = np.random.default_rng(21)
        graphs = [graph_for(table_for),
                  graph_for(table_for, ("storm hits coast.", "waves flood town. rain.",
                                        "rescue starts now. people leave. storm ends."))]
        for g in graphs:
            sents = g.kind_indices("sentence")
            for _ in range(25):
                chosen = rng.choice(sents, size=int(rng.integers(1, len(sents) + 1)),
                                    replace=False)
                got = extend_selection(chosen, g)
                assert got.dtype == np.intp
                assert np.array_equal(got, extend_selection_oracle(chosen, g))
            for bad in ([], [int(g.kind_indices("word")[0])], [int(sents[0]), g.n_nodes], [-1]):
                for fn in (extend_selection, extend_selection_oracle):
                    with pytest.raises(DataError):
                        fn(np.asarray(bad, dtype=np.intp), g)

    def test_empty_selection_guarded(self, table_for):
        g = graph_for(table_for)
        with pytest.raises(DataError):
            extend_selection(np.asarray([], dtype=np.intp), g)

    def test_non_sentence_rejected(self, table_for):
        g = graph_for(table_for)
        word = g.kind_indices("word")[:1]
        with pytest.raises(DataError):
            extend_selection(word, g)


class TestCompress:
    def test_row_count(self, table_for):
        g = graph_for(table_for)
        q = Tensor(RNG.normal(size=(g.n_nodes, 6)), requires_grad=True)
        r = Tensor(RNG.normal(size=6), requires_grad=True)
        t = node_scores(q, r)
        sel = extend_selection(select_topk_sentences(t, 0.5, g), g)
        q_p, positions = compress(q, t, sel, g)
        assert q_p.shape == (len(sel), 6)
        assert positions.shape == (len(sel),)
        assert np.array_equal(positions, g.token_positions()[sel])

    def test_rows_scaled_by_scores(self, table_for):
        g = graph_for(table_for)
        q = RNG.normal(size=(g.n_nodes, 6))
        r = RNG.normal(size=6)
        t = node_scores(Tensor(q), Tensor(r))
        sel = extend_selection(select_topk_sentences(t, 0.5, g), g)
        q_p, _ = compress(Tensor(q), t, sel, g)
        for row, idx in zip(q_p.data, sel):
            assert np.allclose(row, q[idx] * t.data[idx], atol=1e-12)

    def test_renorm_uniform_identity(self, table_for):
        g = graph_for(table_for)
        q = RNG.normal(size=(g.n_nodes, 6))
        t = Tensor(np.full(g.n_nodes, 1.0 / g.n_nodes))
        sel = np.arange(g.n_nodes)
        cfg = CompressorConfig(k=1.0, renorm_mask=True)
        q_p, _ = compress(Tensor(q), t, sel, g, cfg)
        # uniform scores renormalized over everything = 1/|I| each... times
        # rows; with renorm over the full selection the mask sums to 1
        assert np.allclose(q_p.data, q / g.n_nodes, atol=1e-12)

    def test_renorm_sums_to_one_within_selection(self, table_for):
        g = graph_for(table_for)
        q = Tensor(RNG.normal(size=(g.n_nodes, 6)))
        r = Tensor(RNG.normal(size=6))
        t = node_scores(q, r)
        sel = extend_selection(select_topk_sentences(t, 0.4, g), g)
        cfg = CompressorConfig(k=0.4, renorm_mask=True)
        q_p, _ = compress(q, t, sel, g, cfg)
        scale = q_p.data[0] / q.data[sel[0]]
        renormed = t.data[sel] / t.data[sel].sum()
        assert np.allclose(scale, renormed[0], atol=1e-12)

    def test_gradient_flows_to_r(self, table_for):
        g = graph_for(table_for)
        q0 = np.random.default_rng(3).normal(size=(g.n_nodes, 5))
        store = ParamStore()
        from dgsum.compressor import add_compressor_params
        add_compressor_params(store, 5, np.random.default_rng(4))
        probe = Tensor(np.random.default_rng(5).normal(size=5))
        cfg = CompressorConfig(k=0.5)

        def loss():
            q = Tensor(q0, requires_grad=False)
            q_p, _, _, _ = compress_graph(q, g, store, cfg)
            return nm.mean(nm.mul(q_p, nm.reshape(probe, (1, -1))))

        err = nm.grad_check(loss, {"comp.r": store["comp.r"]})
        assert err < 1e-5
        loss().backward()
        assert store["comp.r"].grad is not None
        assert np.any(store["comp.r"].grad != 0.0)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=12), st.floats(0.05, 1.0))
    def test_nestedness_on_raw_scores(self, scores, k):
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        small = set(order[:math.ceil(k / 2 * len(scores))])
        big = set(order[:math.ceil(k * len(scores))])
        assert small <= big  # the selection rule itself is prefix-monotone

    def test_cardinality_grid_random_graphs(self, table_for):
        rng = np.random.default_rng(17)
        for trial in range(10):
            texts = [" ".join(rng.choice(["storm", "went", "coast", "there"],
                                         size=rng.integers(2, 5))) + "."
                     for _ in range(rng.integers(1, 5))]
            cluster = cluster_from_texts(f"t{trial}", [" ".join(texts)])
            table = table_for([cluster], seed=trial)
            g = build_hetero_graph(cluster, table, MeanWordEmbedder(table), GraphConfig())
            n_s = len(g.kind_indices("sentence"))
            t = rng.random(g.n_nodes)
            for k in (0.1, 0.25, 0.5, 0.75, 1.0):
                assert len(select_topk_sentences(t, k, g)) == math.ceil(k * n_s)

    def test_monotone_nestedness(self, table_for):
        g = graph_for(table_for)
        t = RNG.random(g.n_nodes)
        grid = (0.1, 0.25, 0.5, 0.75, 1.0)
        selections = [set(select_topk_sentences(t, k, g).tolist()) for k in grid]
        for small, big in zip(selections, selections[1:]):
            assert small <= big

    def test_tie_break_determinism(self, table_for):
        g = graph_for(table_for)
        t = np.full(g.n_nodes, 0.125)
        runs = [select_topk_sentences(t, 0.5, g) for _ in range(3)]
        assert all(np.array_equal(runs[0], r) for r in runs[1:])
