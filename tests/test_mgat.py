"""Multi-channel graph attention: formulas, properties, and gradients."""

import tracemalloc

import numpy as np
import pytest

import dgsum.numeric as nm
from dgsum import mgat
from dgsum.embeddings import MeanWordEmbedder
from dgsum.errors import ShapeError
from dgsum.hetgraph import EDGE_TYPES, GraphConfig, HeteroGraph, NodeId, build_hetero_graph
from dgsum.mgat import (UNION_CHANNEL, MgatConfig, add_mgat_params, channel_attention,
                        channel_edges, mgat_encode, mgat_layer)
from dgsum.numeric import ParamStore, Tensor
from conftest import cluster_from_texts
from oracles import (attention_coefficient, channel_attention_oracle,
                     dense_channel_attention_oracle, dense_channel_oracle,
                     dense_gat_channel_oracle, head_arrays, union_channel_oracle)

RNG = np.random.default_rng(2024)


def small_graph(table_for, texts=("storm hits coast. waves flood town.",
                                  "storm nears coast.")):
    cluster = cluster_from_texts("g", list(texts))
    table = table_for([cluster])
    return build_hetero_graph(cluster, table, MeanWordEmbedder(table), GraphConfig())


def channels_of(g, names=EDGE_TYPES):
    return {ch: channel_edges(g, ch) for ch in names}


def tiny_params(cfg: MgatConfig, seed=0) -> ParamStore:
    store = ParamStore()
    add_mgat_params(store, cfg, np.random.default_rng(seed))
    return store


class TestAttentionCoefficient:
    def test_zero_edge_weight_kills_coefficient(self):
        W = Tensor(RNG.normal(size=(3, 4)))
        w = Tensor(RNG.normal(size=6))
        h_i = Tensor(RNG.normal(size=4))
        h_j = Tensor(RNG.normal(size=4))
        assert attention_coefficient(h_i, h_j, 0.0, W, w).item() == 0.0

    def test_zero_attention_vector(self):
        W = Tensor(RNG.normal(size=(3, 4)))
        w = Tensor(np.zeros(6))
        h_i = Tensor(RNG.normal(size=4))
        h_j = Tensor(RNG.normal(size=4))
        assert attention_coefficient(h_i, h_j, 0.7, W, w).item() == 0.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(4)
        W = rng.normal(size=(2, 4))
        w = rng.normal(size=4)
        h_i = rng.normal(size=4)
        h_j = rng.normal(size=4)
        e = 0.63
        raw = e * (w @ np.concatenate([W @ h_i, W @ h_j]))
        expected = raw if raw > 0 else 0.2 * raw
        got = attention_coefficient(Tensor(h_i), Tensor(h_j), e, Tensor(W),
                                    Tensor(w), 0.2)
        assert abs(got.item() - expected) < 1e-12


class TestChannelAttention:
    def test_single_node_graph_self_loop_only(self):
        from dgsum.hetgraph import NodeId
        node = NodeId(kind="document", index=0, doc=0, token_position=0)
        g = HeteroGraph([node], {t: [] for t in EDGE_TYPES})
        W = Tensor(RNG.normal(size=(5, 3)))
        a = Tensor(RNG.normal(size=(1, 6)))
        h = Tensor(RNG.normal(size=(1, 5)))
        out = channel_attention(h, channel_edges(g, "WO"), W, a)
        s = h.data @ W.data
        expected = np.where(s > 0, s, np.expm1(np.minimum(s, 0)))
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_alpha_rows_sum_to_one(self, table_for):
        g = small_graph(table_for)
        n = g.n_nodes
        W = Tensor(RNG.normal(size=(4, 6)))
        w = Tensor(RNG.normal(size=8))
        h = Tensor(RNG.normal(size=(n, 6)))
        # recompute alpha exactly as channel_attention does
        ew, mask = dense_channel_oracle(g, "SS")
        s = h.data @ W.data.T
        a_src = s @ w.data[:4]
        a_dst = s @ w.data[4:]
        raw = a_src[:, None] + a_dst[None, :]
        d = np.where(raw * ew > 0, raw * ew, 0.2 * raw * ew)
        logits = np.where(mask, d, -1e9)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        alpha = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-7)
        assert np.all(alpha[~mask] == 0.0)

    def test_three_node_path_matches_dense_oracle(self):
        from dgsum.hetgraph import NodeId
        nodes = [NodeId(kind="word", index=i, doc=0, sent=0, tok=i, token_position=i + 1)
                 for i in range(3)]
        g = HeteroGraph(nodes, {**{t: [] for t in EDGE_TYPES},
                                "WO": [(0, 1, 1.0), (1, 2, 1.0)]})
        rng = np.random.default_rng(9)
        W = rng.normal(size=(4, 3))
        a = rng.normal(size=(1, 6))
        h = rng.normal(size=(3, 4))
        got = channel_attention(Tensor(h), channel_edges(g, "WO"), Tensor(W), Tensor(a))
        ew, mask = dense_channel_oracle(g, "WO")
        expected = dense_gat_channel_oracle(h, ew, mask, W.T, a[0])
        assert np.allclose(got.data, expected, atol=1e-10)

    def test_heads_concatenated(self, table_for):
        g = small_graph(table_for)
        h = Tensor(RNG.normal(size=(g.n_nodes, 6)))
        W, a = Tensor(RNG.normal(size=(6, 12))), Tensor(RNG.normal(size=(3, 8)))
        out = channel_attention(h, channel_edges(g, "SS"), W, a)
        assert out.shape == (g.n_nodes, 12)
        solo = channel_attention(h, channel_edges(g, "SS"),
                                 Tensor(W.data[:, :4].copy()), Tensor(a.data[:1]))
        assert np.array_equal(out.data[:, :4], solo.data)


def random_graph(rng, n):
    """Word nodes with random edges of every type; nodes 0 and 1 are joined
    under both WE and SS with different weights, and node n-1 has no edge."""
    nodes = [NodeId(kind="word", index=i, doc=0, sent=0, tok=i, token_position=i)
             for i in range(n)]
    edges = {}
    for t in EDGE_TYPES:
        pairs = {(a, b) for a, b in rng.integers(0, n - 1, size=(2 * n, 2)) if a < b}
        low = -1.0 if t in ("WE", "SS") else 0.0
        edges[t] = [(int(a), int(b), float(rng.uniform(low, 1.0)))
                    for a, b in sorted(pairs - {(0, 1)})]
    edges["WE"].append((0, 1, 0.25))
    edges["SS"].append((0, 1, 0.75))
    return HeteroGraph(nodes, edges)


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


class TestEdgeListChannel:
    """The edge-list channel against dense n x n oracles."""

    def channels(self):
        return EDGE_TYPES + (UNION_CHANNEL,)

    def dense(self, g, ch):
        return union_channel_oracle(g) if ch == UNION_CHANNEL else dense_channel_oracle(g, ch)

    def test_outputs_match_dense_loop_oracle(self):
        rng = np.random.default_rng(61)
        for n in (7, 23, 40):
            g = random_graph(rng, n)
            h = rng.normal(size=(n, 5))
            W, a = rng.normal(size=(5, 6)), rng.normal(size=(2, 6))
            for ch in self.channels():
                got = channel_attention(Tensor(h), channel_edges(g, ch), Tensor(W), Tensor(a))
                ew, mask = self.dense(g, ch)
                ref = np.concatenate([dense_gat_channel_oracle(h, ew, mask, W_m, a_m)
                                      for W_m, a_m in head_arrays(W, a)], axis=1)
                assert rel_err(got.data, ref) <= 1e-12, ch
                # the edgeless node attends only to itself
                s_last = h[-1] @ W
                assert np.allclose(got.data[-1], np.where(s_last > 0, s_last,
                                                          np.expm1(np.minimum(s_last, 0))),
                                   rtol=1e-14, atol=0.0)

    def test_gradients_match_dense_tape_oracle(self):
        rng = np.random.default_rng(62)
        for n in (9, 31):
            g = random_graph(rng, n)
            probe = rng.normal(size=(n, 6))
            for ch in self.channels():
                h = Tensor(rng.normal(size=(n, 5)), requires_grad=True)
                W = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
                a = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
                leaves = [h, W, a]

                def grads(out):
                    for t in leaves:
                        t.zero_grad()
                    nm.sum_(nm.mul(out, probe)).backward()
                    return out.data, [t.grad.copy() for t in leaves]

                got_out, got = grads(channel_attention(h, channel_edges(g, ch), W, a))
                ew, mask = self.dense(g, ch)
                ref_out, ref = grads(dense_channel_attention_oracle(h, ew, mask, W, a))
                assert rel_err(got_out, ref_out) <= 1e-12, ch
                for a, b in zip(got, ref):
                    assert rel_err(a, b) <= 1e-12, ch

    def test_path_graph_memory_is_linear(self):
        """A 1,000-node path: n x n float64 arrays would take 8 MB each."""
        n = 1000
        nodes = [NodeId(kind="word", index=i, doc=0, sent=0, tok=i, token_position=i)
                 for i in range(n)]
        g = HeteroGraph(nodes, {"WO": [(i, i + 1, 1.0) for i in range(n - 1)]})
        cfg = MgatConfig(n_layers=2, n_heads=2, d_in=8, d_head=4)
        store = tiny_params(cfg)
        h = Tensor(np.random.default_rng(0).normal(size=(n, 8)), requires_grad=True)
        tracemalloc.start()
        try:
            out = mgat_encode(h, g, store, cfg)  # the tape holds every head's arrays
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (n, 8)
        assert peak < 16e6, f"mgat_encode peaked at {peak / 1e6:.1f} MB"


class TestMgatLayer:
    def test_output_shape(self, table_for):
        g = small_graph(table_for)
        cfg = MgatConfig(n_layers=1, n_heads=2, d_in=6, d_head=3)
        store = tiny_params(cfg)
        h = Tensor(RNG.normal(size=(g.n_nodes, 6)))
        out = mgat_layer(h, channels_of(g), store, 0)
        assert out.shape == (g.n_nodes, 6)

    def test_zero_u_zero_output(self, table_for):
        g = small_graph(table_for)
        cfg = MgatConfig(n_layers=1, n_heads=1, d_in=6, d_head=3)
        store = tiny_params(cfg)
        store["mgat0.U"].data[...] = 0.0
        h = Tensor(RNG.normal(size=(g.n_nodes, 6)))
        out = mgat_layer(h, channels_of(g), store, 0)
        assert np.all(out.data == 0.0)

    def test_channel_block_permutation(self, table_for):
        """Permuting the channel order with matching U row blocks leaves the
        output unchanged: channels map to fixed blocks of U's input."""
        g = small_graph(table_for)
        cfg = MgatConfig(n_layers=1, n_heads=1, d_in=6, d_head=3)
        store = tiny_params(cfg, seed=3)
        h = Tensor(RNG.normal(size=(g.n_nodes, 6)))
        base = mgat_layer(h, channels_of(g), store, 0)

        perm = [3, 0, 5, 1, 4, 2]
        channels = tuple(EDGE_TYPES[i] for i in perm)
        permuted = ParamStore()
        rng = np.random.default_rng(0)
        for ch in channels:
            for suffix in ("W", "a"):
                src = store[f"mgat0.{ch}.{suffix}"]
                t = permuted.add(f"mgat0.{ch}.{suffix}", src.shape, rng)
                t.data[...] = src.data
        width = cfg.d_head * cfg.n_heads
        u = store["mgat0.U"].data
        blocks = [u[i * width:(i + 1) * width] for i in range(6)]
        t = permuted.add("mgat0.U", u.shape, rng)
        t.data[...] = np.concatenate([blocks[i] for i in perm], axis=0)
        out = mgat_layer(h, channels_of(g, channels), permuted, 0)
        assert np.allclose(out.data, base.data, atol=1e-12)


class TestMgatEncode:
    def test_zero_layers_identity(self, table_for):
        g = small_graph(table_for)
        cfg = MgatConfig(n_layers=0, n_heads=1, d_in=6, d_head=3)
        store = tiny_params(cfg)
        h = Tensor(RNG.normal(size=(g.n_nodes, 6)))
        out = mgat_encode(h, g, store, cfg)
        assert np.array_equal(out.data, h.data)

    def test_shape_preserved_any_depth(self, table_for):
        g = small_graph(table_for)
        for n_layers in (1, 2, 3):
            cfg = MgatConfig(n_layers=n_layers, n_heads=2, d_in=6, d_head=3)
            store = tiny_params(cfg)
            h = Tensor(RNG.normal(size=(g.n_nodes, 6)))
            assert mgat_encode(h, g, store, cfg).shape == (g.n_nodes, 6)

    def test_two_layer_replay_oracle(self, table_for):
        g = small_graph(table_for)
        cfg = MgatConfig(n_layers=2, n_heads=1, d_in=6, d_head=3, residual=True)
        store = tiny_params(cfg, seed=8)
        h0 = RNG.normal(size=(g.n_nodes, 6))
        got = mgat_encode(Tensor(h0), g, store, cfg)

        h = h0
        for layer in range(2):
            blocks = []
            for ch in EDGE_TYPES:
                ew, mask = dense_channel_oracle(g, ch)
                (W, a), = head_arrays(store[f"mgat{layer}.{ch}.W"].data,
                                      store[f"mgat{layer}.{ch}.a"].data)
                blocks.append(dense_gat_channel_oracle(h, ew, mask, W, a))
            stacked = np.concatenate(blocks, axis=1)
            h = h + stacked @ store[f"mgat{layer}.U"].data
        assert np.allclose(got.data, h, atol=1e-9)

    def test_tape_holds_one_projection_kernel_and_elu_per_channel(self, table_for):
        """A 2-layer loss puts one linear, one edge_attention and one elu per
        layer and channel on the tape, each reading the stored W and a as they
        are, and one linear per layer for U: no transpose, reshape or weight
        concat node."""
        g = small_graph(table_for)
        cfg = MgatConfig(n_layers=2, n_heads=2, d_in=6, d_head=3)
        store = tiny_params(cfg)
        h = Tensor(RNG.normal(size=(g.n_nodes, 6)), requires_grad=True)
        nodes, seen, stack = {}, set(), [nm.sum_(mgat_encode(h, g, store, cfg))]
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen.add(id(t))
                if t._backward is not None:  # the primitive that made t
                    nodes.setdefault(t._backward.__qualname__.split(".")[0], []).append(t)
                stack.extend(t._parents)
        per_channel = [(layer, ch) for layer in range(2) for ch in EDGE_TYPES]
        assert {op: len(ts) for op, ts in nodes.items()} == {
            "linear": len(per_channel) + 2, "edge_attention": len(per_channel),
            "elu": len(per_channel), "concat": 2, "add": 2, "sum_": 1}

        def ids(tensors):
            return sorted(map(id, tensors))
        kernels, elus = nodes["edge_attention"], nodes["elu"]
        assert ids(t._parents[1] for t in nodes["linear"]) == ids(
            [store[f"mgat{layer}.{ch}.W"] for layer, ch in per_channel]
            + [store[f"mgat{layer}.U"] for layer in range(2)])
        assert ids(t._parents[1] for t in kernels) == ids(
            store[f"mgat{layer}.{ch}.a"] for layer, ch in per_channel)
        assert set(ids(t._parents[0] for t in kernels)) <= set(ids(nodes["linear"]))
        assert ids(t._parents[0] for t in elus) == ids(kernels)
        assert ids(p for t in nodes["concat"] for p in t._parents) == ids(elus)

    def test_alignment_mismatch_error(self, table_for):
        from dgsum.errors import AlignmentError
        g = small_graph(table_for)
        cfg = MgatConfig(n_layers=1, n_heads=1, d_in=6, d_head=3)
        store = tiny_params(cfg)
        with pytest.raises(AlignmentError):
            mgat_encode(Tensor(RNG.normal(size=(g.n_nodes + 1, 6))), g, store, cfg)

    def test_no_residual_flag(self, table_for):
        g = small_graph(table_for)
        cfg = MgatConfig(n_layers=1, n_heads=1, d_in=6, d_head=3, residual=False)
        store = tiny_params(cfg)
        store["mgat0.U"].data[...] = 0.0
        h = Tensor(RNG.normal(size=(g.n_nodes, 6)))
        assert np.all(mgat_encode(h, g, store, cfg).data == 0.0)


def permute_graph(g: HeteroGraph, perm):
    inv = {int(old): new for new, old in enumerate(perm)}
    nodes = [g.nodes[int(i)] for i in perm]
    edges = {t: [(min(inv[a], inv[b]), max(inv[a], inv[b]), w) for a, b, w in g.edges[t]]
             for t in EDGE_TYPES}
    return HeteroGraph(nodes, edges)


class TestProperties:
    def test_permutation_equivariance_exact(self, table_for):
        rng = np.random.default_rng(31)
        cfg = MgatConfig(n_layers=2, n_heads=2, d_in=6, d_head=3)
        store = tiny_params(cfg, seed=5)
        for trial in range(8):
            cluster = cluster_from_texts(
                f"p{trial}", ["storm coast. flood town.", "rain falls."])
            table = table_for([cluster], seed=trial)
            g = build_hetero_graph(cluster, table, MeanWordEmbedder(table), GraphConfig())
            h = rng.normal(size=(g.n_nodes, 6))
            base = mgat_encode(Tensor(h), g, store, cfg).data
            perm = rng.permutation(g.n_nodes)
            gp = permute_graph(g, perm)
            hp = h[perm]
            out = mgat_encode(Tensor(hp), gp, store, cfg).data
            assert np.array_equal(out, base[perm])  # exact, not approx

    def test_channel_isolation(self, table_for):
        g = small_graph(table_for)
        cfg = MgatConfig(n_layers=1, n_heads=1, d_in=6, d_head=3)
        store = tiny_params(cfg, seed=2)
        h = Tensor(RNG.normal(size=(g.n_nodes, 6)))
        params = {ch: (store[f"mgat0.{ch}.W"], store[f"mgat0.{ch}.a"]) for ch in EDGE_TYPES}
        blocks_before = {ch: channel_attention(h, channel_edges(g, ch), *params[ch])
                         for ch in EDGE_TYPES}
        zeroed = HeteroGraph(g.nodes, {**g.edges, "SS": []})
        for ch in EDGE_TYPES:
            after = channel_attention(h, channel_edges(zeroed, ch), *params[ch])
            if ch == "SS":
                assert not np.array_equal(after.data, blocks_before[ch].data)
            else:
                assert np.array_equal(after.data, blocks_before[ch].data)

    def test_zero_edge_weight_zero_coefficient_on_random_graphs(self, table_for):
        rng = np.random.default_rng(77)
        for trial in range(50):
            d_in, d_head = 5, 3
            W = Tensor(rng.normal(size=(d_head, d_in)))
            w = Tensor(rng.normal(size=2 * d_head))
            h_i = Tensor(rng.normal(size=d_in))
            h_j = Tensor(rng.normal(size=d_in))
            assert attention_coefficient(h_i, h_j, 0.0, W, w).item() == 0.0

    def test_edge_weight_monotonicity_positive_regime(self):
        """With positive raw attention logits, raising one e_ij never lowers
        its alpha."""
        from dgsum.hetgraph import NodeId
        nodes = [NodeId(kind="word", index=i, doc=0, sent=0, tok=i, token_position=i + 1)
                 for i in range(3)]
        rng = np.random.default_rng(3)
        W = np.abs(rng.normal(size=(3, 4)))  # positive throughout: raw logits > 0
        w = np.abs(rng.normal(size=6))
        h = np.abs(rng.normal(size=(3, 4)))
        s = h @ W.T

        def alpha_01(weight_01):
            g = HeteroGraph(nodes, {**{t: [] for t in EDGE_TYPES},
                                    "WO": [(0, 1, weight_01), (1, 2, 0.4)]})
            ew, mask = dense_channel_oracle(g, "WO")
            a_src = s @ w[:3]
            a_dst = s @ w[3:]
            raw = a_src[:, None] + a_dst[None, :]
            assert np.all(raw > 0)
            d = np.where(raw * ew > 0, raw * ew, 0.2 * raw * ew)
            logits = np.where(mask, d, -1e9)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            return (e / e.sum(axis=1, keepdims=True))[0, 1]

        values = [alpha_01(x) for x in (0.1, 0.3, 0.5, 0.9)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_full_gradient_check(self, table_for):
        cluster = cluster_from_texts("gc", ["storm coast. flood town."])
        table = table_for([cluster], dim=4)
        g = build_hetero_graph(cluster, table, MeanWordEmbedder(table), GraphConfig())
        assert g.n_nodes <= 12
        cfg = MgatConfig(n_layers=2, n_heads=2, d_in=5, d_head=3)
        store = tiny_params(cfg, seed=13)
        h = Tensor(np.random.default_rng(1).normal(size=(g.n_nodes, 5)),
                   requires_grad=True)
        probe = nm.Tensor(np.random.default_rng(2).normal(size=(g.n_nodes, 5)))

        def loss():
            return nm.mean(nm.mul(mgat_encode(h, g, store, cfg), probe))

        params = {name: t for name, t in store.items()}
        params["h"] = h
        err = nm.grad_check(loss, params, max_entries=24)
        assert err < 1e-5


class TestChannelsBuiltOnce:
    """mgat_encode prepares each channel's edge list once, in canonical node
    numbering, and every layer reuses it."""

    def relabeled(self, table_for):
        g = small_graph(table_for)
        perm = np.random.default_rng(12).permutation(g.n_nodes)
        return g, perm, permute_graph(g, perm)

    def test_one_channel_edges_call_per_channel(self, table_for, monkeypatch):
        g, _, gp = self.relabeled(table_for)
        calls = []

        def counting(graph, channel, rank=None):
            calls.append(channel)
            return channel_edges(graph, channel, rank)
        monkeypatch.setattr(mgat, "channel_edges", counting)
        for single_channel in (False, True):
            cfg = MgatConfig(n_layers=2, n_heads=1, d_in=6, d_head=3,
                             single_channel=single_channel)
            store = tiny_params(cfg)
            for graph in (g, gp):
                calls.clear()
                mgat_encode(Tensor(RNG.normal(size=(graph.n_nodes, 6))), graph, store, cfg)
                assert sorted(calls) == sorted(cfg.channels)

    def test_relabeled_graph_builds_no_graph(self, table_for, monkeypatch):
        _, _, gp = self.relabeled(table_for)
        cfg = MgatConfig(n_layers=2, n_heads=1, d_in=6, d_head=3)
        store = tiny_params(cfg)
        built = []
        init = HeteroGraph.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        monkeypatch.setattr(HeteroGraph, "__init__", counting)
        mgat_encode(Tensor(RNG.normal(size=(gp.n_nodes, 6))), gp, store, cfg)
        assert built == []

    def test_relabeled_channels_equal_the_canonical_ones(self, table_for):
        g, perm, gp = self.relabeled(table_for)
        assert g.canonical_order() is None
        order = gp.canonical_order()
        assert np.array_equal(order, np.argsort(perm))
        rank = np.argsort(order)
        for ch in EDGE_TYPES + (UNION_CHANNEL,):
            got, want = channel_edges(gp, ch, rank), channel_edges(g, ch)
            for field in ("src", "dst", "weight", "indptr"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (ch, field)

    @pytest.mark.parametrize("endpoint", [-1, 3, 7])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_out_of_range_endpoint_is_alignment_error(self, endpoint, side):
        # the graph stores such an edge as given; a negative endpoint must not wrap
        from dgsum.errors import AlignmentError
        nodes = [NodeId(kind="word", index=i, doc=0, sent=0, tok=i, token_position=i)
                 for i in range(3)]
        pair = (0, endpoint) if side == "b" else (endpoint, 1)
        g = HeteroGraph(nodes, {"WO": [(0, 1, 1.0)], "SS": [(*pair, 0.5)]})
        assert np.array_equal(channel_edges(g, "WO").dst, [0, 1, 0, 1, 2])
        for ch in ("SS", UNION_CHANNEL):
            with pytest.raises(AlignmentError, match=f"channel {ch}: .* outside \\[0, 3\\)"):
                channel_edges(g, ch)
        for single in (False, True):
            cfg = MgatConfig(n_layers=1, n_heads=1, d_in=4, d_head=2, single_channel=single)
            with pytest.raises(AlignmentError, match="outside"):
                mgat_encode(Tensor(RNG.normal(size=(3, 4))), g, tiny_params(cfg), cfg)

    def test_embedding_count_is_checked_against_the_index(self, table_for):
        from dgsum.errors import AlignmentError
        g = small_graph(table_for)
        W, a = Tensor(RNG.normal(size=(6, 3))), Tensor(RNG.normal(size=(1, 6)))
        with pytest.raises(AlignmentError, match="embeddings for"):
            channel_attention(Tensor(RNG.normal(size=(g.n_nodes - 1, 6))),
                              channel_edges(g, "WO"), W, a)


def single_node_graph():
    return HeteroGraph([NodeId(kind="document", index=0, doc=0, token_position=0)],
                       {t: [] for t in EDGE_TYPES})


def within_1e12(got, ref):
    """Relative to ref's largest entry; an all-zero ref needs an all-zero got."""
    return got.dtype == ref.dtype and np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def tape_grads(out, leaves, probe):
    """The output and each leaf's gradient of sum(out * probe)."""
    for t in leaves:
        t.zero_grad()
    nm.sum_(nm.mul(out, probe)).backward()
    return [out.data] + [t.grad.copy() for t in leaves]


class TestEdgeAttention:
    """The fused all-heads primitive against the per-head tape oracle."""

    def test_finite_difference(self):
        rng = np.random.default_rng(71)
        ix = channel_edges(random_graph(rng, 9), UNION_CHANNEL)
        s = Tensor(rng.normal(size=(9, 6)), requires_grad=True)
        a = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        probe = rng.normal(size=(9, 6))
        err = nm.grad_check(lambda: nm.sum_(nm.mul(nm.edge_attention(s, a, ix), probe)),
                            {"s": s, "a": a})
        assert err < 1e-6

    @pytest.mark.parametrize("chunk_edges", [
        pytest.param(3, id="hubs_alone_in_3_edge_chunks"), None])
    def test_heads_match_the_per_head_oracle(self, chunk_edges, monkeypatch):
        """Every channel, 1-4 heads, an edgeless node and a single-node graph;
        with chunks of 3 edges, every node with more edges fills a chunk of
        its own."""
        rng = np.random.default_rng(72)
        d_in, d_head = 5, 3
        graphs = [random_graph(rng, n) for n in (6, 19, 33)] + [single_node_graph()]
        for heads in (1, 2, 3, 4):
            if chunk_edges is not None:
                monkeypatch.setattr(nm.tensor, "_MAX_CELLS", chunk_edges * heads * d_head)
            for g in graphs:
                n = g.n_nodes
                probe = rng.normal(size=(n, heads * d_head))
                for ch in EDGE_TYPES + (UNION_CHANNEL,):
                    ix = channel_edges(g, ch)
                    if chunk_edges is not None and n > 1 and ch == UNION_CHANNEL:
                        assert np.diff(ix.indptr).max() > chunk_edges  # a hub overfills
                    h = Tensor(rng.normal(size=(n, d_in)), requires_grad=True)
                    W = Tensor(rng.normal(size=(d_in, heads * d_head)), requires_grad=True)
                    a = Tensor(rng.normal(size=(heads, 2 * d_head)), requires_grad=True)
                    leaves = [h, W, a]
                    got = tape_grads(channel_attention(h, ix, W, a), leaves, probe)
                    ref = tape_grads(channel_attention_oracle(h, ix, W, a), leaves, probe)
                    for a, b in zip(got, ref):
                        assert within_1e12(a, b), (n, ch, heads)

    @pytest.mark.parametrize("chunk_edges", [1, 2, 3, 7])
    def test_chunk_size_changes_no_bit(self, chunk_edges, monkeypatch):
        """Chunks end on node boundaries, so each node's sum and each edge's
        dot product are the unchunked ones, bit for bit."""
        rng = np.random.default_rng(73)
        heads, d_head = 3, 4
        for n in (6, 19, 33):
            ix = channel_edges(random_graph(rng, n), UNION_CHANNEL)
            coef = rng.normal(size=(len(ix.dst), heads))
            vals, dot = rng.normal(size=(2, n, heads, d_head))
            whole = nm.tensor._edge_sum(coef, vals, ix, dot=dot)
            monkeypatch.setattr(nm.tensor, "_MAX_CELLS", chunk_edges * heads * d_head)
            chunked = nm.tensor._edge_sum(coef, vals, ix, dot=dot)
            monkeypatch.undo()
            assert len(ix.dst) > 2 * chunk_edges  # several chunks
            for a, b in zip(chunked, whole):
                assert np.array_equal(a, b), n

    def test_mgat_encode_matches_the_oracle(self, table_for, monkeypatch):
        g = small_graph(table_for)
        perm = np.random.default_rng(73).permutation(g.n_nodes)
        for graph in (g, permute_graph(g, perm)):
            for single_channel in (False, True):
                cfg = MgatConfig(n_layers=2, n_heads=3, d_in=6, d_head=4,
                                 single_channel=single_channel)
                store = tiny_params(cfg, seed=4)
                h = Tensor(RNG.normal(size=(graph.n_nodes, 6)), requires_grad=True)
                leaves = [h] + [t for _, t in store.items()]
                probe = RNG.normal(size=(graph.n_nodes, 6))
                got = tape_grads(mgat_encode(h, graph, store, cfg), leaves, probe)
                with monkeypatch.context() as m:
                    m.setattr(mgat, "channel_attention", channel_attention_oracle)
                    ref = tape_grads(mgat_encode(h, graph, store, cfg), leaves, probe)
                for a, b in zip(got, ref):
                    assert within_1e12(a, b)

    def test_rev_is_an_involution_that_swaps_src_and_dst(self, table_for):
        rng = np.random.default_rng(74)
        g = small_graph(table_for)
        for graph in (g, random_graph(rng, 25), single_node_graph()):
            for ch in EDGE_TYPES + (UNION_CHANNEL,):
                ix = channel_edges(graph, ch)
                assert np.array_equal(ix.rev[ix.rev], np.arange(len(ix.src)))
                assert np.array_equal(ix.src[ix.rev], ix.dst)
                assert np.array_equal(ix.dst[ix.rev], ix.src)
                assert np.array_equal(ix.weight[ix.rev], ix.weight)

    def test_shape_mismatch_is_rejected(self):
        ix = channel_edges(random_graph(np.random.default_rng(75), 6), "WE")
        s = Tensor(RNG.normal(size=(6, 6)))
        for a, n in ((RNG.normal(size=(2, 5)), 6), (RNG.normal(size=(3, 6)), 6),
                     (RNG.normal(size=(2, 6)), 5), (RNG.normal(size=12), 6)):
            with pytest.raises(ShapeError, match="edge_attention"):
                nm.edge_attention(Tensor(s.data[:n]), a, ix)

    def test_dense_channel_backward_keeps_no_per_head_edge_arrays(self, monkeypatch):
        """Forward plus backward over a complete WE channel of 300 nodes
        (90,000 directed edges), 4 heads of 16. Keeping each head's s[dst]
        gather and its product with alpha ([E, 16] float64, 11.5 MB each)
        until backward, as the per-head oracle does, passes the bound."""
        n, bound_mb = 300, 64
        nodes = [NodeId(kind="word", index=i, doc=0, sent=0, tok=i, token_position=i)
                 for i in range(n)]
        a, b = np.triu_indices(n, 1)
        w = np.random.default_rng(76).uniform(0.5, 1.0, size=len(a))
        g = HeteroGraph(nodes, {"WE": list(zip(a.tolist(), b.tolist(), w.tolist()))})
        cfg = MgatConfig(n_layers=1, n_heads=4, d_in=16, d_head=16)
        store = tiny_params(cfg)
        h = Tensor(np.random.default_rng(77).normal(size=(n, 16)), requires_grad=True)

        def peak_mb():
            tracemalloc.start()
            try:
                nm.sum_(mgat_encode(h, g, store, cfg)).backward()
                return tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()

        fused = peak_mb()
        monkeypatch.setattr(mgat, "channel_attention", channel_attention_oracle)
        per_head = peak_mb()
        assert fused < bound_mb < per_head, (fused, per_head)
