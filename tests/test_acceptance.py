"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them live).

The full-dataset headline numbers are out of reach at desk scale by design;
these criteria pin the architecture, the gradients, and the training loop
via property tests and micro-scale reproductions instead.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import dgsum.numeric as nm
from dgsum.cli import main
from dgsum.compressor import (CompressorConfig, compress_graph, extend_selection,
                              select_topk_sentences)
from dgsum.corpus import Vocab, build_vocab, load_clusters
from dgsum.embeddings import EmbeddingTable, MeanWordEmbedder
from dgsum.hetgraph import (EDGE_TYPES, GraphConfig, HeteroGraph, build_hetero_graph,
                            noun_candidates)
from dgsum.mgat import MgatConfig, add_mgat_params, mgat_encode
from dgsum.numeric import ParamStore, Tensor
from dgsum.rouge import RougeScore, rouge_l_summary, rouge_n
from dgsum.text_model import (TextModelConfig, add_text_model_params, beam_search,
                              decode_beam, decode_teacher_forced)
from dgsum.training import (ModelConfig, Resources, TrainConfig, fit,
                            graph_similarity_loss, prepare_bundle,
                            summarize_bundle, train_step)
from conftest import all_tokens, cluster_from_texts
from oracles import (attention_coefficient, decode_greedy, dense_channel_oracle,
                     enumerate_graph_oracle, graph_to_oracle_form, head_arrays,
                     rouge_l_summary_oracle)

import math


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n:02d} FAIL  {desc}")
        raise
    print(f"\nACCEPTANCE {n:02d} PASS  {desc}")


def toy_model_cfg(no_mgat=False, no_compressor=False):
    text = TextModelConfig(d_model=32, n_layers_enc=1, n_layers_dec=1, n_heads=2,
                           ffn_dim=48, attention_window=8, max_in_len=128,
                           max_out_len=12)
    mgat = MgatConfig(n_layers=1, n_heads=1, d_in=32, d_head=8,
                      single_channel=no_mgat)
    return ModelConfig(text=text, mgat=mgat, comp=CompressorConfig(k=0.6),
                       no_compressor=no_compressor)


@pytest.fixture
def toy_setup(toy_corpus_path, toy_embeddings_path):
    clusters = load_clusters(toy_corpus_path)
    vocab = build_vocab(clusters, min_freq=1)
    table = EmbeddingTable.load(toy_embeddings_path, 8)
    resources = Resources.default(vocab, table)
    return clusters, vocab, table, resources


def test_criterion_1_graph_construction_oracle(fixture_2x2x2, table_for):
    with criterion(1, "graph construction matches brute-force enumeration"):
        t0 = time.time()
        handcrafted = [
            fixture_2x2x2,
            cluster_from_texts("a1", ["went there again"]),
            cluster_from_texts("a2", ["storm hits coast. waves flood town."]),
            cluster_from_texts("a3", ["storm hits coast. rescue begins now.",
                                      "storm nears coast tonight."]),
            cluster_from_texts("a4", ["alpha beta gamma. delta epsilon.",
                                      "beta gamma delta.",
                                      "epsilon alpha. gamma beta alpha."]),
            cluster_from_texts("a5", ["police found the gunman. he fled the town.",
                                      "police kill the gunman."]),
        ]
        assert len(handcrafted) >= 5
        from dgsum.corpus import layout
        from dgsum.rouge import rouge_avg_f1
        for cluster in handcrafted:
            table = table_for([cluster])
            for cfg in (GraphConfig(), GraphConfig(we_threshold=0.0)):
                g = build_hetero_graph(cluster, table, MeanWordEmbedder(table), cfg)
                bounds = layout(cluster, cfg.max_input_len)
                exp_nodes, exp_edges = enumerate_graph_oracle(
                    cluster, table, bounds, we_threshold=cfg.we_threshold,
                    ss_threshold=cfg.ss_threshold,
                    noun_fn=noun_candidates,
                    dd_weight_fn=rouge_avg_f1)
                got_nodes, got_edges = graph_to_oracle_form(g)
                assert sorted(got_nodes) == sorted(exp_nodes)          # exact counts
                for etype in EDGE_TYPES:
                    assert set(got_edges[etype]) == set(exp_edges[etype])
                    for pair, w in exp_edges[etype].items():
                        assert abs(got_edges[etype][pair] - w) < 1e-9  # weights
        elapsed = time.time() - t0
        assert elapsed < 5.0, f"graph oracle took {elapsed:.1f}s"


def test_criterion_2_rouge_fixtures():
    with criterion(2, "ROUGE hand fixtures and brute-force LCS agreement"):
        # 1: identity
        assert rouge_n(["a", "b", "c"], ["a", "b", "c"], 1) == RougeScore(1, 1, 1)
        # 2: disjoint
        assert rouge_n(["a", "b"], ["c", "d"], 1) == RougeScore(0, 0, 0)
        # 3: the police kill/killed pair
        s = rouge_n(["police", "kill", "the", "gunman"],
                    ["police", "killed", "the", "gunman"], 1)
        assert abs(s.precision - 0.75) < 1e-9 and abs(s.f1 - 0.75) < 1e-9
        # 4: bigram hand count
        s = rouge_n(["a", "b", "c"], ["a", "b", "d", "c"], 2)
        assert abs(s.precision - 1 / 2) < 1e-9 and abs(s.recall - 1 / 3) < 1e-9
        # 5: clipped repeats
        s = rouge_n(["a", "a", "a"], ["a", "b"], 1)
        assert abs(s.precision - 1 / 3) < 1e-9 and abs(s.recall - 1 / 2) < 1e-9
        # 6: multi-sentence summary-level R-L (reordering is free)
        got = rouge_l_summary([["d", "e"], ["a", "b", "c"]],
                              [["a", "b", "c"], ["d", "e"]])
        assert abs(got.f1 - 1.0) < 1e-9
        # 7: partial-overlap R-L hand case
        got = rouge_l_summary([["the", "gunman", "fled"]],
                              [["the", "gunman", "was", "shot"]])
        assert abs(got.precision - 2 / 3) < 1e-9 and abs(got.recall - 0.5) < 1e-9

        rng = np.random.default_rng(7)
        vocab = list("abcdef")
        for _ in range(20):
            cand = [[vocab[i] for i in rng.integers(0, 6, rng.integers(1, 7))]
                    for _ in range(rng.integers(1, 4))]
            ref = [[vocab[i] for i in rng.integers(0, 6, rng.integers(1, 7))]
                   for _ in range(rng.integers(1, 4))]
            got = rouge_l_summary(cand, ref)
            p, r, f1 = rouge_l_summary_oracle(cand, ref)
            assert abs(got.precision - p) < 1e-9
            assert abs(got.recall - r) < 1e-9
            assert abs(got.f1 - f1) < 1e-9


def test_criterion_3_gradient_suite(table_for):
    with criterion(3, "central-difference gradient checks at double precision"):
        t0 = time.time()
        rng = np.random.default_rng(0)

        # every numeric primitive, rel err < 1e-6
        def t(*shape, rg=True):
            return Tensor(rng.normal(size=shape), requires_grad=rg)

        a, b = t(3, 4), t(4, 2)
        assert nm.grad_check(lambda: nm.mean(nm.power(nm.matmul(a, b), 2.0)),
                             {"a": a, "b": b}) < 1e-6
        x, y = t(3, 4), t(4)
        assert nm.grad_check(lambda: nm.mean(nm.power(nm.add(x, y), 2.0)),
                             {"x": x, "y": y}) < 1e-6
        m1, m2 = t(4, 3), t(4, 1)
        assert nm.grad_check(lambda: nm.mean(nm.mul(m1, m2)), {"a": m1, "b": m2}) < 1e-6
        sc = t(3, 3)
        assert nm.grad_check(lambda: nm.mean(nm.power(nm.mul(sc, 2.5), 2.0)),
                             {"x": sc}) < 1e-6
        sm = t(3, 5)
        probe = Tensor(rng.normal(size=(3, 5)))
        assert nm.grad_check(lambda: nm.mean(nm.mul(nm.softmax(sm), probe)),
                             {"sm": sm}) < 1e-6
        lr_in = t(5, 4)
        assert nm.grad_check(lambda: nm.mean(nm.leaky_relu(lr_in, 0.2)),
                             {"x": lr_in}) < 1e-6
        el = t(5, 4)
        el_probe = Tensor(rng.normal(size=(5, 4)))
        assert nm.grad_check(lambda: nm.mean(nm.mul(nm.elu(el), el_probe)),
                             {"x": el}) < 1e-6
        mn = t(5, 4)
        assert nm.grad_check(lambda: nm.sum_(nm.power(nm.mean(mn, axis=0), 2.0)),
                             {"x": mn}) < 1e-6
        c1, c2 = t(2, 3), t(3, 3)
        assert nm.grad_check(
            lambda: nm.mean(nm.power(nm.concat([c1, c2], axis=0), 2.0)),
            {"a": c1, "b": c2}) < 1e-6
        u, v = t(6), t(6)
        assert nm.grad_check(lambda: nm.cosine_sim(u, v), {"u": u, "v": v}) < 1e-6
        mf = t(4, 4)
        mask = rng.random((4, 4)) < 0.4
        assert nm.grad_check(
            lambda: nm.mean(nm.power(nm.masked_fill(mf, mask, -3.0), 2.0)),
            {"x": mf}) < 1e-6
        emb_t = t(7, 3)
        ids = np.array([1, 1, 4, 6])
        assert nm.grad_check(
            lambda: nm.mean(nm.power(nm.gather_rows(emb_t, ids), 2.0)),
            {"table": emb_t}) < 1e-6
        ln_x, ln_g, ln_b = t(4, 5), t(5), t(5)
        ln_p = Tensor(rng.normal(size=(4, 5)))
        assert nm.grad_check(
            lambda: nm.mean(nm.mul(nm.layer_norm(ln_x, ln_g, ln_b), ln_p)),
            {"x": ln_x, "g": ln_g, "b": ln_b}) < 1e-6
        dr = t(6, 6)

        def drop_loss():
            return nm.mean(nm.dropout(dr, 0.3, np.random.default_rng(5), train=True))

        assert nm.grad_check(drop_loss, {"x": dr}) < 1e-6
        ce_l = t(4, 6)
        targets = np.array([0, 2, 5, 1])
        assert nm.grad_check(
            lambda: nm.cross_entropy_smoothed(ce_l, targets, 0.1), {"l": ce_l}) < 1e-6

        # 2-layer MGAT on a <=12-node heterogeneous graph, all parameters
        cluster = cluster_from_texts("gc", ["storm coast. flood town."])
        table = table_for([cluster], dim=4)
        g = build_hetero_graph(cluster, table, MeanWordEmbedder(table), GraphConfig())
        assert g.n_nodes <= 12
        cfg = MgatConfig(n_layers=2, n_heads=2, d_in=5, d_head=3)
        store = ParamStore()
        add_mgat_params(store, cfg, np.random.default_rng(13))
        h = Tensor(np.random.default_rng(1).normal(size=(g.n_nodes, 5)),
                   requires_grad=True)
        mg_probe = Tensor(np.random.default_rng(2).normal(size=(g.n_nodes, 5)))

        def mgat_loss():
            return nm.mean(nm.mul(mgat_encode(h, g, store, cfg), mg_probe))

        all_params = dict(store.items())
        assert all(f"mgat{l}.{c}.{p}" in all_params
                   for l in range(2) for c in EDGE_TYPES for p in ("W", "a"))
        all_params["h0"] = h
        assert nm.grad_check(mgat_loss, all_params, max_entries=24) < 1e-5

        # compressor path through r
        comp_store = ParamStore()
        from dgsum.compressor import add_compressor_params
        add_compressor_params(comp_store, 5, np.random.default_rng(4))
        q0 = np.random.default_rng(3).normal(size=(g.n_nodes, 5))
        cprobe = Tensor(np.random.default_rng(5).normal(size=(1, 5)))

        def comp_loss():
            q_p, _, _, _ = compress_graph(Tensor(q0), g, comp_store,
                                          CompressorConfig(k=0.5))
            return nm.mean(nm.mul(q_p, cprobe))

        assert nm.grad_check(comp_loss, {"comp.r": comp_store["comp.r"]}) < 1e-5

        # full train_step total loss on a micro cluster
        d = 10
        text = TextModelConfig(d_model=d, n_layers_enc=1, n_layers_dec=1, n_heads=2,
                               ffn_dim=12, attention_window=3, max_in_len=64,
                               max_out_len=8)
        micro = ModelConfig(text=text,
                            mgat=MgatConfig(n_layers=1, n_heads=1, d_in=d, d_head=3),
                            comp=CompressorConfig(k=0.5))
        cl = cluster_from_texts(
            "micro", ["storm hits coast. flood comes.", "rescue begins now."],
            summary="storm floods town.")
        vocab = build_vocab([cl], min_freq=1)
        emb = EmbeddingTable.random(all_tokens(cl), 5, seed=2)
        resources = Resources.default(vocab, emb)
        params = micro.build_params(len(vocab), 4)
        bundle = prepare_bundle(cl, resources, micro)

        def step_loss():
            from dgsum.training import encode_compress, encode_graph
            q_p, positions, _, _ = encode_compress(bundle, params, micro)
            logits = decode_teacher_forced(q_p, positions, [Vocab.BOS] + bundle.target,
                                           params, micro.text)
            l_ce = nm.cross_entropy_smoothed(logits, bundle.target + [Vocab.EOS], 0.1)
            q_z = encode_graph(bundle.sum_ids, bundle.sum_graph, params, micro)
            l_gs = graph_similarity_loss(q_p, q_z)
            return nm.add(nm.mul(l_ce, 0.5), nm.mul(l_gs, 0.5))

        assert nm.grad_check(step_loss, dict(params.items()), max_entries=4) < 1e-4

        elapsed = time.time() - t0
        assert elapsed < 300.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_4_mgat_properties(table_for):
    with criterion(4, "MGAT normalization, equivariance, isolation, zero-weight"):
        rng = np.random.default_rng(44)
        cfg = MgatConfig(n_layers=2, n_heads=2, d_in=6, d_head=3)
        store = ParamStore()
        add_mgat_params(store, cfg, np.random.default_rng(5))

        # attention rows sum to 1 (recomputed densely) and equivariance
        from test_mgat import permute_graph
        for trial in range(10):
            cluster = cluster_from_texts(
                f"p{trial}", ["storm coast. flood town.", "rain falls."])
            table = table_for([cluster], seed=trial)
            g = build_hetero_graph(cluster, table, MeanWordEmbedder(table),
                                   GraphConfig())
            h = rng.normal(size=(g.n_nodes, 6))
            for ch in EDGE_TYPES:
                ew, mask = dense_channel_oracle(g, ch)
                W, w = head_arrays(store[f"mgat0.{ch}.W"].data, store[f"mgat0.{ch}.a"].data)[0]
                s = h @ W.T
                raw = (s @ w[:3])[:, None] + (s @ w[3:])[None, :]
                d = np.where(raw * ew > 0, raw * ew, 0.2 * raw * ew)
                logits = np.where(mask, d, -1e9)
                e = np.exp(logits - logits.max(axis=1, keepdims=True))
                alpha = e / e.sum(axis=1, keepdims=True)
                assert np.all(np.abs(alpha.sum(axis=1) - 1.0) < 1e-6)

            base = mgat_encode(Tensor(h), g, store, cfg).data
            perm = rng.permutation(g.n_nodes)
            out = mgat_encode(Tensor(h[perm]), permute_graph(g, perm), store, cfg).data
            assert np.array_equal(out, base[perm])  # exact under row permutation

        # channel isolation: emptying one channel leaves other blocks bit-equal
        from dgsum.mgat import channel_attention, channel_edges
        cluster = cluster_from_texts("iso", ["storm coast. flood town.", "rain now."])
        table = table_for([cluster])
        g = build_hetero_graph(cluster, table, MeanWordEmbedder(table), GraphConfig())
        h = Tensor(rng.normal(size=(g.n_nodes, 6)))
        params = {ch: (store[f"mgat0.{ch}.W"], store[f"mgat0.{ch}.a"]) for ch in EDGE_TYPES}
        before = {ch: channel_attention(h, channel_edges(g, ch), *params[ch]).data
                  for ch in EDGE_TYPES}
        stripped = HeteroGraph(g.nodes, {**g.edges, "WO": []})
        for ch in EDGE_TYPES:
            after = channel_attention(h, channel_edges(stripped, ch), *params[ch]).data
            if ch == "WO":
                assert not np.array_equal(after, before[ch])
            else:
                assert np.array_equal(after, before[ch])

        # zero edge weight -> zero coefficient, 50 random graphs
        for _ in range(50):
            W = Tensor(rng.normal(size=(3, 5)))
            w = Tensor(rng.normal(size=6))
            hi, hj = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))
            assert attention_coefficient(hi, hj, 0.0, W, w).item() == 0.0


def test_criterion_5_compressor_properties(table_for):
    with criterion(5, "compressor cardinality, closure, nestedness, ties"):
        rng = np.random.default_rng(3)
        for trial in range(12):
            n_sents = int(rng.integers(2, 7))
            text = " ".join(
                " ".join(rng.choice(["storm", "went", "coast", "there", "flood"],
                                    size=rng.integers(1, 4))) + "."
                for _ in range(n_sents))
            cluster = cluster_from_texts(f"c{trial}", [text])
            table = table_for([cluster], seed=trial)
            g = build_hetero_graph(cluster, table, MeanWordEmbedder(table),
                                   GraphConfig())
            n_s = len(g.kind_indices("sentence"))
            t = rng.random(g.n_nodes)
            selections = []
            for k in (0.1, 0.25, 0.5, 0.75, 1.0):
                sel = select_topk_sentences(t, k, g)
                assert len(sel) == math.ceil(k * n_s)  # exact cardinality
                selections.append(set(sel.tolist()))
            for small, big in zip(selections, selections[1:]):
                assert small <= big  # k-monotone nestedness
            full = extend_selection(selections[-1] and select_topk_sentences(t, 1.0, g), g)
            assert np.array_equal(full, np.arange(g.n_nodes))  # k=1 keeps all

            chosen = select_topk_sentences(t, 0.5, g)
            closure = extend_selection(chosen, g)
            chosen_set = set(chosen.tolist())
            for idx in closure:
                nd = g.nodes[int(idx)]
                if nd.kind == "word":
                    (s_idx, _), = g.adjacency("SW", int(idx))
                    assert s_idx in chosen_set  # closure soundness
                elif nd.kind == "document":
                    assert any(j in chosen_set for j, _ in g.adjacency("DS", int(idx)))

            uniform = np.full(g.n_nodes, 0.25)
            tie_runs = [select_topk_sentences(uniform, 0.5, g) for _ in range(3)]
            assert all(np.array_equal(tie_runs[0], r) for r in tie_runs)
            assert np.array_equal(tie_runs[0],
                                  g.kind_indices("sentence")[:len(tie_runs[0])])


def test_criterion_6_overfit_reproduction(toy_setup):
    with criterion(6, "overfit: L_ce < 0.1 and >=7/8 exact greedy reproductions"):
        t0 = time.time()
        clusters, vocab, table, resources = toy_setup
        assert len(clusters) == 8
        model_cfg = toy_model_cfg()
        params = model_cfg.build_params(len(vocab), seed=7)
        bundles = [prepare_bundle(c, resources, model_cfg) for c in clusters]
        tc = TrainConfig(beta=0.5, label_smoothing=0.0, lr=3e-3, epochs=150,
                         seed=7, eval_every=10 ** 9, patience=10 ** 9)
        result = fit(bundles, bundles, params, model_cfg, tc, resources)
        steps = [r for r in result.log if r["kind"] == "step"]
        assert len(steps) <= 2000
        final_lce = float(np.mean([r["l_ce"] for r in steps[-8:]]))
        assert final_lce < 0.1, f"final-epoch L_ce {final_lce:.4f}"
        exact = sum(
            summarize_bundle(b, result.params, model_cfg, vocab, beam_width=1)
            == [t for s in b.reference for t in s][:model_cfg.text.max_out_len - 1]
            for b in bundles)
        assert exact >= 7, f"only {exact}/8 summaries reproduced"
        elapsed = time.time() - t0
        assert elapsed < 900.0, f"overfit run took {elapsed:.1f}s"
        print(f"\n  [criterion 6 detail] steps={len(steps)} L_ce={final_lce:.4f} "
              f"exact={exact}/8 wall={elapsed:.1f}s")


def test_criterion_7_ablation_wiring(toy_setup):
    with criterion(7, "ablation switches are real: distinct models, all train"):
        clusters, vocab, table, resources = toy_setup
        variants = {
            "full": (toy_model_cfg(), 0.5),
            "no_mgat": (toy_model_cfg(no_mgat=True), 0.5),
            "no_compressor": (toy_model_cfg(no_compressor=True), 0.5),
            "beta_1.0": (toy_model_cfg(), 1.0),
        }
        stats = {}
        for name, (mc, beta) in variants.items():
            tc = TrainConfig(beta=beta, label_smoothing=0.0, lr=3e-3, epochs=80,
                             seed=7, eval_every=10 ** 9, patience=10 ** 9)
            probe_params = mc.build_params(len(vocab), seed=7)
            bundles = [prepare_bundle(c, resources, mc) for c in clusters]
            bd1, _ = train_step(bundles[0], probe_params, mc, tc)
            params = mc.build_params(len(vocab), seed=7)
            result = fit(bundles, bundles, params, mc, tc, resources)
            steps = [r for r in result.log if r["kind"] == "step"]
            final_lce = float(np.mean([r["l_ce"] for r in steps[-8:]]))
            stats[name] = (params.total_count(), bd1.total, final_lce)
            assert final_lce < 0.5, f"{name}: final L_ce {final_lce:.3f}"
        full_count, full_step1, _ = stats["full"]
        for name in ("no_mgat", "no_compressor", "beta_1.0"):
            count, step1, _ = stats[name]
            assert count != full_count or step1 != full_step1, name
        assert stats["no_mgat"][0] != full_count
        assert stats["no_compressor"][0] != full_count
        assert stats["beta_1.0"][1] != full_step1
        print("\n  [criterion 7 detail] " + "; ".join(
            f"{k}: params={v[0]}, step1={v[1]:.3f}, L_ce={v[2]:.3f}"
            for k, v in stats.items()))


def test_criterion_8_decoding_contracts():
    with criterion(8, "beam/greedy equivalence, enumeration fixture, causality"):
        # beam width 1 == greedy on 20 random checkpoints/inputs
        for seed in range(20):
            cfg = TextModelConfig(d_model=16, n_layers_enc=1, n_layers_dec=1,
                                  n_heads=2, ffn_dim=24, attention_window=2,
                                  max_in_len=64, max_out_len=8)
            store = ParamStore()
            add_text_model_params(store, cfg, 12, np.random.default_rng(seed))
            rng = np.random.default_rng(seed + 500)
            memory = Tensor(rng.normal(size=(4, cfg.d_model)))
            positions = rng.integers(0, cfg.max_in_len, size=4)
            assert (decode_beam(memory, positions, store, cfg, beam_width=1)
                    == decode_greedy(memory, positions, store, cfg)), seed

        # beam 2 finds what exhaustive enumeration ranks first (rigged logits)
        eos = 0
        table = {
            (9,): [0.01, 0.54, 0.45],
            (9, 1): [0.10, 0.45, 0.45],
            (9, 2): [0.02, 0.08, 0.90],
            (9, 2, 2): [0.97, 0.02, 0.01],
        }

        def step(prefix):
            probs = table.get(tuple(prefix), [1 / 3] * 3)
            return np.log(np.asarray(probs))

        best, best_score = None, -np.inf
        stack = [((9,), 0.0)]
        while stack:
            prefix, score = stack.pop()
            gen = len(prefix) - 1
            logp = step(list(prefix))
            if gen < 3:
                for tok in (1, 2):
                    stack.append((prefix + (tok,), score + logp[tok]))
                cand = ((score + logp[eos]) / (gen + 1), list(prefix[1:]))
            else:
                cand = (score / gen, list(prefix[1:]))
            if cand[0] > best_score:
                best_score, best = cand
        got = beam_search(lambda ps: np.stack([step(p) for p in ps]), bos=9, eos=eos,
                          beam_width=2, max_len=3)
        assert got == best
        assert got and got[0] == 2  # greedy would start with token 1

        # causality probe: rows before a perturbed position are bit-identical
        cfg = TextModelConfig(d_model=16, n_layers_enc=1, n_layers_dec=2, n_heads=2,
                              ffn_dim=24, attention_window=2, max_in_len=64,
                              max_out_len=8)
        store = ParamStore()
        add_text_model_params(store, cfg, 14, np.random.default_rng(77))
        memory = Tensor(np.random.default_rng(78).normal(size=(5, cfg.d_model)))
        positions = np.arange(5)
        target = [Vocab.BOS, 6, 7, 8, 9, 10]
        base = decode_teacher_forced(memory, positions, target, store, cfg).data
        for j in range(1, len(target)):
            perturbed = list(target)
            perturbed[j] = 11
            out = decode_teacher_forced(memory, positions, perturbed, store, cfg).data
            assert np.array_equal(out[:j], base[:j]), f"rows before {j} changed"


def test_criterion_9_ksweep_harness(tmp_path, toy_corpus_path, toy_embeddings_path,
                                    capsys):
    with criterion(9, "ksweep emits the (k, mean length) table over {0.2,0.5,0.8}"):
        model_dir = tmp_path / "kmodel"
        flags = ["--d-model", "16", "--n-heads", "2", "--ffn-dim", "24",
                 "--n-layers-enc", "1", "--n-layers-dec", "1",
                 "--attention-window", "4", "--max-out-len", "12",
                 "--mgat-layers", "1", "--mgat-heads", "1", "--mgat-head-dim", "4",
                 "--embedding-dim", "8", "--min-freq", "1", "--epochs", "2",
                 "--patience", "999", "--seed", "3", "--label-smoothing", "0"]
        rc = main(["train", "--data", str(toy_corpus_path),
                   "--embeddings", str(toy_embeddings_path),
                   "--out", str(model_dir), *flags])
        assert rc == 0
        out_file = tmp_path / "sweep.jsonl"
        rc = main(["ksweep", "--model", str(model_dir),
                   "--data", str(toy_corpus_path),
                   "--embeddings", str(toy_embeddings_path),
                   "--k-values", "0.2,0.5,0.8", "--out", str(out_file)])
        assert rc == 0
        stdout = capsys.readouterr().out
        import json
        rows = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert [r["k"] for r in rows] == [0.2, 0.5, 0.8]
        for row in rows:
            assert "mean_length" in row and row["mean_length"] >= 0
        assert "mean_len" in stdout and "trend" in stdout
        lengths = [r["mean_length"] for r in rows]
        # the qualitative full-scale trend is reported, NOT asserted
        print(f"\n  [criterion 9 detail] lengths by k: "
              f"{dict(zip([r['k'] for r in rows], lengths))}")


def test_criterion_10_loss_identities(toy_setup):
    with criterion(10, "loss identity, L_gs endpoint, beta gradient routing"):
        clusters, vocab, table, resources = toy_setup
        model_cfg = toy_model_cfg()
        bundles = [prepare_bundle(clusters[0], resources, model_cfg)]
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
            params = model_cfg.build_params(len(vocab), seed=1)
            bd, grads = train_step(bundles[0], params, model_cfg,
                                   TrainConfig(beta=beta, label_smoothing=0.1))
            assert bd.total == beta * bd.l_ce + (1 - beta) * bd.l_gs  # exact
            assert bd.l_ce >= 0.0
            assert -1.0 <= bd.l_gs <= 1.0
            if beta == 0.0:
                for name, g in grads.items():
                    if name.startswith(("dec", "out.")) or "pos_dec" in name:
                        assert np.all(g == 0.0), name
            if beta == 1.0:
                assert bd.l_gs == 0.0
                assert np.any(grads["comp.r"] != 0.0)  # via the decoder path only

        # L_gs = -1 when the compressed rows equal the summary-graph rows
        q = Tensor(np.random.default_rng(0).normal(size=(5, 8)))
        assert graph_similarity_loss(q, q).item() == pytest.approx(-1.0, abs=1e-12)
