"""Loss identities, gradient routing, the end-to-end pipeline, and fit."""

import numpy as np
import pytest

import dgsum.numeric as nm
from dgsum import rouge, training
from dgsum.compressor import CompressorConfig
from dgsum.corpus import build_vocab
from dgsum.embeddings import EmbeddingTable
from dgsum.errors import DataError
from dgsum.mgat import MgatConfig
from dgsum.numeric import Tensor
from dgsum.text_model import TextModelConfig
from dgsum.training import (ModelConfig, Resources, TrainConfig, evaluate_dev,
                            fit, graph_similarity_loss, prepare_bundle,
                            summarize_bundle, train_step)
from conftest import all_tokens, cluster_from_texts
from oracles import summarize_greedy


def micro_model_cfg(d=12, **kw):
    text = TextModelConfig(d_model=d, n_layers_enc=1, n_layers_dec=1, n_heads=2,
                           ffn_dim=16, attention_window=4, max_in_len=64,
                           max_out_len=12, dropout=0.0)
    mgat = MgatConfig(n_layers=1, n_heads=1, d_in=d, d_head=4)
    return ModelConfig(text=text, mgat=mgat, comp=CompressorConfig(k=0.5), **kw)


def micro_setup(model_cfg=None, seed=0):
    cluster = cluster_from_texts(
        "m", ["storm hits coast. flood reaches town.",
              "storm nears coast. rescue begins."],
        summary="storm floods town.")
    vocab = build_vocab([cluster], min_freq=1)
    table = EmbeddingTable.random(all_tokens(cluster), 6, seed=1)
    resources = Resources.default(vocab, table)
    model_cfg = model_cfg or micro_model_cfg()
    params = model_cfg.build_params(len(vocab), seed)
    bundle = prepare_bundle(cluster, resources, model_cfg)
    return cluster, vocab, resources, model_cfg, params, bundle


class TestGraphSimilarityLoss:
    def test_identical_rows_minus_one(self):
        q = Tensor(np.random.default_rng(0).normal(size=(4, 6)))
        assert graph_similarity_loss(q, q).item() == pytest.approx(-1.0)

    def test_orthogonal_means_zero(self):
        a = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        b = Tensor(np.array([[0.0, 2.0], [0.0, 4.0]]))
        assert graph_similarity_loss(a, b).item() == 0.0

    def test_two_row_fixture_matches_mean_cosine(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 5))
        b = rng.normal(size=(2, 5))
        ma, mb = a.mean(axis=0), b.mean(axis=0)
        expected = -(ma @ mb) / (np.linalg.norm(ma) * np.linalg.norm(mb))
        got = graph_similarity_loss(Tensor(a), Tensor(b)).item()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_norm_warns_and_returns_zero(self, caplog):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.ones((2, 3)))
        with caplog.at_level("WARNING"):
            out = graph_similarity_loss(a, b)
        assert out.item() == 0.0
        assert any("zero-norm" in r.message for r in caplog.records)

    def test_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = Tensor(rng.normal(size=(3, 4)))
            b = Tensor(rng.normal(size=(3, 4)))
            assert -1.0 <= graph_similarity_loss(a, b).item() <= 1.0


class TestTrainStep:
    def test_loss_identity_exact(self):
        for beta in (0.0, 0.3, 0.5, 1.0):
            _, _, _, model_cfg, params, bundle = micro_setup()
            tc = TrainConfig(beta=beta, label_smoothing=0.1)
            bd, _ = train_step(bundle, params, model_cfg, tc)
            assert bd.total == beta * bd.l_ce + (1 - beta) * bd.l_gs  # bitwise
            assert bd.l_ce >= 0.0
            assert -1.0 <= bd.l_gs <= 1.0

    def test_beta_zero_decoder_gets_no_gradient(self):
        _, _, _, model_cfg, params, bundle = micro_setup()
        bd, grads = train_step(bundle, params, model_cfg, TrainConfig(beta=0.0))
        for name in grads:
            if name.startswith("dec") or name.startswith("out.") or "pos_dec" in name:
                assert np.all(grads[name] == 0.0), name
        # the graph-similarity path still reaches the compressor projection
        assert np.any(grads["comp.r"] != 0.0)

    def test_beta_one_r_gradient_comes_from_decoder_path(self):
        _, _, _, model_cfg, params, bundle = micro_setup()
        bd, grads = train_step(bundle, params, model_cfg, TrainConfig(beta=1.0))
        assert bd.l_gs == 0.0

        # reference: backward through the cross-entropy alone
        from dgsum.training import cross_entropy_smoothed, encode_compress
        from dgsum.text_model import decode_teacher_forced
        rng = np.random.default_rng(TrainConfig().seed)
        q_p, positions, _, _ = encode_compress(bundle, params, model_cfg,
                                               train=True, rng=rng)
        logits = decode_teacher_forced(q_p, positions, bundle.target_input, params,
                                       model_cfg.text, train=True, rng=rng)
        l_ce = cross_entropy_smoothed(logits, bundle.target_gold, 0.1)
        params.zero_grads()
        l_ce.backward()
        assert np.allclose(params["comp.r"].grad, grads["comp.r"], atol=1e-12)
        assert np.any(grads["comp.r"] != 0.0)

    def test_missing_summary_rejected(self):
        _, _, resources, model_cfg, params, _ = micro_setup()
        bare = cluster_from_texts("b", ["storm hits coast."])
        bundle = prepare_bundle(bare, resources, model_cfg)
        with pytest.raises(DataError):
            train_step(bundle, params, model_cfg, TrainConfig())

    def test_no_compressor_ablation_runs(self):
        model_cfg = micro_model_cfg(no_compressor=True)
        _, _, _, _, params, bundle = micro_setup(model_cfg)
        assert "comp.r" not in params
        bd, grads = train_step(bundle, params, model_cfg, TrainConfig())
        assert np.isfinite(bd.total)

    def test_no_mgat_ablation_runs(self):
        d = 12
        text = TextModelConfig(d_model=d, n_layers_enc=1, n_layers_dec=1, n_heads=2,
                               ffn_dim=16, attention_window=4, max_in_len=64,
                               max_out_len=12)
        mgat = MgatConfig(n_layers=1, n_heads=1, d_in=d, d_head=4, single_channel=True)
        model_cfg = ModelConfig(text=text, mgat=mgat)
        _, _, _, _, params, bundle = micro_setup(model_cfg)
        bd, _ = train_step(bundle, params, model_cfg, TrainConfig())
        assert np.isfinite(bd.total)
        assert "mgat0.ALL.h0.W" in params
        assert "mgat0.WE.h0.W" not in params

    def test_end_to_end_gradient_check_micro_cluster(self):
        """Full train_step total-loss gradients on a micro cluster."""
        d = 10
        text = TextModelConfig(d_model=d, n_layers_enc=1, n_layers_dec=1, n_heads=2,
                               ffn_dim=12, attention_window=3, max_in_len=64,
                               max_out_len=8)
        mgat = MgatConfig(n_layers=1, n_heads=1, d_in=d, d_head=3)
        model_cfg = ModelConfig(text=text, mgat=mgat, comp=CompressorConfig(k=0.5))
        cluster = cluster_from_texts(
            "g", ["storm hits coast. flood comes.", "rescue begins now."],
            summary="storm floods town.")
        vocab = build_vocab([cluster], min_freq=1)
        table = EmbeddingTable.random(all_tokens(cluster), 5, seed=2)
        resources = Resources.default(vocab, table)
        params = model_cfg.build_params(len(vocab), 4)
        bundle = prepare_bundle(cluster, resources, model_cfg)
        tc = TrainConfig(beta=0.5, label_smoothing=0.1)

        def loss():
            from dgsum.training import (cross_entropy_smoothed, encode_compress,
                                        encode_summary_graph)
            from dgsum.text_model import decode_teacher_forced
            q_p, positions, _, _ = encode_compress(bundle, params, model_cfg)
            logits = decode_teacher_forced(q_p, positions, bundle.target_input,
                                           params, model_cfg.text)
            l_ce = cross_entropy_smoothed(logits, bundle.target_gold,
                                          tc.label_smoothing)
            q_z = encode_summary_graph(bundle, params, model_cfg)
            l_gs = graph_similarity_loss(q_p, q_z)
            return nm.add(nm.mul(l_ce, tc.beta), nm.mul(l_gs, 1.0 - tc.beta))

        err = nm.grad_check(loss, dict(params.items()), max_entries=4)
        assert err < 1e-4


class TestSummarizeAndDev:
    def test_inference_needs_no_summary(self):
        _, vocab, resources, model_cfg, params, _ = micro_setup()
        bare = cluster_from_texts("b", ["storm hits coast. flood comes."])
        assert bare.summary is None
        bundle = prepare_bundle(bare, resources, model_cfg, need_summary=False)
        tokens = summarize_bundle(bundle, params, model_cfg, vocab, beam_width=2,
                                  max_len=6)
        assert isinstance(tokens, list)
        assert all(isinstance(t, str) for t in tokens)

    def test_greedy_equals_beam_one(self):
        _, vocab, resources, model_cfg, params, bundle = micro_setup()
        a = summarize_bundle(bundle, params, model_cfg, vocab, beam_width=1)
        b = summarize_greedy(bundle, params, model_cfg, vocab)
        assert a == b

    def test_evaluate_dev_perfect_model_scores_one(self):
        """If decoding reproduces references exactly, dev R-L is 1."""
        _, vocab, resources, model_cfg, params, bundle = micro_setup()
        metrics = evaluate_dev([bundle], params, model_cfg, vocab)
        assert set(metrics) == {"r1", "r2", "rl"}
        assert 0.0 <= metrics["rl"] <= 1.0

    def test_evaluate_dev_is_corpus_rouge_of_beam_one_output(self):
        cluster, vocab, resources, model_cfg, params, bundle = micro_setup(seed=3)
        tc = TrainConfig(epochs=40, lr=3e-3, label_smoothing=0.0,
                         eval_every=10_000, patience=10_000)
        params = fit([bundle], [bundle], params, model_cfg, tc, resources).params
        tokens = summarize_bundle(bundle, params, model_cfg, vocab, beam_width=1)
        report = rouge.corpus_rouge({"m": " ".join(tokens)}, {"m": "storm floods town."})
        assert report["r1"] > 0.0
        assert (evaluate_dev([bundle], params, model_cfg, vocab)
                == {key: report[key] for key in ("r1", "r2", "rl")})

    def test_evaluate_dev_splits_hypothesis_sentences(self, monkeypatch):
        # a two-sentence hypothesis is scored summary-level, as `dgsum eval`
        # scores it, not as one flat sentence
        _, vocab, resources, model_cfg, params, bundle = micro_setup()
        hyp = ["town", ".", "storm", "floods", "."]
        widths = []

        def fake_summarize(bundle, params, model_cfg, vocab, beam_width=5, max_len=None):
            widths.append(beam_width)
            return hyp
        monkeypatch.setattr(training, "summarize_bundle", fake_summarize)
        metrics = evaluate_dev([bundle], params, model_cfg, vocab)
        report = rouge.corpus_rouge({"m": " ".join(hyp)}, {"m": "storm floods town."})
        assert widths == [1]
        assert metrics == {key: report[key] for key in ("r1", "r2", "rl")}
        flat = rouge.rouge_l_summary([hyp], [["storm", "floods", "town", "."]]).f1
        assert metrics["rl"] != pytest.approx(flat, abs=1e-3)


class TestFit:
    def test_zero_epochs_returns_initial(self):
        cluster, vocab, resources, model_cfg, params, bundle = micro_setup()
        before = {n: t.data.copy() for n, t in params.items()}
        result = fit([bundle], [bundle], params, model_cfg,
                     TrainConfig(epochs=0), resources)
        assert result.steps == 0
        for name, data in before.items():
            assert np.array_equal(result.params[name].data, data)

    def test_loss_decreases_on_repeated_cluster(self):
        cluster, vocab, resources, model_cfg, params, bundle = micro_setup(seed=3)
        tc = TrainConfig(epochs=50, lr=3e-3, beta=0.5, label_smoothing=0.0,
                         eval_every=10_000, patience=10_000)
        result = fit([bundle], [bundle], params, model_cfg, tc, resources)
        totals = [r["total"] for r in result.log if r["kind"] == "step"]
        assert len(totals) == 50
        assert np.mean(totals[-10:]) < np.mean(totals[:10])

    def test_seeded_rerun_bit_identical(self):
        logs = []
        for _ in range(2):
            cluster, vocab, resources, model_cfg, params, bundle = micro_setup(seed=9)
            tc = TrainConfig(epochs=5, lr=1e-3, seed=42, eval_every=10_000,
                             patience=10_000)
            result = fit([bundle], [bundle], params, model_cfg, tc, resources)
            logs.append([(r["l_ce"], r["l_gs"], r["total"])
                         for r in result.log if r["kind"] == "step"])
        assert logs[0] == logs[1]  # bitwise identical in double mode

    def test_accumulation_changes_update_cadence_not_loss_path(self):
        cluster, vocab, resources, model_cfg, params, bundle = micro_setup(seed=5)
        tc = TrainConfig(epochs=2, accum=2, eval_every=10_000, patience=10_000)
        result = fit([bundle, bundle], [bundle], params, model_cfg, tc, resources)
        assert result.steps == 4

    def test_dev_log_records(self):
        cluster, vocab, resources, model_cfg, params, bundle = micro_setup()
        tc = TrainConfig(epochs=2, eval_every=None, patience=50)
        result = fit([bundle], [bundle], params, model_cfg, tc, resources)
        dev_recs = [r for r in result.log if r["kind"] == "dev"]
        assert len(dev_recs) == 2  # one per epoch end
        for rec in dev_recs:
            assert {"r1", "r2", "rl", "step"} <= set(rec)
