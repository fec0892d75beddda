"""Loss identities, gradient routing, the end-to-end pipeline, and fit."""

import dataclasses
import functools
import gc
import weakref

import numpy as np
import pytest

import dgsum.numeric as nm
from dgsum import rouge, training
from dgsum.compressor import CompressorConfig
from dgsum.corpus import Vocab, build_vocab
from dgsum.embeddings import EmbeddingTable
from dgsum.errors import ConfigError, DataError
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
        from dgsum.training import encode_compress
        from dgsum.text_model import decode_teacher_forced
        rng = np.random.default_rng(TrainConfig().seed)
        q_p, positions, _, _ = encode_compress(bundle, params, model_cfg,
                                               train=True, rng=rng)
        logits = decode_teacher_forced(q_p, positions, [Vocab.BOS] + bundle.target, params,
                                       model_cfg.text, train=True, rng=rng)
        l_ce = nm.cross_entropy_smoothed(logits, bundle.target + [Vocab.EOS], 0.1)
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

    def test_gradients_share_no_memory(self):
        """Gradients kept without a copy belong to one parameter each: none
        overlaps another gradient or any parameter's data."""
        _, _, _, model_cfg, params, bundle = micro_setup()
        _, grads = train_step(bundle, params, model_cfg, TrainConfig(beta=0.5))
        arrays = list(grads.values()) + [t.data for _, t in params.items()]
        for i, g in enumerate(grads.values()):
            for other in arrays[i + 1:]:
                assert not np.shares_memory(g, other)

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
        assert "mgat0.ALL.W" in params and "mgat0.ALL.a" in params
        assert "mgat0.WE.W" not in params

    def test_single_precision_step_stays_float32(self):
        """Parameters, gradients and Adam moments stay float32 through a
        step whose graphs carry float64 edge weights, and the losses agree
        with the double-precision step to single precision."""
        base = micro_model_cfg()
        model_cfg = ModelConfig(text=base.text, comp=base.comp,
                                mgat=MgatConfig(n_layers=2, n_heads=2, d_in=12, d_head=4))
        _, _, _, _, params, bundle = micro_setup(model_cfg)
        want, _ = train_step(bundle, params, model_cfg, TrainConfig())
        model_cfg = dataclasses.replace(model_cfg, precision="single")
        _, _, _, _, params, bundle = micro_setup(model_cfg)
        got, grads = train_step(bundle, params, model_cfg, TrainConfig())
        for name, t in params.items():
            t.grad = grads[name]
        adam = nm.Adam(params)
        adam.step()
        for name, t in params.items():
            assert t.data.dtype == grads[name].dtype == np.float32, name
            assert adam._m[name].dtype == adam._v[name].dtype == np.float32, name
        for a, b in ((got.l_ce, want.l_ce), (got.l_gs, want.l_gs), (got.total, want.total)):
            assert a == pytest.approx(b, rel=1e-5)

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
            from dgsum.training import encode_compress, encode_graph
            from dgsum.text_model import decode_teacher_forced
            q_p, positions, _, _ = encode_compress(bundle, params, model_cfg)
            logits = decode_teacher_forced(q_p, positions, [Vocab.BOS] + bundle.target,
                                           params, model_cfg.text)
            l_ce = nm.cross_entropy_smoothed(logits, bundle.target + [Vocab.EOS],
                                             tc.label_smoothing)
            q_z = encode_graph(bundle.sum_ids, bundle.sum_graph, params, model_cfg)
            l_gs = graph_similarity_loss(q_p, q_z)
            return nm.add(nm.mul(l_ce, tc.beta), nm.mul(l_gs, 1.0 - tc.beta))

        err = nm.grad_check(loss, dict(params.items()), max_entries=4)
        assert err < 1e-4


@pytest.fixture
def tensor_dtypes(monkeypatch):
    """The dtype of every tensor made from now on, in order."""
    made = []
    init = nm.Tensor.__init__

    def recorded(self, data, requires_grad=False):
        init(self, data, requires_grad)
        made.append(self.data.dtype)

    monkeypatch.setattr(nm.Tensor, "__init__", recorded)
    return made


class TestPrecision:
    """Precision is the model's: its parameters' dtype, which every tensor
    of its steps takes, whatever other model the process holds."""

    def test_single_and_double_models_train_side_by_side(self, tensor_dtypes):
        """A float32 and a float64 model trained in alternating steps keep
        their dtypes in every tensor of a step (losses included), gradients
        and Adam moments, and give the losses each gives when trained alone."""

        def trainer(precision):
            model_cfg = micro_model_cfg(precision=precision)
            _, _, _, _, params, bundle = micro_setup(model_cfg)
            adam = nm.Adam(params)

            def step():
                bd, grads = train_step(bundle, params, model_cfg, TrainConfig())
                adam.step()
                return bd, grads, adam

            return step

        alone = {}
        for precision in ("single", "double"):
            step = trainer(precision)
            alone[precision] = [step()[0] for _ in range(3)]
        steps = {precision: trainer(precision) for precision in ("single", "double")}
        together = {"single": [], "double": []}
        for _ in range(3):
            for precision, dtype in (("single", np.float32), ("double", np.float64)):
                tensor_dtypes.clear()
                bd, grads, adam = steps[precision]()
                together[precision].append(bd)
                assert len(tensor_dtypes) > 100 and set(tensor_dtypes) == {np.dtype(dtype)}
                for name, t in adam.params.items():
                    assert t.data.dtype == grads[name].dtype == dtype, name
                    assert adam._m[name].dtype == adam._v[name].dtype == dtype, name
        assert together == alone
        assert alone["single"] != alone["double"]

    @pytest.mark.parametrize("beam_width", [1, 3])
    def test_single_precision_summary_makes_only_float32_tensors(self, tensor_dtypes,
                                                                beam_width):
        _, vocab, _, model_cfg, params, bundle = micro_setup(micro_model_cfg(precision="single"))
        tensor_dtypes.clear()
        summarize_bundle(bundle, params, model_cfg, vocab, beam_width=beam_width, max_len=4)
        assert len(tensor_dtypes) > 50 and set(tensor_dtypes) == {np.dtype(np.float32)}

    def test_precision_is_checked_by_the_model_config(self):
        with pytest.raises(ConfigError, match="precision must be single or double"):
            micro_model_cfg(precision="half")

    def test_set_precision_accepts_only_double(self):
        nm.set_precision("double")
        with pytest.raises(ConfigError, match="ModelConfig.precision"):
            nm.set_precision("single")


class TestPrepareBundle:
    def test_a_bundle_keeps_its_summary_as_token_lists(self):
        _, vocab, _, _, _, bundle = micro_setup()
        assert bundle.id == "m"
        assert bundle.reference == [["storm", "floods", "town", "."]]
        assert bundle.target == [vocab.encode(t) for t in ["storm", "floods", "town", "."]]

    def test_a_bundle_does_not_keep_its_cluster(self):
        cluster, _, _, _, _, bundle = micro_setup()
        parsed = weakref.ref(cluster)
        del cluster
        gc.collect()
        assert parsed() is None and bundle.sum_graph is not None


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

    @staticmethod
    def accumulation_setup():
        clusters = [cluster_from_texts("a", ["storm hits coast. flood reaches town."],
                                       summary="storm floods town."),
                    cluster_from_texts("b", ["markets fall fast. traders sell shares."],
                                       summary="markets fall."),
                    cluster_from_texts("c", ["team wins final. fans cheer loudly."],
                                       summary="team wins.")]
        vocab = build_vocab(clusters, min_freq=1)
        table = EmbeddingTable.random(set().union(*map(all_tokens, clusters)), 6, seed=1)
        resources = Resources.default(vocab, table)
        model_cfg = micro_model_cfg()
        params = model_cfg.build_params(len(vocab), 5)
        return resources, model_cfg, params, [prepare_bundle(c, resources, model_cfg)
                                              for c in clusters]

    @staticmethod
    def adam_on_mean_gradients(bundles, params, model_cfg, tc):
        """``tc.epochs`` epochs of fit by hand: one Adam step on the mean
        train_step gradient of each run of ``tc.accum`` bundles within an
        epoch, in fit's seeded order."""
        rng = np.random.default_rng(tc.seed)
        optimizer = nm.Adam(params, lr=tc.lr)
        for _ in range(tc.epochs):
            order = [bundles[int(i)] for i in rng.permutation(len(bundles))]
            for start in range(0, len(order), tc.accum):
                group = [train_step(b, params, model_cfg, tc, rng=rng)[1]
                         for b in order[start:start + tc.accum]]
                for name, t in params.items():
                    t.grad = functools.reduce(np.add, [g[name] for g in group]) / len(group)
                optimizer.step()
        return params

    @pytest.mark.parametrize("n_bundles", [2, 3])
    def test_accumulation_steps_on_the_mean_gradient(self, n_bundles):
        # two bundles make one accumulated step; a third is a leftover that
        # fit applies on its own at the end of the epoch
        resources, model_cfg, params, bundles = self.accumulation_setup()
        bundles = bundles[:n_bundles]
        tc = TrainConfig(accum=2, eval_every=10_000, patience=10_000)
        expected = self.adam_on_mean_gradients(bundles, params.clone(), model_cfg, tc)
        single = self.adam_on_mean_gradients(bundles, params.clone(), model_cfg,
                                              TrainConfig(accum=1))
        result = fit(bundles, bundles, params, model_cfg, tc, resources)
        assert result.steps == n_bundles
        for name, t in result.params.items():
            assert np.array_equal(t.data, expected[name].data), name
        assert any(not np.array_equal(t.data, single[name].data)
                   for name, t in result.params.items())

    def test_leftover_is_applied_before_the_epoch_end_eval(self):
        # three bundles at accum 2: a pair, then a leftover that is stepped
        # before the dev eval, so the returned parameters contain it
        resources, model_cfg, params, bundles = self.accumulation_setup()
        tc = TrainConfig(accum=2, patience=10_000)
        expected = self.adam_on_mean_gradients(bundles, params.clone(), model_cfg, tc)
        result = fit(bundles, bundles, params, model_cfg, tc, resources)
        assert result.steps == 3
        assert [r["step"] for r in result.log if r["kind"] == "dev"] == [3]
        for name, t in result.params.items():
            assert np.array_equal(t.data, expected[name].data), name
            assert np.array_equal(t.data, params[name].data), name

    def test_accumulation_groups_do_not_span_epochs(self):
        # each of two epochs makes a pair and a leftover: four Adam steps,
        # not three groups of two running across the epoch boundary
        resources, model_cfg, params, bundles = self.accumulation_setup()
        tc = TrainConfig(accum=2, epochs=2, eval_every=10_000, patience=10_000)
        expected = self.adam_on_mean_gradients(bundles, params.clone(), model_cfg, tc)
        result = fit(bundles, bundles, params, model_cfg, tc, resources)
        assert result.steps == 6
        for name, t in result.params.items():
            assert np.array_equal(t.data, expected[name].data), name

    @pytest.mark.parametrize("eval_every, eval_steps", [
        # three bundles, an eval every 2 steps: fit stops at step 8, in the
        # middle of epoch 3
        (2, [2, 4, 6, 8]),
        # an eval at each epoch's end: fit stops at step 12, the end of epoch 4
        (None, [3, 6, 9, 12])])
    def test_patience_stops_at_the_patience_th_eval_without_improvement(
            self, monkeypatch, eval_every, eval_steps):
        # R-L 0.2 and 0.5 improve; a tie and a fall are the two evals
        # without improvement that patience 2 allows
        rls, bests = [0.2, 0.5, 0.5, 0.1], [True, True, False, False]
        resources, model_cfg, params, bundles = self.accumulation_setup()
        seen = []  # the parameters at each dev eval

        def scripted_dev(dev_bundles, params, model_cfg, vocab):
            seen.append({n: t.data.copy() for n, t in params.items()})
            rl = rls[len(seen) - 1]
            return {"r1": rl, "r2": rl, "rl": rl}
        monkeypatch.setattr(training, "evaluate_dev", scripted_dev)
        tc = TrainConfig(epochs=10, eval_every=eval_every, patience=2)
        result = fit(bundles, bundles, params, model_cfg, tc, resources)

        assert len(seen) == 4
        assert result.steps == eval_steps[-1]
        assert len([r for r in result.log if r["kind"] == "step"]) == result.steps
        dev = [r for r in result.log if r["kind"] == "dev"]
        assert [(r["step"], r["rl"], r["best"]) for r in dev] == list(zip(eval_steps, rls, bests))
        assert result.log[-1] is dev[-1]
        assert result.best_dev_rl == 0.5
        for name, t in result.params.items():
            assert np.array_equal(t.data, seen[1][name]), name
        assert any(not np.array_equal(t.data, seen[-1][name])
                   for name, t in result.params.items())

    def test_dev_log_records(self):
        cluster, vocab, resources, model_cfg, params, bundle = micro_setup()
        tc = TrainConfig(epochs=2, eval_every=None, patience=50)
        result = fit([bundle], [bundle], params, model_cfg, tc, resources)
        dev_recs = [r for r in result.log if r["kind"] == "dev"]
        assert len(dev_recs) == 2  # one per epoch end
        for rec in dev_recs:
            assert {"r1", "r2", "rl", "step"} <= set(rec)


@functools.lru_cache(maxsize=None)
def long_step_peak():
    """(total loss, tracemalloc peak in MB) of one default-size train_step on
    a 480-token cluster."""
    import tracemalloc
    rng = np.random.default_rng(3)
    syll = ["ka", "lo", "mi", "ren", "tas", "vo", "du", "pel"]
    words = [a + b for a in syll for b in syll]

    def sentence(n):
        return " ".join(rng.choice(words, size=n)) + "."

    cluster = cluster_from_texts(
        "long", [" ".join(sentence(17) for _ in range(5)) for _ in range(5)],
        summary=" ".join(sentence(10) for _ in range(4)))
    vocab = build_vocab([cluster], min_freq=1)
    table = EmbeddingTable.random(all_tokens(cluster), 100, seed=1)
    model_cfg = ModelConfig(text=TextModelConfig(), mgat=MgatConfig())
    params = model_cfg.build_params(len(vocab), 0)
    bundle = prepare_bundle(cluster, Resources.default(vocab, table), model_cfg)
    assert len(bundle.src_ids) >= 400
    tracemalloc.start()
    try:
        breakdown, _ = train_step(bundle, params, model_cfg, TrainConfig())
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    return breakdown.total, peak_mb


class TestMemory:
    def test_train_step_peak_follows_the_live_tape(self):
        """One default-size train_step on a 480-token cluster stays under
        160 MB of tracemalloc peak. Keeping every intermediate's gradient and
        saved arrays until backward ends (and four n x n arrays per attention
        head) peaked at 315 MB here; releasing the tape during backward and
        the fused attention kernel bring it to about 105 MB."""
        total, peak_mb = long_step_peak()
        assert np.isfinite(total)
        assert peak_mb < 160.0, f"train_step peaked at {peak_mb:.1f} MB"

    def test_train_step_keeps_no_bare_products_or_gradient_copies(self):
        """The same step stays under 66 MB. A matmul and an add node per
        projection (the bare product kept until backward), every fresh
        gradient copied once more, and a full-size scatter for each gather
        into a table that already has a gradient peaked at 72.8 MB here; one
        linear node per projection, gradients handed over and row-sparse
        scatters, at about 60 MB."""
        total, peak_mb = long_step_peak()
        assert np.isfinite(total)
        assert peak_mb < 66.0, f"train_step peaked at {peak_mb:.1f} MB"

    def test_train_step_keeps_no_per_head_graph_attention_arrays(self):
        """The same step stays under 90 MB. MGAT heads that each keep their
        [edges, d_head] gathers for backward peaked at 104 MB here; one
        edge_attention call per channel, keeping [edges, heads], at 83 MB."""
        total, peak_mb = long_step_peak()
        assert np.isfinite(total)
        assert peak_mb < 90.0, f"train_step peaked at {peak_mb:.1f} MB"

    def test_train_step_keeps_no_head_split_copies(self):
        """The same step stays under 57 MB. A reshape and a transpose copy
        for each head split of q, k and v and for each head merge, all kept
        until backward, peaked at 59.6 MB here; attention kernels that take
        rows and split heads by strided views, at 54.4 MB."""
        total, peak_mb = long_step_peak()
        assert np.isfinite(total)
        assert peak_mb < 57.0, f"train_step peaked at {peak_mb:.1f} MB"

    def test_train_step_keeps_no_mgat_weight_copies(self):
        """The same step stays under 53 MB. MGAT weights stored per head, and
        concatenated, transposed and reshaped on the tape at every forward,
        peaked at 54.4 MB here; one W and one a per channel, stored as
        ``nm.linear`` and ``nm.edge_attention`` read them, at 52.0 MB."""
        total, peak_mb = long_step_peak()
        assert np.isfinite(total)
        assert peak_mb < 53.0, f"train_step peaked at {peak_mb:.1f} MB"
