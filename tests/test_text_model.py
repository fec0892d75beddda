"""Encoder locality/globality, node-embedding alignment, decoding contracts."""

import numpy as np
import pytest

import dgsum.numeric as nm
from dgsum.corpus import Vocab, build_vocab, serialize_encoder_input
from dgsum.embeddings import MeanWordEmbedder
from dgsum.errors import AlignmentError, ConfigError, DataError, ShapeError
from dgsum.hetgraph import GraphConfig, build_hetero_graph
from dgsum.numeric import ParamStore, Tensor
from dgsum.text_model import (TextModelConfig,
                              add_text_model_params, beam_search, causal_mask,
                              decode_beam, decode_teacher_forced,
                              encoder_mask, encode_text, unit_embeddings)
from conftest import cluster_from_texts
from oracles import decode_greedy


def tiny_cfg(**kw):
    defaults = dict(d_model=16, n_layers_enc=1, n_layers_dec=1, n_heads=2,
                    ffn_dim=24, attention_window=2, max_in_len=64, max_out_len=16)
    defaults.update(kw)
    return TextModelConfig(**defaults)


def make_store(cfg, vocab_size=20, seed=0):
    store = ParamStore()
    add_text_model_params(store, cfg, vocab_size, np.random.default_rng(seed))
    return store


def encode_fixture(table_for, texts=("storm hits coast. waves flood town.",),
                   cfg=None, seed=0):
    cluster = cluster_from_texts("e", list(texts))
    vocab = build_vocab([cluster], min_freq=1)
    cfg = cfg or tiny_cfg()
    store = make_store(cfg, len(vocab), seed)
    ids, bounds = serialize_encoder_input(cluster, vocab, cfg.max_in_len)
    table = table_for([cluster])
    graph = build_hetero_graph(cluster, table, MeanWordEmbedder(table), GraphConfig())
    return cluster, vocab, cfg, store, ids, bounds, graph


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            TextModelConfig(d_model=10, n_heads=3)

    def test_window_minimum(self):
        with pytest.raises(ConfigError):
            TextModelConfig(attention_window=0)


class TestEncoder:
    def test_output_shape(self, table_for):
        _, _, cfg, store, ids, bounds, _ = encode_fixture(table_for)
        enc = encode_text(ids, bounds, store, cfg)
        assert enc.Q.shape == (len(ids), cfg.d_model)

    def test_over_length_error(self, table_for):
        _, _, cfg, store, ids, bounds, _ = encode_fixture(table_for)
        with pytest.raises(ShapeError):
            encode_text(ids * 20, bounds, store, cfg)

    def test_mask_matrix_oracle(self):
        n, window = 16, 2
        globals_ = [0, 7]
        mask = encoder_mask(n, window, globals_)
        for i in range(n):
            for j in range(n):
                allowed = abs(i - j) <= window or i in globals_ or j in globals_
                assert (mask[i, j] == 0.0) == allowed
        # position 10: outside [8, 12] only the globals are visible
        row = mask[10]
        visible = {j for j in range(n) if row[j] == 0.0}
        assert visible == set(range(8, 13)) | set(globals_)

    def test_attention_rows_sum_to_one(self, table_for):
        # re-derive one layer's attention weights from the parameters
        _, _, cfg, store, ids, bounds, _ = encode_fixture(table_for)
        n = len(ids)
        mask = encoder_mask(n, cfg.attention_window, bounds.sep_positions())
        x = (store["emb.tok"].data[np.asarray(ids)] +
             store["emb.pos_enc"].data[:n])
        q = x @ store["enc0.attn.wq"].data + store["enc0.attn.bq"].data
        k = x @ store["enc0.attn.wk"].data
        dh = cfg.d_model // cfg.n_heads
        for h in range(cfg.n_heads):
            s = (q[:, h * dh:(h + 1) * dh] @ k[:, h * dh:(h + 1) * dh].T) / np.sqrt(dh)
            s = s + mask
            e = np.exp(s - s.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
            assert np.allclose(a.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(a[mask != 0.0] == 0.0)  # exactly zero off-mask

    def test_locality_probe_swap_outside_windows(self, table_for):
        """Swapping two far-apart non-delimiter tokens changes only rows
        within one window of the swapped positions (single layer)."""
        texts = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
                 "mu nu xi omicron pi rho",)
        cluster = cluster_from_texts("loc", list(texts))
        vocab = build_vocab([cluster], min_freq=1)
        cfg = tiny_cfg(attention_window=2, n_layers_enc=1)
        store = make_store(cfg, len(vocab))
        ids, bounds = serialize_encoder_input(cluster, vocab, cfg.max_in_len)
        i, j = 3, 12  # token positions far apart, non-delimiter
        sep = set(bounds.sep_positions())
        assert i not in sep and j not in sep and abs(i - j) > 2 * cfg.attention_window
        base = encode_text(ids, bounds, store, cfg).Q.data
        swapped = list(ids)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert swapped != ids
        out = encode_text(swapped, bounds, store, cfg).Q.data
        w = cfg.attention_window
        affected = set(range(i - w, i + w + 1)) | set(range(j - w, j + w + 1)) | sep
        for row in range(len(ids)):
            if row in affected:
                continue
            assert np.array_equal(out[row], base[row]), f"row {row} changed"


class TestUnitEmbeddings:
    def test_count_and_word_rows(self, table_for):
        _, _, cfg, store, ids, bounds, graph = encode_fixture(table_for)
        enc = encode_text(ids, bounds, store, cfg)
        h0 = unit_embeddings(enc, graph)
        assert h0.shape == (graph.n_nodes, cfg.d_model)
        for node_idx, nd in enumerate(graph.nodes):
            assert np.array_equal(h0.data[node_idx], enc.Q.data[nd.token_position])

    def test_alignment_against_boundary_oracle(self, table_for):
        _, _, cfg, store, ids, bounds, graph = encode_fixture(table_for)
        enc = encode_text(ids, bounds, store, cfg)
        unit_embeddings(enc, graph)  # must not raise
        doc_positions = {p for _, p in bounds.doc_slots}
        sent_positions = {s.sep_pos for s in bounds.sent_slots}
        for nd in graph.nodes:
            if nd.kind == "document":
                assert nd.token_position in doc_positions
            elif nd.kind == "sentence":
                assert nd.token_position in sent_positions
            else:
                assert ids[nd.token_position] >= 6

    def test_misaligned_error(self, table_for):
        _, _, cfg, store, ids, bounds, graph = encode_fixture(table_for)
        # a shorter cluster's encoding cannot host the original graph's nodes
        cluster2 = cluster_from_texts("short", ["storm hits."])
        vocab2 = build_vocab([cluster2], min_freq=1)
        ids2, bounds2 = serialize_encoder_input(cluster2, vocab2, cfg.max_in_len)
        store2 = make_store(cfg, len(vocab2))
        enc2 = encode_text(ids2, bounds2, store2, cfg)
        with pytest.raises(AlignmentError):
            unit_embeddings(enc2, graph)
        # boundaries that point past the sequence are rejected up front
        with pytest.raises(AlignmentError):
            encode_text(ids2, bounds, store2, cfg)


class TestTeacherForced:
    def _memory(self, cfg, rows=4, seed=0):
        rng = np.random.default_rng(seed)
        memory = Tensor(rng.normal(size=(rows, cfg.d_model)))
        positions = np.arange(rows)
        return memory, positions

    def test_logit_shape(self):
        cfg = tiny_cfg()
        store = make_store(cfg)
        memory, positions = self._memory(cfg)
        target = [Vocab.BOS, 7, 8, 9]
        logits = decode_teacher_forced(memory, positions, target, store, cfg)
        assert logits.shape == (4, 20)

    def test_bos_required(self):
        cfg = tiny_cfg()
        store = make_store(cfg)
        memory, positions = self._memory(cfg)
        with pytest.raises(DataError):
            decode_teacher_forced(memory, positions, [7, 8], store, cfg)

    def test_bos_only_single_row(self):
        cfg = tiny_cfg()
        store = make_store(cfg)
        memory, positions = self._memory(cfg)
        logits = decode_teacher_forced(memory, positions, [Vocab.BOS], store, cfg)
        assert logits.shape == (1, 20)

    def test_causality_probe(self):
        cfg = tiny_cfg()
        store = make_store(cfg)
        memory, positions = self._memory(cfg)
        target = [Vocab.BOS, 7, 8, 9, 10]
        base = decode_teacher_forced(memory, positions, target, store, cfg).data
        for j in range(1, len(target)):
            perturbed = list(target)
            perturbed[j] = 11 if perturbed[j] != 11 else 12
            out = decode_teacher_forced(memory, positions, perturbed, store, cfg).data
            for i in range(len(target)):
                if i < j:
                    assert np.array_equal(out[i], base[i]), (i, j)
                if i >= j:  # the perturbed position feeds rows i >= j
                    pass

    def test_causal_mask_matrix(self):
        m = causal_mask(4)
        for i in range(4):
            for j in range(4):
                assert (m[i, j] == 0.0) == (j <= i)


class TestBeamSearch:
    def test_beam_width_validation(self):
        with pytest.raises(ConfigError):
            beam_search(lambda p: np.zeros(3), 0, 1, 0, 4)

    def test_max_len_one_single_token(self):
        logp = np.log(np.array([0.1, 0.2, 0.7]))
        out = beam_search(lambda p: logp, bos=0, eos=1, beam_width=2, max_len=1)
        assert len(out) <= 1

    def test_rigged_three_token_vocab_matches_enumeration(self):
        """Beam 2 must find the sequence that exhaustive enumeration of all
        length <= 3 candidates ranks first under length-normalized score."""
        eos = 0

        def step(prefix):
            # prefix-dependent rigged distribution over {eos, a=1, b=2}:
            # greedy takes a first, but the best full sequence starts with b
            table = {
                (9,): [0.01, 0.54, 0.45],
                (9, 1): [0.10, 0.45, 0.45],
                (9, 2): [0.02, 0.08, 0.90],
                (9, 2, 2): [0.97, 0.02, 0.01],
                (9, 1, 1): [0.34, 0.33, 0.33],
                (9, 1, 2): [0.34, 0.33, 0.33],
                (9, 2, 1): [0.34, 0.33, 0.33],
            }
            probs = table.get(tuple(prefix), [1 / 3] * 3)
            return np.log(np.asarray(probs))

        def enumerate_all(max_len=3):
            best, best_score = None, -np.inf
            stack = [((9,), 0.0)]
            while stack:
                prefix, score = stack.pop()
                gen = len(prefix) - 1
                logp = step(list(prefix))
                if gen < max_len:
                    for tok in (1, 2):
                        stack.append((prefix + (tok,), score + logp[tok]))
                    done = score + logp[eos]
                    cand = (done / (gen + 1), prefix[1:])
                    if cand[0] > best_score:
                        best_score, best = cand[0], cand[1]
                else:
                    cand = (score / gen, prefix[1:])
                    if cand[0] > best_score:
                        best_score, best = cand[0], cand[1]
            return list(best)

        expected = enumerate_all()
        got = beam_search(step, bos=9, eos=eos, beam_width=2, max_len=3)
        assert got == expected
        assert expected[0] == 2  # sanity: the rig makes 'b' the right start

    def test_beam_one_equals_greedy_twenty_random_models(self, table_for):
        for seed in range(20):
            cfg = tiny_cfg(max_out_len=8)
            store = make_store(cfg, vocab_size=12, seed=seed)
            rng = np.random.default_rng(seed + 100)
            memory = Tensor(rng.normal(size=(5, cfg.d_model)))
            positions = rng.integers(0, cfg.max_in_len, size=5)
            greedy = decode_greedy(memory, positions, store, cfg)
            beam1 = decode_beam(memory, positions, store, cfg, beam_width=1)
            assert beam1 == greedy, f"seed {seed}"

    def test_empty_memory_error(self):
        cfg = tiny_cfg()
        store = make_store(cfg)
        with pytest.raises(DataError):
            decode_beam(Tensor(np.zeros((0, cfg.d_model))), np.zeros(0, dtype=int),
                        store, cfg)


class TestGradients:
    def test_encoder_decoder_gradient_check(self, table_for):
        cluster = cluster_from_texts("gc", ["storm coast flood now."])
        vocab = build_vocab([cluster], min_freq=1)
        cfg = TextModelConfig(d_model=8, n_layers_enc=2, n_layers_dec=1, n_heads=2,
                              ffn_dim=12, attention_window=2, max_in_len=32,
                              max_out_len=8)
        store = make_store(cfg, len(vocab), seed=3)
        ids, bounds = serialize_encoder_input(cluster, vocab, cfg.max_in_len)
        assert len(ids) <= 30
        target = [Vocab.BOS, 6, 7]
        gold = np.array([6, 7, Vocab.EOS])

        def loss():
            enc = encode_text(ids, bounds, store, cfg)
            logits = decode_teacher_forced(enc.Q, np.arange(len(ids)), target,
                                           store, cfg)
            return nm.cross_entropy_smoothed(logits, gold, 0.1)

        err = nm.grad_check(loss, dict(store.items()), max_entries=6)
        assert err < 1e-5
