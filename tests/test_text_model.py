"""Encoder locality/globality, node-embedding alignment, decoding contracts."""

import dataclasses

import numpy as np
import pytest

import dgsum.numeric as nm
from dgsum.corpus import Vocab, build_vocab, serialize_encoder_input
from dgsum.embeddings import MeanWordEmbedder
from dgsum.errors import AlignmentError, ConfigError, DataError, NumericError, ShapeError
from dgsum.hetgraph import GraphConfig, HeteroGraph, build_hetero_graph
from dgsum.numeric import ParamStore, Tensor
from dgsum.text_model import (TextModelConfig, _cached_step,
                              add_text_model_params, beam_search, causal_mask,
                              decode_beam, decode_teacher_forced,
                              encode_text, unit_embeddings)
from conftest import cluster_from_texts
from oracles import band_attention_oracle, decode_beam_oracle, decode_greedy, encoder_mask


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


def sep_positions(bounds):
    """The delimiter positions of a layout, sorted."""
    return sorted([p for _, p in bounds.doc_slots] + [s.sep_pos for s in bounds.sent_slots])


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
        rows = encode_text(ids, store, cfg)
        assert rows.shape == (len(ids), cfg.d_model)

    def test_over_length_error(self, table_for):
        _, _, cfg, store, ids, bounds, _ = encode_fixture(table_for)
        with pytest.raises(ShapeError):
            encode_text(ids * 20, store, cfg)

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
        mask = encoder_mask(n, cfg.attention_window, sep_positions(bounds))
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
        within one window of the swapped positions and the delimiter rows,
        which attend to every position (single layer)."""
        texts = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
                 "mu nu xi omicron pi rho",)
        cluster = cluster_from_texts("loc", list(texts))
        vocab = build_vocab([cluster], min_freq=1)
        cfg = tiny_cfg(attention_window=2, n_layers_enc=1)
        store = make_store(cfg, len(vocab))
        ids, bounds = serialize_encoder_input(cluster, vocab, cfg.max_in_len)
        i, j = 3, 12  # token positions far apart, non-delimiter
        sep = set(sep_positions(bounds))
        assert i not in sep and j not in sep and abs(i - j) > 2 * cfg.attention_window
        base = encode_text(ids, store, cfg).data
        swapped = list(ids)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert swapped != ids
        out = encode_text(swapped, store, cfg).data
        w = cfg.attention_window
        affected = set(range(i - w, i + w + 1)) | set(range(j - w, j + w + 1)) | sep
        for row in range(len(ids)):
            if row in affected:
                continue
            assert np.array_equal(out[row], base[row]), f"row {row} changed"
        assert sep == {0, len(ids) - 1}  # the document and the sentence delimiter
        for row in sep:
            assert not np.array_equal(out[row], base[row]), f"delimiter row {row} unchanged"


class TestUnitEmbeddings:
    def test_count_and_word_rows(self, table_for):
        _, _, cfg, store, ids, bounds, graph = encode_fixture(table_for)
        rows = encode_text(ids, store, cfg)
        h0 = unit_embeddings(rows, ids, graph)
        assert h0.shape == (graph.n_nodes, cfg.d_model)
        for node_idx, nd in enumerate(graph.nodes):
            assert np.array_equal(h0.data[node_idx], rows.data[nd.token_position])

    def test_alignment_against_boundary_oracle(self, table_for):
        _, _, cfg, store, ids, bounds, graph = encode_fixture(table_for)
        rows = encode_text(ids, store, cfg)
        unit_embeddings(rows, ids, graph)  # must not raise
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
        _, _, cfg, _, _, _, graph = encode_fixture(table_for)
        # a shorter cluster's encoding cannot host the original graph's nodes
        cluster2 = cluster_from_texts("short", ["storm hits."])
        vocab2 = build_vocab([cluster2], min_freq=1)
        ids2, _ = serialize_encoder_input(cluster2, vocab2, cfg.max_in_len)
        store2 = make_store(cfg, len(vocab2))
        rows2 = encode_text(ids2, store2, cfg)
        with pytest.raises(AlignmentError):
            unit_embeddings(rows2, ids2, graph)

    def rows_ids_graph(self, table_for):
        _, _, _, _, ids, _, graph = encode_fixture(table_for)
        # DOC_SEP storm hits coast . SENT_SEP waves flood town . SENT_SEP
        assert ids[0] == Vocab.DOC_SEP and ids[5] == ids[10] == Vocab.SENT_SEP
        assert not set(ids[1:5] + ids[6:10]) & {Vocab.SENT_SEP, Vocab.DOC_SEP}
        rows = Tensor(np.random.default_rng(0).normal(size=(len(ids), 4)))
        return rows, ids, graph

    @staticmethod
    def moved(graph, kind, position):
        """``graph`` with its first ``kind`` node moved to ``position``."""
        i = next(i for i, nd in enumerate(graph.nodes) if nd.kind == kind)
        nodes = list(graph.nodes)
        nodes[i] = dataclasses.replace(nodes[i], token_position=position)
        return HeteroGraph(nodes, graph.edges)

    @pytest.mark.parametrize("kind, position, message", [
        ("word", 11, "word node 0 at token position 11: outside encoder output of length 11"),
        ("word", -1, "word node 0 at token position -1: outside encoder output of length 11"),
        ("word", 5, "word node 0 at token position 5: on a delimiter id"),
        ("word", 0, "word node 0 at token position 0: on a delimiter id"),
        ("sentence", 2, "sentence node 0 at token position 2: on a non-delimiter id"),
        ("document", 7, "document node 0 at token position 7: on a non-delimiter id"),
    ])
    def test_misplaced_node_is_named(self, table_for, kind, position, message):
        """Each node's kind must match the id at its position; the error
        names the first node that does not."""
        rows, ids, graph = self.rows_ids_graph(table_for)
        unit_embeddings(rows, ids, graph)  # the built graph fits
        with pytest.raises(AlignmentError) as err:
            unit_embeddings(rows, ids, self.moved(graph, kind, position))
        assert str(err.value) == message

    def test_first_misplaced_node_is_named(self, table_for):
        rows, ids, graph = self.rows_ids_graph(table_for)
        bad = self.moved(self.moved(graph, "word", 5), "sentence", 2)
        with pytest.raises(AlignmentError, match="^sentence node 0 at"):
            unit_embeddings(rows, ids, bad)

    def test_rows_must_match_the_ids(self, table_for):
        rows, ids, graph = self.rows_ids_graph(table_for)
        with pytest.raises(AlignmentError, match="11 rows for 12 ids"):
            unit_embeddings(rows, ids + [ids[1]], graph)
        with pytest.raises(AlignmentError, match="11 rows for 10 ids"):
            unit_embeddings(rows, ids[:-1], graph)

    def test_rows_follow_a_permuted_node_list(self, table_for):
        rows, ids, graph = self.rows_ids_graph(table_for)
        perm = np.random.default_rng(1).permutation(graph.n_nodes)
        assert not np.array_equal(perm, np.arange(graph.n_nodes))
        permuted = HeteroGraph([graph.nodes[i] for i in perm], {})
        h0 = unit_embeddings(rows, ids, permuted)
        assert np.array_equal(h0.data, rows.data[graph.token_positions()[perm]])
        assert np.array_equal(h0.data, rows.data[[nd.token_position for nd in permuted.nodes]])


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
            beam_search(lambda ps: np.zeros((len(ps), 3)), 0, 1, 0, 4)

    def test_max_len_one_single_token(self):
        logp = np.log(np.array([0.1, 0.2, 0.7]))
        out = beam_search(lambda ps: np.stack([logp for _ in ps]), bos=0, eos=1,
                          beam_width=2, max_len=1)
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
        got = beam_search(lambda ps: np.stack([step(p) for p in ps]), bos=9, eos=eos,
                          beam_width=2, max_len=3)
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

    def test_tied_totals_take_lower_token_then_older_hypothesis(self):
        seen = []

        def uniform(prefixes):
            seen.append([list(p) for p in prefixes])
            return np.full((len(prefixes), 4), np.log(0.25))

        out = beam_search(uniform, bos=9, eos=3, beam_width=2, max_len=3,
                          length_norm=False)
        assert seen == [[[9]], [[9, 0], [9, 1]], [[9, 0, 0], [9, 1, 0]]]
        assert out == [0, 0, 0]

    def test_nan_log_probs_rejected(self):
        with pytest.raises(NumericError):
            beam_search(lambda ps: np.full((len(ps), 3), np.nan), 0, 1, 2, 4)

    def test_empty_memory_error(self):
        cfg = tiny_cfg()
        store = make_store(cfg)
        with pytest.raises(DataError):
            decode_beam(Tensor(np.zeros((0, cfg.d_model))), np.zeros(0, dtype=int),
                        store, cfg)


class TestCachedDecoding:
    @staticmethod
    def random_model(seed):
        cfg = tiny_cfg(n_heads=(1, 4)[seed % 2], n_layers_dec=(1, 2)[seed // 2 % 2],
                       max_out_len=8)
        store = make_store(cfg, vocab_size=12, seed=seed)
        rng = np.random.default_rng(seed + 300)
        memory = Tensor(rng.normal(size=(5, cfg.d_model)))
        positions = rng.integers(0, cfg.max_in_len, size=5)
        return cfg, store, memory, positions

    @pytest.mark.parametrize("width", [2, 5])
    def test_beam_matches_full_recompute_oracle(self, width):
        for seed in range(20):
            cfg, store, memory, positions = self.random_model(seed)
            assert (decode_beam(memory, positions, store, cfg, beam_width=width)
                    == decode_beam_oracle(memory, positions, store, cfg, width)), seed

    def test_cached_rows_match_full_prefix_pass(self):
        for seed in range(4):
            cfg, store, memory, positions = self.random_model(seed)
            step = _cached_step(memory, positions, store, cfg)
            scored = []

            def recording(prefixes):
                rows = step(prefixes)
                scored.extend(zip([list(p) for p in prefixes], rows))
                return rows

            beam_search(recording, Vocab.BOS, Vocab.EOS, 5, cfg.max_out_len + 1)
            assert len({len(p) for p, _ in scored}) > 3
            for prefix, row in scored:
                with nm.no_grad():
                    full = decode_teacher_forced(memory, positions, prefix, store, cfg).data[-1]
                shifted = full - full.max()
                expected = shifted - np.log(np.exp(shifted).sum())
                np.testing.assert_allclose(row, expected, rtol=1e-12, atol=0)

    def test_decoding_past_the_position_table_is_shape_error(self):
        cfg, store, memory, positions = self.random_model(3)
        store["out.b"].data[Vocab.EOS] = -1e3  # never finish early
        assert len(decode_beam(memory, positions, store, cfg, 2, cfg.max_out_len + 1)) \
            == cfg.max_out_len + 1
        with pytest.raises(ShapeError):
            decode_beam(memory, positions, store, cfg, 2, cfg.max_out_len + 2)


class TestGradients:
    def test_encoder_decoder_gradient_check(self, table_for):
        cluster = cluster_from_texts("gc", ["storm coast flood now."])
        vocab = build_vocab([cluster], min_freq=1)
        cfg = TextModelConfig(d_model=8, n_layers_enc=2, n_layers_dec=1, n_heads=2,
                              ffn_dim=12, attention_window=2, max_in_len=32,
                              max_out_len=8)
        store = make_store(cfg, len(vocab), seed=3)
        ids, _ = serialize_encoder_input(cluster, vocab, cfg.max_in_len)
        assert len(ids) <= 30
        target = [Vocab.BOS, 6, 7]
        gold = np.array([6, 7, Vocab.EOS])

        def loss():
            rows = encode_text(ids, store, cfg)
            logits = decode_teacher_forced(rows, np.arange(len(ids)), target,
                                           store, cfg)
            return nm.cross_entropy_smoothed(logits, gold, 0.1)

        err = nm.grad_check(loss, dict(store.items()), max_entries=6)
        assert err < 1e-5


def long_encoder_input(n_docs, n_sents, seed=3):
    """Token ids and vocabulary size of a cluster of ``n_docs``
    documents of ``n_sents`` 17-word sentences."""
    rng = np.random.default_rng(seed)
    syll = ["ka", "lo", "mi", "ren", "tas", "vo", "du", "pel"]
    words = [a + b for a in syll for b in syll]
    cluster = cluster_from_texts("long", [
        " ".join(" ".join(rng.choice(words, size=17)) + "." for _ in range(n_sents))
        for _ in range(n_docs)])
    vocab = build_vocab([cluster], min_freq=1)
    ids, _ = serialize_encoder_input(cluster, vocab, 4096)
    return ids, len(vocab)


class TestBandedEncoder:
    @pytest.mark.parametrize("window", [1, 3, 16, 500])
    def test_encoder_matches_the_dense_mask_path(self, window, monkeypatch):
        """encode_text and its parameter gradients, with the banded kernel and
        with the dense-mask oracle in its place."""
        ids, v = long_encoder_input(3, 4)
        cfg = tiny_cfg(n_layers_enc=2, attention_window=window, max_in_len=len(ids))
        store = make_store(cfg, v, seed=4)
        probe = np.random.default_rng(2).normal(size=(len(ids), cfg.d_model))
        results = []
        for kernel in (nm.band_attention, band_attention_oracle):
            monkeypatch.setattr(nm, "band_attention", kernel)
            store.zero_grads()
            q = encode_text(ids, store, cfg)
            nm.sum_(nm.mul(q, probe)).backward()
            results.append([q.data] + [t.grad for _, t in store.items()
                                       if t.grad is not None])
        assert len(results[0]) == len(results[1]) > 1
        for got, ref in zip(*results):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestMemory:
    def test_encoder_keeps_no_n_by_n_arrays(self):
        """encode_text forward plus backward on 1,000 tokens at the default
        size stays under 120 MB of tracemalloc. A dense n x n mask and [H, n, n]
        weights per layer peaked at 167 MB here; the banded kernel at 74 MB."""
        import tracemalloc
        ids, v = long_encoder_input(4, 13)
        assert 950 <= len(ids) <= 1050
        cfg = TextModelConfig()
        store = make_store(cfg, v)
        tracemalloc.start()
        try:
            nm.mean(encode_text(ids, store, cfg)).backward()
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 120.0, f"encode_text peaked at {peak_mb:.1f} MB"

    def test_tape_keeps_no_head_split_arrays(self, table_for):
        """Before backward, the tape of an encoder plus teacher-forced decoder
        loss holds no node of rank 4: heads are strided views inside the
        attention kernels, not [B, H, n, dh] nodes kept until backward."""
        _, vocab, cfg, store, ids, bounds, _ = encode_fixture(table_for,
                                                              cfg=tiny_cfg(n_layers_dec=2))
        positions = np.arange(0, len(ids), 2)
        memory = nm.gather_rows(encode_text(ids, store, cfg), positions)
        target = [Vocab.BOS] + ids[1:6]
        logits = decode_teacher_forced(memory, positions, target, store, cfg)
        loss = nm.cross_entropy_smoothed(logits, target[1:] + [Vocab.EOS], smoothing=0.1)
        tape, seen, stack = [], set(), [loss]
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen.add(id(t))
                tape.append(t)
                stack.extend(t._parents)
        assert len(tape) > 60
        assert [t.shape for t in tape if t.ndim >= 4] == []
