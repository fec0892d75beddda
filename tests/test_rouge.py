"""ROUGE metrics against hand counts and brute-force oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgsum import rouge
from dgsum.hetgraph import build_hetero_graph
from dgsum.rouge import (RougeScore, mean_rouge, rouge_avg_f1, rouge_avg_f1_batch,
                         rouge_l_summary, rouge_n)
from conftest import cluster_from_texts
from oracles import (lcs_positions_oracle, rouge_avg_f1_oracle, rouge_l_summary_oracle,
                     rouge_n_oracle)

tokens = st.lists(st.sampled_from("abcdefgh"), min_size=0, max_size=12)
sentences = st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=6),
                     min_size=1, max_size=4)


class TestRougeN:
    def test_identity(self):
        seq = ["the", "cat", "sat"]
        for n in (1, 2):
            score = rouge_n(seq, seq, n)
            assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        score = rouge_n(["a", "b"], ["c", "d"], 1)
        assert score == RougeScore(0.0, 0.0, 0.0)

    def test_police_gunman_fixture(self):
        cand = ["police", "kill", "the", "gunman"]
        ref = ["police", "killed", "the", "gunman"]
        score = rouge_n(cand, ref, 1)
        assert score.precision == pytest.approx(0.75)
        assert score.recall == pytest.approx(0.75)
        assert score.f1 == pytest.approx(0.75)

    def test_bigram_hand_count(self):
        cand = ["a", "b", "c"]       # bigrams: ab, bc
        ref = ["a", "b", "d", "c"]   # bigrams: ab, bd, dc
        score = rouge_n(cand, ref, 2)
        assert score.precision == pytest.approx(1 / 2)
        assert score.recall == pytest.approx(1 / 3)

    def test_clipping(self):
        cand = ["a", "a", "a"]
        ref = ["a", "b"]
        score = rouge_n(cand, ref, 1)
        assert score.precision == pytest.approx(1 / 3)  # only one 'a' credited
        assert score.recall == pytest.approx(1 / 2)

    def test_empty_sides(self):
        assert rouge_n([], ["a"], 1) == RougeScore(0.0, 0.0, 0.0)
        assert rouge_n(["a"], [], 1) == RougeScore(0.0, 0.0, 0.0)
        assert rouge_n(["a"], ["b"], 2) == RougeScore(0.0, 0.0, 0.0)  # no bigrams

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], ["a"], 3)


class TestRougeLSummary:
    def test_identity_single_sentence(self):
        s = [["the", "cat", "sat"]]
        assert rouge_l_summary(s, s).f1 == 1.0

    def test_empty_candidate(self):
        assert rouge_l_summary([], [["a"]]) == RougeScore(0.0, 0.0, 0.0)
        assert rouge_l_summary([[]], [["a"]]) == RougeScore(0.0, 0.0, 0.0)

    def test_reordered_two_sentence_fixture_matches_oracle(self):
        ref = [["a", "b", "c"], ["d", "e"]]
        cand = [["d", "e"], ["a", "b", "c"]]
        got = rouge_l_summary(cand, ref)
        exp = rouge_l_summary_oracle(cand, ref)
        assert (got.precision, got.recall, got.f1) == pytest.approx(exp)
        assert got.f1 == 1.0  # summary-level LCS is order-insensitive across sentences

    def test_partial_overlap_hand_case(self):
        ref = [["the", "gunman", "was", "shot"]]
        cand = [["the", "gunman", "fled"]]
        got = rouge_l_summary(cand, ref)
        # LCS = (the, gunman): P = 2/3, R = 2/4
        assert got.precision == pytest.approx(2 / 3)
        assert got.recall == pytest.approx(1 / 2)

    @settings(max_examples=120, deadline=None)
    @given(sentences, sentences)
    def test_matches_brute_force_oracle(self, cand, ref):
        got = rouge_l_summary(cand, ref)
        exp_p, exp_r, exp_f = rouge_l_summary_oracle(cand, ref)
        assert got.precision == pytest.approx(exp_p, abs=1e-12)
        assert got.recall == pytest.approx(exp_r, abs=1e-12)
        assert got.f1 == pytest.approx(exp_f, abs=1e-12)

    def test_twenty_random_pairs_match_oracle(self):
        rng = np.random.default_rng(7)
        vocab = list("abcdef")
        for _ in range(20):
            cand = [[vocab[i] for i in rng.integers(0, 6, rng.integers(1, 7))]
                    for _ in range(rng.integers(1, 4))]
            ref = [[vocab[i] for i in rng.integers(0, 6, rng.integers(1, 7))]
                   for _ in range(rng.integers(1, 4))]
            got = rouge_l_summary(cand, ref)
            exp = rouge_l_summary_oracle(cand, ref)
            assert (got.precision, got.recall, got.f1) == pytest.approx(exp, abs=1e-12)


class TestRougeAvg:
    def test_identical_documents(self):
        doc = [["one", "two"], ["three", "four"]]
        assert rouge_avg_f1(doc, doc) == pytest.approx(1.0)

    def test_disjoint_documents(self):
        assert rouge_avg_f1([["a", "b"]], [["c", "d"]]) == 0.0

    def test_fixture_mean_of_three(self):
        a = [["the", "cat", "sat", "down"]]
        b = [["the", "cat", "ran", "down"]]
        expected = rouge_avg_f1_oracle(a, b)
        assert rouge_avg_f1(a, b) == pytest.approx(expected, abs=1e-12)
        # hand values: R-1 overlap 3/4 -> 0.75; R-2 overlap 1/3 -> 1/3; R-L 3/4
        assert rouge_avg_f1(a, b) == pytest.approx((0.75 + 1 / 3 + 0.75) / 3)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(tokens, tokens)
    def test_f1_symmetry_rouge_n(self, a, b):
        s1 = rouge_n(a, b, 1)
        s2 = rouge_n(b, a, 1)
        assert s1.f1 == s2.f1
        assert s1.precision == s2.recall
        assert s1.recall == s2.precision

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
           st.lists(st.sampled_from("abcde"), min_size=1, max_size=8))
    def test_f1_symmetry_rouge_l_single_sentence(self, a, b):
        # hits = LCS length when each side is one sentence, so swapping
        # operands swaps P and R exactly
        s1 = rouge_l_summary([a], [b])
        s2 = rouge_l_summary([b], [a])
        assert s1.f1 == pytest.approx(s2.f1, abs=1e-12)
        assert s1.precision == pytest.approx(s2.recall, abs=1e-12)

    def test_rouge_l_multi_sentence_union_is_reference_sided(self):
        # the union-LCS runs per reference sentence: splitting one side into
        # sentences changes its role, so multi-sentence F1 need not be
        # symmetric (standard summary-level behavior)
        split = [["a"], ["a"]]
        joined = [["a", "a"]]
        assert rouge_l_summary(split, joined).f1 == pytest.approx(0.5)
        assert rouge_l_summary(joined, split).f1 == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(tokens.filter(bool), tokens.filter(bool))
    def test_recall_monotone_under_reference_copy_extension(self, cand, ref):
        base = rouge_n(cand, ref, 1)
        extended = rouge_n(cand + ref, ref, 1)
        assert extended.recall >= base.recall - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(tokens, tokens)
    def test_scores_bounded_and_consistent(self, a, b):
        for n in (1, 2):
            s = rouge_n(a, b, n)
            for v in (s.precision, s.recall, s.f1):
                assert 0.0 <= v <= 1.0
            if s.precision + s.recall > 0:
                assert s.f1 == pytest.approx(
                    2 * s.precision * s.recall / (s.precision + s.recall))
            else:
                assert s.f1 == 0.0


def random_sentences(rng, n, vocab, lengths=(0, 1, 2, 3, 5, 8)):
    """``n`` sentences over the first ``vocab`` letters, empty ones included."""
    return [["abcd"[t] for t in rng.integers(0, vocab, int(rng.choice(lengths)))]
            for _ in range(n)]


class TestBatchedKernel:
    """The batched LCS and every score built on it equal the per-pair oracles
    exactly; tie-heavy small vocabularies exercise the backtrack rule."""

    @pytest.mark.parametrize("max_cells", [64, rouge._MAX_CELLS])
    def test_lcs_hits_equal_oracle_backtrack(self, monkeypatch, max_cells):
        # a 64-cell cap splits the batch many times and leaves tables larger
        # than the cap alone in theirs; lengths cross the short/long classes
        monkeypatch.setattr(rouge, "_MAX_CELLS", max_cells)
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(600):
            vocab = int(rng.integers(1, 5))
            lengths = [int(rng.choice([1, rng.integers(2, 9), rng.integers(33, 100)]))
                       for _ in range(2)]
            pairs.append([rng.integers(0, vocab, n) for n in lengths])
        # LCS values past the uint8 range
        pairs += [[np.r_[np.zeros(270, int), rng.integers(0, 2, n)], np.zeros(270 + n, int)]
                  for n in (0, 30)]
        pairs += [[np.r_[np.zeros(270, int), rng.integers(0, 2, 30)] for _ in range(2)]]
        sents = [s for pair in pairs for s in pair]
        lens = np.array([len(s) for s in sents])
        starts = np.cumsum(lens) - lens
        ref = np.arange(0, len(sents), 2)
        hp, hi = rouge._lcs_hits(np.concatenate(sents), starts, lens, ref, ref + 1)
        got = [set() for _ in pairs]
        for p, i in zip(hp.tolist(), hi.tolist()):
            assert i not in got[p]
            got[p].add(i)
        for (r, c), hits in zip(pairs, got):
            assert hits == lcs_positions_oracle(r.tolist(), c.tolist())

    def test_scores_equal_oracles_exactly(self):
        rng = np.random.default_rng(12)
        pairs = []
        for _ in range(300):
            vocab = int(rng.integers(1, 5))
            cand, ref = (random_sentences(rng, int(rng.integers(0, 4)), vocab) for _ in range(2))
            pairs.append((cand, ref))
            got = rouge_l_summary(cand, ref)
            assert (got.precision, got.recall, got.f1) == rouge_l_summary_oracle(cand, ref)
            assert rouge_avg_f1(cand, ref) == rouge_avg_f1_oracle(cand, ref)
            flat_c, flat_r = sum(cand, []), sum(ref, [])
            for n in (1, 2):
                s = rouge_n(flat_c, flat_r, n)
                assert (s.precision, s.recall, s.f1) == rouge_n_oracle(flat_c, flat_r, n)
        r1 = r2 = rl = 0.0
        for cand, ref in pairs:
            r1 += rouge_n_oracle(sum(cand, []), sum(ref, []), 1)[2]
            r2 += rouge_n_oracle(sum(cand, []), sum(ref, []), 2)[2]
            rl += rouge_l_summary_oracle(cand, ref)[2]
        report = mean_rouge(pairs)
        assert (report["r1"], report["r2"], report["rl"]) == (r1 / 300, r2 / 300, rl / 300)
        assert report["mean_length"] == sum(len(sum(c, [])) for c, _ in pairs) / 300

    def test_batch_of_many_pairs_equals_one_pair_at_a_time(self):
        rng = np.random.default_rng(13)
        texts = [random_sentences(rng, int(rng.integers(0, 5)), 3) for _ in range(9)]
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 9, (40, 2))]
        assert rouge_avg_f1_batch(texts, pairs) == [
            rouge_avg_f1_oracle(texts[a], texts[b]) for a, b in pairs]
        assert rouge_avg_f1_batch(texts, []) == []
        assert mean_rouge([])["count"] == 0

    def test_dd_weights_equal_per_pair_oracle_in_pair_order(self, table_for):
        rng = np.random.default_rng(14)
        for _ in range(10):
            docs = [" ".join(" ".join(s) + " ." for s in random_sentences(
                        rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)), (1, 2, 4, 7)))
                    for _ in range(int(rng.integers(2, 6)))]
            cluster = cluster_from_texts("dd", docs)
            g = build_hetero_graph(cluster, table_for([cluster]))
            texts = [[s.lower for s in d.sentences] for d in cluster.documents]
            doc_node = {nd.doc: k for k, nd in enumerate(g.nodes) if nd.kind == "document"}
            expected = [(doc_node[i], doc_node[j], rouge_avg_f1_oracle(texts[i], texts[j]))
                        for i in range(len(texts)) for j in range(i + 1, len(texts))]
            assert list(g.edges["DD"]) == expected

    def test_one_long_sentence_does_not_pad_every_table(self, monkeypatch):
        # 45 document pairs, 2,880 sentence problems: padded unchunked to the
        # long sentence they would need 2,880 x 1,001 x 1,001 cells, about
        # 2.9 GB even at one byte a cell
        rng = np.random.default_rng(15)
        words = [f"w{k}" for k in range(40)]
        docs = [[[words[t] for t in rng.integers(0, 40, int(rng.integers(5, 26)))]
                 for _ in range(8)] for _ in range(10)]
        docs[3][2] = [words[t] for t in rng.integers(0, 40, 1000)]
        pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
        padded, pad = [], rouge._padded

        def recording_pad(*args):
            padded.append(pad(*args))
            return padded[-1]

        monkeypatch.setattr(rouge, "_padded", recording_pad)
        tracemalloc.start()
        try:
            weights = rouge_avg_f1_batch(docs, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        # the tables filled hold at most three times the cells the problems
        # need (one batch padded to the long sentence would hold 28 times)
        filled = sum((len(a) + 1) * (len(b) + 1) * a.shape[1]
                     for a, b in zip(padded[::2], padded[1::2]))
        needed = sum((len(r) + 1) * (len(c) + 1)
                     for i, j in pairs for r in docs[j] for c in docs[i])
        assert filled < 3 * needed
        assert weights == [rouge_avg_f1(docs[i], docs[j]) for i, j in pairs]
