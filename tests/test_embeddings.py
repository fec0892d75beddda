"""Word-vector loading, sentence embedding providers, and cosine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgsum.corpus import tokenize
from dgsum.embeddings import (EmbeddingTable, MeanWordEmbedder,
                              PrecomputedEmbedder, cosine)
from dgsum.errors import DataError


def write_vectors(path, rows):
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


class TestLoad:
    def test_two_line_file(self, tmp_path):
        p = tmp_path / "vec.txt"
        write_vectors(p, ["cat 1.0 0.0 0.0", "dog 0.0 1.0 0.0"])
        table = EmbeddingTable.load(p, 3)
        assert len(table.vectors) == 2
        assert table.dimension == 3

    def test_dimension_mismatch_line_skipped(self, tmp_path, caplog):
        p = tmp_path / "vec.txt"
        write_vectors(p, ["cat 1.0 0.0 0.0", "dog 0.0 1.0"])
        with caplog.at_level("WARNING"):
            table = EmbeddingTable.load(p, 3)
        assert len(table.vectors) == 1

    def test_non_numeric_line_skipped(self, tmp_path):
        p = tmp_path / "vec.txt"
        write_vectors(p, ["cat 1.0 x 0.0", "dog 0.0 1.0 0.5"])
        table = EmbeddingTable.load(p, 3)
        assert list(table.vectors) == ["dog"]

    NON_FINITE = ["storm nan 1.0", "c1:0:0 1.0 2.0", "coast 1.0 -inf", "town 1e999 0.5",
                  "wave 1.0", "", "river Infinity NaN", "sea 0.5 0.25"]

    def test_non_finite_lines_skipped_and_counted(self, tmp_path, caplog):
        p = tmp_path / "vec.txt"
        write_vectors(p, self.NON_FINITE)
        with caplog.at_level("WARNING", logger="dgsum.embeddings"):
            table = EmbeddingTable.load(p, 2)
        assert list(table.vectors) == ["c1:0:0", "sea"]
        assert np.array_equal(table.get("storm"), [0.75, 1.125])  # the mean of the two kept
        assert f"{p}: skipped 6 malformed lines" in caplog.text

    def test_non_finite_sentence_vectors_skipped_and_counted(self, tmp_path, caplog):
        p = tmp_path / "sent.txt"
        write_vectors(p, self.NON_FINITE)
        with caplog.at_level("WARNING", logger="dgsum.embeddings"):
            emb = PrecomputedEmbedder(p, 2)
        assert f"{p}: skipped 6 malformed lines" in caplog.text
        sent = tokenize("whatever words")[0]
        assert np.array_equal(emb.embed(sent, key=("c1", 0, 0)), [1.0, 2.0])
        with pytest.raises(DataError, match="'storm'"):
            emb.embed(sent, key=("storm",))

    def test_zero_valid_lines_error(self, tmp_path):
        p = tmp_path / "vec.txt"
        write_vectors(p, ["cat 1.0", "dog 0.0 1.0"])
        with pytest.raises(DataError):
            EmbeddingTable.load(p, 3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            EmbeddingTable.load(tmp_path / "nope.txt", 3)

    def test_unk_is_mean(self, tmp_path):
        p = tmp_path / "vec.txt"
        write_vectors(p, ["a 1.0 2.0", "b 3.0 4.0", "c 5.0 0.0"])
        table = EmbeddingTable.load(p, 2)
        assert np.max(np.abs(table.unk_vector - np.array([3.0, 2.0]))) < 1e-12

    def test_absent_token_gets_unk(self, tmp_path):
        p = tmp_path / "vec.txt"
        write_vectors(p, ["a 1.0 2.0", "b 3.0 4.0"])
        table = EmbeddingTable.load(p, 2)
        assert np.array_equal(table.get("zebra"), table.unk_vector)

    def test_case_fallback(self, tmp_path):
        p = tmp_path / "vec.txt"
        write_vectors(p, ["cat 1.0 0.0"])
        table = EmbeddingTable.load(p, 2)
        assert np.array_equal(table.get("Cat"), table.vectors["cat"])


class TestSentenceEmbedding:
    def _table(self):
        return EmbeddingTable({"u": np.array([2.0, 0.0]), "v": np.array([0.0, 4.0])}, 2)

    def test_single_token(self):
        sent = tokenize("u")[0]
        out = MeanWordEmbedder(self._table()).embed(sent)
        assert np.array_equal(out, np.array([2.0, 0.0]))

    def test_two_tokens_mean(self):
        sent = tokenize("u v")[0]
        out = MeanWordEmbedder(self._table()).embed(sent)
        assert np.array_equal(out, np.array([1.0, 2.0]))

    def test_all_unk(self):
        table = self._table()
        sent = tokenize("x y z")[0]
        out = MeanWordEmbedder(table).embed(sent)
        assert np.array_equal(out, table.unk_vector)

    def test_precomputed_lookup(self, tmp_path):
        p = tmp_path / "sent.txt"
        write_vectors(p, ["c1:0:0 1.0 2.0", "c1:summary:0:0 3.0 4.0"])
        emb = PrecomputedEmbedder(p, 2)
        sent = tokenize("whatever words")[0]
        assert np.array_equal(emb.embed(sent, key=("c1", 0, 0)), np.array([1.0, 2.0]))
        assert np.array_equal(emb.embed(sent, key=("c1", "summary", 0, 0)),
                              np.array([3.0, 4.0]))

    def test_precomputed_missing_key(self, tmp_path):
        p = tmp_path / "sent.txt"
        write_vectors(p, ["c1:0:0 1.0 2.0"])
        emb = PrecomputedEmbedder(p, 2)
        with pytest.raises(DataError, match="c9"):
            emb.embed(tokenize("w")[0], key=("c9", 0, 0))

    def test_mean_embedder_dimension(self):
        emb = MeanWordEmbedder(self._table())
        assert emb.dimension == 2
        assert emb.mode == "mean-of-words"


class TestCosine:
    def test_self_similarity(self):
        for vec in ([1.0, 2.0], [0.1, -3.0, 4.0]):
            assert cosine(np.array(vec), np.array(vec)) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_closed_form_sqrt2_over_2(self):
        value = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert value == pytest.approx(0.7071, abs=1e-4)

    def test_zero_norm_guard(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            cosine(np.ones(2), np.ones(3))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=6),
       st.lists(st.floats(-10, 10), min_size=2, max_size=6),
       st.floats(0.01, 100.0))
def test_cosine_scale_invariance_and_symmetry(u, v, alpha):
    n = min(len(u), len(v))
    u = np.asarray(u[:n])
    v = np.asarray(v[:n])
    assert cosine(u, v) == cosine(v, u)  # symmetric, exact
    if np.linalg.norm(u) > 1e-6 and np.linalg.norm(v) > 1e-6:
        assert abs(cosine(alpha * u, v) - cosine(u, v)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.permutations(["u", "v", "u", "w"]))
def test_mean_mode_permutation_invariant(order):
    table = EmbeddingTable({"u": np.array([2.0, 0.0]), "v": np.array([0.0, 4.0]),
                            "w": np.array([1.0, 1.0])}, 2)
    base = MeanWordEmbedder(table).embed(tokenize("u v u w")[0])
    out = MeanWordEmbedder(table).embed(tokenize(" ".join(order))[0])
    assert np.allclose(out, base)
