"""Tokenization, cluster loading, vocabulary, and serialization layout."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgsum.corpus import (DocumentCluster, Vocab, build_vocab, layout, load_clusters,
                          read_lines, read_records, serialize_encoder_input,
                          summary_as_cluster, tokenize)
from dgsum.errors import DataError


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def make_cluster(cid, doc_texts, summary=""):
    recs = [{"id": cid, "documents": doc_texts, "summary": summary}]
    return recs[0]


class TestTokenize:
    def test_two_sentence_fixture(self):
        sents = tokenize("Police killed the gunman. He fled.")
        assert len(sents) == 2
        assert sents[0].tokens == ["police", "killed", "the", "gunman", "."]
        assert sents[1].tokens == ["he", "fled", "."]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \n ") == []

    def test_no_trailing_space_single_sentence(self):
        sents = tokenize("a.b")
        assert len(sents) == 1
        assert sents[0].tokens == ["a.b"]

    def test_tokens_are_lowercased(self):
        assert tokenize("Police fled.")[0].tokens == ["police", "fled", "."]

    def test_punctuation_detached(self):
        sents = tokenize('He said "stop," twice.')
        assert sents[0].tokens == ["he", "said", '"', "stop", ",", '"', "twice", "."]

    def test_question_exclamation(self):
        sents = tokenize("Really? Yes! Fine.")
        assert [s.tokens[0] for s in sents] == ["really", "yes", "fine"]


class TestReadRecords:
    KEYS = ("id", "summary")

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text('\n{"id": "a", "summary": "x"}\n  \n{"id": 2, "summary": "y"}\n\n',
                     encoding="utf-8")
        got = list(read_records(p, "summaries", self.KEYS))
        assert [(line, cid) for line, cid, _ in got] == [(2, "a"), (4, "2")]
        assert got[1][2] == {"id": 2, "summary": "y"}

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "record must be an object with 'id' and 'summary'"),
        ('"text"', "record must be an object with 'id' and 'summary'"),
        ('{"id": "b"}', "record must be an object with 'id' and 'summary'"),
        ('{"summary": "y"}', "record must be an object with 'id' and 'summary'"),
        ('{"id": "a", "summary": "z"}', "duplicate cluster id 'a'"),
        ("{nope", "malformed record")])
    def test_bad_line_names_path_and_line(self, tmp_path, line, message):
        p = tmp_path / "s.jsonl"
        p.write_text('{"id": "a", "summary": "x"}\n\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}:3: {message}"):
            list(read_records(p, "summaries", self.KEYS))

    @pytest.mark.parametrize("make", [
        lambda p: None, lambda p: p.mkdir(), lambda p: p.write_bytes(b"ok\ncaf\xe9\n")],
        ids=["missing", "directory", "latin-1"])
    def test_unreadable_file_is_named(self, tmp_path, make):
        p = tmp_path / "s.jsonl"
        make(p)
        with pytest.raises(DataError, match=f"^cannot read summaries {re.escape(str(p))}: "):
            list(read_lines(p, "summaries"))


class TestLoadClusters:
    def test_count_preservation(self, tmp_path):
        p = tmp_path / "data.jsonl"
        write_jsonl(p, [make_cluster(f"c{i}", ["One sentence here."]) for i in range(3)])
        assert len(load_clusters(p)) == 3

    def test_empty_documents_skipped_with_warning(self, tmp_path, caplog):
        p = tmp_path / "data.jsonl"
        write_jsonl(p, [make_cluster("good", ["Text here."]),
                        {"id": "bad", "documents": [], "summary": ""}])
        with caplog.at_level("WARNING"):
            clusters = load_clusters(p)
        assert [c.id for c in clusters] == ["good"]
        assert any("bad" in r.message for r in caplog.records)

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "data.jsonl"
        p.write_text('{"id": "a", "documents": ["Ok."], "summary": ""}\n{nope\n',
                     encoding="utf-8")
        with pytest.raises(DataError, match=r":2"):
            load_clusters(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_clusters(tmp_path / "nope.jsonl")

    def test_duplicate_id_names_id_and_line(self, tmp_path):
        p = tmp_path / "data.jsonl"
        write_jsonl(p, [make_cluster("a", ["One."]), make_cluster("b", ["Two."]),
                        make_cluster("a", ["Three."])])
        with pytest.raises(DataError, match=r":3: duplicate cluster id 'a'"):
            load_clusters(p)

    @pytest.mark.parametrize("key, value", [
        ("documents", [None, {"x": 1}]), ("documents", ["Ok.", 5]),
        ("summary", None), ("summary", ["A summary."])])
    def test_text_that_is_not_a_string_names_line_and_cluster(self, tmp_path, key, value):
        p = tmp_path / "data.jsonl"
        write_jsonl(p, [make_cluster("a", ["One."]),
                        {**make_cluster("b", ["Two."]), key: value}])
        with pytest.raises(DataError, match=rf"data.jsonl:2: cluster 'b': '{key}' must be"):
            load_clusters(p)

    def test_summary_parsed(self, tmp_path):
        p = tmp_path / "data.jsonl"
        write_jsonl(p, [make_cluster("c", ["Doc text here."], "A summary.")])
        c = load_clusters(p)[0]
        assert c.summary is not None
        assert c.summary[0].tokens == ["a", "summary", "."]

    def test_empty_summary_is_none(self, tmp_path):
        p = tmp_path / "data.jsonl"
        write_jsonl(p, [make_cluster("c", ["Doc text here."], "")])
        assert load_clusters(p)[0].summary is None

    def test_news_corpus_shape_round_trips(self, tmp_path):
        # 100 clusters averaging 2.79 documents each (79x3 + 21x2), the shape
        # of a typical news-cluster corpus
        recs = []
        for i in range(100):
            n_docs = 3 if i < 79 else 2
            recs.append(make_cluster(f"mn{i}",
                                     [f"Document {d} sentence." for d in range(n_docs)]))
        p = tmp_path / "mn.jsonl"
        write_jsonl(p, recs)
        clusters = load_clusters(p)
        assert len(clusters) == 100
        counts = [len(c.documents) for c in clusters]
        assert sum(counts) / len(counts) == pytest.approx(2.79)
        assert [c.id for c in clusters] == [f"mn{i}" for i in range(100)]

    def test_pos_annotations(self, tmp_path):
        p = tmp_path / "data.jsonl"
        rec = {"id": "c", "documents": ["The gunman fled."], "summary": "",
               "pos": [[["DET", "NOUN", "VERB", "PUNCT"]]]}
        write_jsonl(p, [rec])
        c = load_clusters(p)[0]
        assert c.documents[0].sentences[0].pos == ["DET", "NOUN", "VERB", "PUNCT"]

    def test_pos_length_mismatch(self, tmp_path):
        p = tmp_path / "data.jsonl"
        rec = {"id": "c", "documents": ["The gunman fled."], "summary": "",
               "pos": [[["DET", "NOUN"]]]}
        write_jsonl(p, [rec])
        with pytest.raises(DataError, match="pos"):
            load_clusters(p)


class TestBuildVocab:
    def _clusters(self, texts):
        return [DocumentCluster(id=str(i), documents=[
            __import__("dgsum").corpus.Document(sentences=tokenize(t))])
            for i, t in enumerate(texts)]

    def test_min_freq_two(self):
        vocab = build_vocab(self._clusters(["a a b"]), min_freq=2)
        assert len(vocab) == 7  # 6 reserved + "a"
        assert vocab.encode("a") == 6
        assert vocab.encode("b") == Vocab.UNK

    def test_min_freq_one_all_tokens(self):
        vocab = build_vocab(self._clusters(["x y z"]), min_freq=1)
        for t in ("x", "y", "z"):
            assert vocab.encode(t) >= 6

    def test_tie_breaks_lexicographic(self):
        vocab = build_vocab(self._clusters(["b a", "a b"]), min_freq=1)
        assert vocab.decode(6) == "a"
        assert vocab.decode(7) == "b"

    def test_frequency_order(self):
        vocab = build_vocab(self._clusters(["z z z y y x"]), min_freq=1)
        assert [vocab.decode(i) for i in (6, 7, 8)] == ["z", "y", "x"]

    def test_reserved_ids_fixed(self):
        assert (Vocab.PAD, Vocab.UNK, Vocab.BOS, Vocab.EOS,
                Vocab.SENT_SEP, Vocab.DOC_SEP) == (0, 1, 2, 3, 4, 5)

    def test_lowercased(self):
        vocab = build_vocab(self._clusters(["Apple apple"]), min_freq=2)
        assert vocab.encode("apple") == 6

    def test_summary_tokens_counted(self):
        c = self._clusters(["common words here"])[0]
        c.summary = tokenize("rare rare")
        vocab = build_vocab([c], min_freq=2)
        assert vocab.encode("rare") >= 6

    def test_vocab_json_round_trip(self, tmp_path):
        vocab = build_vocab(self._clusters(["a b c a b a"]), min_freq=1)
        p = tmp_path / "vocab.json"
        vocab.save(p)
        loaded = Vocab.load(p)
        assert loaded.id_to_token == vocab.id_to_token

    @pytest.mark.parametrize("text", ['{"words": ["a"]}', '{"tokens": ["a", 5]}'])
    def test_vocab_file_of_another_shape_is_named(self, tmp_path, text):
        p = tmp_path / "vocab.json"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(str(p))):
            Vocab.load(p)

    @pytest.mark.parametrize("tokens, repeated", [(["a", "a"], "a"),
                                                  (["x", "b", "a", "b", "x"], "b"),
                                                  (["z", "<bos>"], "<bos>")])
    def test_repeated_token_is_named_with_the_file(self, tmp_path, tokens, repeated):
        p = tmp_path / "vocab.json"
        p.write_text(json.dumps({"tokens": tokens}), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{p}: vocab repeats the token "
                                                      f"{repeated!r}")):
            Vocab.load(p)


def two_by_one_by_two():
    docs = ["alpha beta.", "gamma delta."]
    return DocumentCluster(id="t", documents=[
        __import__("dgsum").corpus.Document(sentences=tokenize(d)) for d in docs])


class TestSerialize:
    def _vocab(self, cluster):
        return build_vocab([cluster], min_freq=1)

    def test_layout_arithmetic_2x1x2(self):
        cluster = two_by_one_by_two()
        # each doc: DOC_SEP + 3 tokens (2 words + '.') + SENT_SEP = 5 -> hmm
        vocab = self._vocab(cluster)
        ids, bounds = serialize_encoder_input(cluster, vocab, 64)
        assert len(ids) == 10  # 2 * (1 + 3 + 1): '.' is a token too
        assert ids.count(Vocab.DOC_SEP) == 2
        assert ids.count(Vocab.SENT_SEP) == 2

    def test_layout_exact_example_without_punct(self):
        docs = ["alpha beta", "gamma delta"]
        cluster = DocumentCluster(id="t", documents=[
            __import__("dgsum").corpus.Document(sentences=tokenize(d)) for d in docs])
        vocab = self._vocab(cluster)
        ids, bounds = serialize_encoder_input(cluster, vocab, 64)
        assert len(ids) == 8  # 2 docs x (DOC_SEP + 2 tokens + SENT_SEP)
        assert ids[0] == Vocab.DOC_SEP and ids[4] == Vocab.DOC_SEP
        assert ids[3] == Vocab.SENT_SEP and ids[7] == Vocab.SENT_SEP

    def test_boundary_consistency(self):
        cluster = two_by_one_by_two()
        vocab = self._vocab(cluster)
        ids, bounds = serialize_encoder_input(cluster, vocab, 64)
        assert len(bounds.sent_slots) == 2
        for slot in bounds.sent_slots:
            assert ids[slot.sep_pos] == Vocab.SENT_SEP
            sent = cluster.documents[slot.doc].sentences[slot.sent]
            assert slot.sep_pos - slot.tok_start == len(sent)
        for _, pos in bounds.doc_slots:
            assert ids[pos] == Vocab.DOC_SEP

    def test_token_ranges_partition_non_delimiters(self):
        cluster = two_by_one_by_two()
        vocab = self._vocab(cluster)
        ids, bounds = serialize_encoder_input(cluster, vocab, 64)
        covered = set()
        for slot in bounds.sent_slots:
            rng = set(range(slot.tok_start, slot.sep_pos))
            assert not rng & covered
            covered |= rng
        delims = {p for _, p in bounds.doc_slots} | {s.sep_pos for s in bounds.sent_slots}
        assert covered | delims == set(range(len(ids)))
        assert not covered & delims

    def test_truncation_preserves_whole_sentences(self):
        doc = __import__("dgsum").corpus.Document(
            sentences=tokenize("one two three four. five six seven eight. nine ten more."))
        cluster = DocumentCluster(id="t", documents=[doc])
        vocab = build_vocab([cluster], min_freq=1)
        # DOC_SEP(1) + 2 x (5 tokens + SENT_SEP) = 13; third sentence needs 19
        ids, bounds = serialize_encoder_input(cluster, vocab, 16)
        assert [(s.doc, s.sent) for s in bounds.sent_slots] == [(0, 0), (0, 1)]
        assert bounds.length == 13
        full_ids, full_bounds = serialize_encoder_input(cluster, vocab, 64)
        assert len(full_bounds.sent_slots) == 3
        assert full_ids[:13] == ids  # truncation is a strict prefix

    def test_truncation_drops_trailing(self):
        doc1 = __import__("dgsum").corpus.Document(
            sentences=tokenize("a b c d e f g h. i j k l m n."))
        doc2 = __import__("dgsum").corpus.Document(sentences=tokenize("z y x."))
        cluster = DocumentCluster(id="t", documents=[doc1, doc2])
        vocab = build_vocab([cluster], min_freq=1)
        ids, bounds = serialize_encoder_input(cluster, vocab, 18)
        # doc1: DOC_SEP + 9 + SENT_SEP = 11; second sentence (7+1) exceeds 18
        assert [(s.doc, s.sent) for s in bounds.sent_slots] == [(0, 0)]
        assert len(bounds.doc_slots) == 1

    def test_zero_sentences_error(self):
        doc = __import__("dgsum").corpus.Document(
            sentences=tokenize("a b c d e f g h i j k l m n o p q r."))
        cluster = DocumentCluster(id="t", documents=[doc])
        vocab = build_vocab([cluster], min_freq=1)
        with pytest.raises(DataError):
            serialize_encoder_input(cluster, vocab, 16)

    def test_round_trip_tokens(self):
        cluster = two_by_one_by_two()
        vocab = self._vocab(cluster)
        ids, bounds = serialize_encoder_input(cluster, vocab, 64)
        decoded = [vocab.decode(i) for i in ids if i >= 6]
        stream = [t for d in cluster.documents for s in d.sentences for t in s.tokens]
        assert decoded == stream

    def test_determinism_byte_identical(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_jsonl(p, [make_cluster("c", ["Alpha beta gamma. Delta."], "Sum here.")])
        outs = []
        for _ in range(2):
            clusters = load_clusters(p)
            vocab = build_vocab(clusters, min_freq=1)
            ids, _ = serialize_encoder_input(clusters[0], vocab, 4096)
            outs.append(bytes(ids))
        assert outs[0] == outs[1]

    def test_summary_as_cluster(self, tmp_path):
        p = tmp_path / "d.jsonl"
        write_jsonl(p, [make_cluster("c", ["Doc one here."], "Short summary.")])
        cluster = load_clusters(p)[0]
        wrapped = summary_as_cluster(cluster)
        assert wrapped.id == "c:summary"
        assert len(wrapped.documents) == 1
        assert wrapped.documents[0].sentences[0].tokens == ["short", "summary", "."]
        no_sum = load_clusters(p)[0]
        no_sum.summary = None
        with pytest.raises(DataError):
            summary_as_cluster(no_sum)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet="abcdef ", min_size=1, max_size=30), min_size=1,
                max_size=4))
def test_round_trip_property(texts):
    docs = [t for t in texts if tokenize(t)]
    if not docs:
        return
    from dgsum.corpus import Document
    cluster = DocumentCluster(id="p", documents=[Document(sentences=tokenize(t))
                                                 for t in docs])
    vocab = build_vocab([cluster], min_freq=1)
    ids, bounds = serialize_encoder_input(cluster, vocab, 4096)
    decoded = [vocab.decode(i) for i in ids if i >= 6]
    stream = [t for d in cluster.documents for s in d.sentences for t in s.tokens]
    assert decoded == stream
    assert len(bounds.sent_slots) == sum(len(d.sentences) for d in cluster.documents)
