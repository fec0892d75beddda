"""Graph construction against a brute-force enumerator, plus validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgsum.corpus import (Vocab, build_vocab, layout, serialize_encoder_input,
                          summary_as_cluster, tokenize)
from dgsum.embeddings import EmbeddingTable, MeanWordEmbedder, cosine
from dgsum.errors import DataError
from dgsum.hetgraph import (EDGE_TYPES, Edges, GraphConfig, HeteroGraph, NodeId,
                            build_hetero_graph, noun_candidates, validate_graph)
from dgsum.mgat import UNION_CHANNEL, channel_edges
from dgsum.rouge import rouge_avg_f1
from conftest import all_tokens, cluster_from_texts, generated_records
from oracles import (dense_channel_oracle, enumerate_graph_oracle, graph_to_oracle_form,
                     to_dot_oracle, to_json_oracle, union_channel_oracle)


def build(cluster, table, **cfg_kw):
    cfg = GraphConfig(**cfg_kw)
    return build_hetero_graph(cluster, table, MeanWordEmbedder(table), cfg)


def assert_matches_oracle(cluster, table, cfg: GraphConfig, g: HeteroGraph):
    bounds = layout(cluster, cfg.max_input_len)
    exp_nodes, exp_edges = enumerate_graph_oracle(
        cluster, table, bounds, we_threshold=cfg.we_threshold,
        ss_threshold=cfg.ss_threshold, noun_fn=noun_candidates,
        dd_weight_fn=rouge_avg_f1)
    got_nodes, got_edges = graph_to_oracle_form(g)
    assert sorted(got_nodes) == sorted(exp_nodes)
    for etype in EDGE_TYPES:
        assert set(got_edges[etype]) == set(exp_edges[etype]), f"{etype} pairs differ"
        for pair, w in exp_edges[etype].items():
            assert abs(got_edges[etype][pair] - w) < 1e-9, f"{etype} weight at {pair}"


def hand_built_nodes():
    """A document, its one sentence and that sentence's two words."""
    return [NodeId("document", 0, doc=0, token_position=5),
            NodeId("sentence", 0, doc=0, sent=0, token_position=4),
            NodeId("word", 0, doc=0, sent=0, tok=0, token_position=0),
            NodeId("word", 1, doc=0, sent=0, tok=1, token_position=1)]


class TestNounCandidates:
    def test_bundled_list_fixture(self):
        sent = tokenize("the gunman fled")[0]
        assert noun_candidates(sent) == {1}

    def test_all_stopwords(self):
        sent = tokenize("the of and")[0]
        assert noun_candidates(sent) == set()

    def test_punctuation_and_numbers_excluded(self):
        sent = tokenize("42 gunman .")[0]
        assert noun_candidates(sent) == {1}

    def test_external_annotations(self):
        sent = tokenize("the gunman fled")[0]
        sent.pos = ["DET", "NOUN", "VERB"]
        assert noun_candidates(sent) == {1}

    def test_external_propn_kept(self):
        sent = tokenize("smith fled quickly")[0]
        sent.pos = ["PROPN", "VERB", "ADV"]
        assert noun_candidates(sent) == {0}

    def test_external_mismatch_error(self):
        sent = tokenize("the gunman fled")[0]
        sent.pos = ["DET", "NOUN"]
        with pytest.raises(DataError):
            noun_candidates(sent)

    def test_annotations_replace_the_heuristic(self):
        sent = tokenize("went went went")[0]
        assert noun_candidates(sent) == set()
        sent.pos = ["NOUN", "NOUN", "NOUN"]
        assert noun_candidates(sent) == {0, 1, 2}
        sent.pos = ["VERB", "VERB", "VERB"]
        assert noun_candidates(sent) == set()

    def test_summary_graph_of_annotated_cluster_uses_heuristic(self, table_for):
        cluster = cluster_from_texts("p", ["went went went."], "storm hits coast.")
        cluster.documents[0].sentences[0].pos = ["NOUN", "NOUN", "NOUN", "PUNCT"]
        table = table_for([cluster])
        assert len(build(cluster, table).edges["WE"]) == 3  # identical vectors, cosine 1
        summary = build(summary_as_cluster(cluster), table, we_threshold=0.0)
        assert len(summary.edges["WE"]) == 1  # storm, coast


class TestBuildCounts:
    def test_1doc_1sent_3tokens_no_nouns(self, table_for):
        cluster = cluster_from_texts("a", ["went there again"])
        table = table_for([cluster])
        g = build(cluster, table)
        assert g.n_nodes == 1 + 1 + 3
        counts = {t: len(g.edges[t]) for t in EDGE_TYPES}
        assert counts == {"WO": 2, "SW": 3, "DS": 1, "SS": 0, "DD": 0, "WE": 0}

    def test_2x2x2_counts(self, fixture_2x2x2, table_for):
        table = table_for([fixture_2x2x2])
        g = build(fixture_2x2x2, table)
        assert len(g.kind_indices("sentence")) == 4
        counts = {t: len(g.edges[t]) for t in EDGE_TYPES}
        assert counts == {"SS": 6, "DD": 1, "DS": 4, "SW": 8, "WO": 4, "WE": 0}

    def test_summary_graph_same_path(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        from dgsum.corpus import summary_as_cluster
        g = build(summary_as_cluster(micro_cluster), table)
        assert len(g.kind_indices("document")) == 1
        assert len(g.edges["DD"]) == 0
        assert validate_graph(g).ok

    def test_empty_cluster_error(self, table_for):
        from dgsum.corpus import DocumentCluster
        cluster = DocumentCluster(id="e", documents=[])
        table = EmbeddingTable.random({"x"}, 4)
        with pytest.raises(DataError):
            build(cluster, table)

    def test_we_edges_with_nouns(self, table_for):
        cluster = cluster_from_texts("n", ["storm coast. storm inland."])
        table = table_for([cluster])
        g0 = build(cluster, table, we_threshold=0.0)
        # nouns: storm, coast, storm, inland -> C(4,2)=6 unthresholded pairs
        assert len(g0.edges["WE"]) == 6
        # identical tokens have cosine exactly 1; thresholding keeps those
        g9 = build(cluster, table, we_threshold=0.999)
        pairs = [w for _, _, w in g9.edges["WE"]]
        assert pairs and all(w >= 0.999 for w in pairs)

    def test_ss_threshold(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g_all = build(micro_cluster, table)
        g_thr = build(micro_cluster, table, ss_threshold=2.0)  # impossible bar
        assert len(g_all.edges["SS"]) == 6  # C(4,2)
        assert len(g_thr.edges["SS"]) == 0


class TestAgainstEnumerationOracle:
    def handcrafted_clusters(self):
        return [
            cluster_from_texts("h1", ["went there again"]),
            cluster_from_texts("h2", ["storm hits coast. waves flood town."]),
            cluster_from_texts("h3", ["went there. came here", "said so. told all"]),
            cluster_from_texts("h4", ["storm hits coast. rescue begins now.",
                                      "storm nears coast tonight."]),
            cluster_from_texts("h5", ["alpha beta gamma. delta epsilon.",
                                      "beta gamma delta.",
                                      "epsilon alpha. gamma beta alpha."]),
            cluster_from_texts("h6", ["police found the gunman. he fled the town.",
                                      "police kill the gunman."]),
        ]

    def test_handcrafted_match(self, table_for):
        clusters = self.handcrafted_clusters()
        table = table_for(clusters)
        for cluster in clusters:
            for cfg in (GraphConfig(), GraphConfig(we_threshold=0.0),
                        GraphConfig(ss_threshold=0.1)):
                g = build_hetero_graph(cluster, table, MeanWordEmbedder(table), cfg)
                assert_matches_oracle(cluster, table, cfg, g)

    def test_truncated_cluster_matches(self, table_for):
        cluster = cluster_from_texts(
            "trunc", ["one two three four five. six seven eight nine ten.",
                      "short tail here."])
        table = table_for([cluster])
        cfg = GraphConfig(max_input_len=16)
        g = build_hetero_graph(cluster, table, MeanWordEmbedder(table), cfg)
        assert_matches_oracle(cluster, table, cfg, g)
        assert len(g.kind_indices("sentence")) < 3


class TestNeighbors:
    def test_middle_token_wo(self, table_for):
        cluster = cluster_from_texts("a", ["went there again"])
        table = table_for([cluster])
        g = build(cluster, table)
        middle = int(g.kind_indices("word")[1])
        neigh = g.adjacency("WO", middle)
        assert len(neigh) == 2
        assert all(w == 1.0 for _, w in neigh)

    def test_sentence_ds_single_document(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        for i in g.kind_indices("sentence"):
            neigh = g.adjacency("DS", int(i))
            assert len(neigh) == 1
            assert g.nodes[neigh[0][0]].kind == "document"

    def test_symmetry_and_order(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        for etype in EDGE_TYPES:
            for i in range(g.n_nodes):
                neigh = g.adjacency(etype, i)
                indices = [j for j, _ in neigh]
                assert indices == sorted(indices)
                for j, w in neigh:
                    back = g.adjacency(etype, j)
                    assert any(g.nodes[other] == g.nodes[i] and bw == w for other, bw in back)


class TestValidate:
    def test_built_graph_clean(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        report = validate_graph(g)
        assert report.ok, report.violations

    def test_corrupted_ss_weight(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        a, b, _ = list(g.edges["SS"])[0]
        corrupted = HeteroGraph(g.nodes, {**g.edges, "SS": [(a, b, 2.0)]})
        report = validate_graph(corrupted)
        assert len([v for v in report.violations if "SS" in v and "2.0" in v]) == 1

    def test_out_of_range_endpoints_reported(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        n = g.n_nodes
        for a, b in ((0, n), (-1, 2), (n + 3, 1)):
            bad = HeteroGraph(g.nodes, {**g.edges, "WO": list(g.edges["WO"]) + [(a, b, 1.0)]})
            violations = validate_graph(bad).violations
            assert violations == [f"WO: edge ({a},{b}) out of range"]

    def test_self_edge_detected(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        bad = HeteroGraph(g.nodes, {**g.edges, "WO": list(g.edges["WO"]) + [(2, 2, 1.0)]})
        assert any("self-edge" in v for v in validate_graph(bad).violations)

    def test_disconnected_detected(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        pruned = HeteroGraph(g.nodes, {**g.edges, "DS": [], "DD": [], "SS": []})
        assert any("connected" in v for v in validate_graph(pruned).violations)

    def test_report_of_a_hostile_graph(self):
        nan = float("nan")
        g = HeteroGraph(hand_built_nodes(), {
            "WO": [(2, 3, 1.0), (3, 2, 1.0), (2, 2, 0.5), (-1, 2, 1.0), (2, 9, 1.0)],
            "SW": [(1, 2, 1.0), (1, 3, nan)],
            "DS": [(0, 1, 1.0), (0, 1, 1.0)],
            "WE": [(2, 3, 1.5)],
            "SS": [(1, 1, -2.0)],
            "DD": [(0, 3, nan)]})
        assert validate_graph(g).violations == [
            "WE: weight 1.5 outside [-1,1] on (2,3)",
            "WO: self-edge at node 2",
            "WO: weight 0.5 != 1.0 on (2,2)",
            "WO: edge (-1,2) out of range",
            "WO: edge (2,9) out of range",
            "WO: duplicate edge (2, 3)",
            "SS: self-edge at node 1",
            "SS: weight -2.0 outside [-1,1] on (1,1)",
            "DD: weight nan outside [0,1] on (0,3)",
            "DS: duplicate edge (0, 1)",
            "SW: weight nan != 1.0 on (1,3)",
            "sentence node 1: expected exactly one DS edge",
            "DD: 1 edges, complete graph needs 0"]


class TestInvariants:
    def random_cluster(self, rng):
        words = ["storm", "coast", "flood", "team", "went", "there", "said", "rain"]
        n_docs = int(rng.integers(1, 4))
        docs = []
        for _ in range(n_docs):
            n_sents = int(rng.integers(1, 4))
            sents = [" ".join(rng.choice(words, size=rng.integers(1, 5))) + "."
                     for _ in range(n_sents)]
            docs.append(" ".join(sents))
        return cluster_from_texts(f"r{rng.integers(1 << 30)}", docs)

    def test_structural_counts_on_random_clusters(self, table_for):
        rng = np.random.default_rng(5)
        for _ in range(15):
            cluster = self.random_cluster(rng)
            table = table_for([cluster])
            g = build(cluster, table)
            n_docs = len(cluster.documents)
            n_sents = sum(len(d.sentences) for d in cluster.documents)
            n_words = sum(len(s) for d in cluster.documents for s in d.sentences)
            assert len(g.kind_indices("document")) == n_docs
            assert len(g.kind_indices("sentence")) == n_sents
            assert len(g.kind_indices("word")) == n_words
            assert len(g.edges["DS"]) == n_sents
            assert len(g.edges["SW"]) == n_words
            assert len(g.edges["WO"]) == sum(
                len(s) - 1 for d in cluster.documents for s in d.sentences)
            assert len(g.edges["DD"]) == math.comb(n_docs, 2)
            assert len(g.edges["SS"]) == math.comb(n_sents, 2)
            assert validate_graph(g).ok

    def test_determinism_byte_equal_edges(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g1 = build(micro_cluster, table)
        g2 = build(micro_cluster, table)
        assert g1.to_json() == g2.to_json()
        assert g1.to_dot() == g2.to_dot()

    def test_dot_of_a_hand_built_graph(self):
        g = HeteroGraph(hand_built_nodes(), {"WO": [(2, 3, 1.0)],
                                             "SW": [(1, 2, 1.0), (1, 3, 1.0)],
                                             "DS": [(0, 1, 1.0)], "WE": [(2, 3, 0.123456789)]})
        assert g.to_dot("toy") == (
            'graph "toy" {\n'
            '  d0 [kind="document" pos="5"];\n'
            '  s0 [kind="sentence" pos="4"];\n'
            '  w0 [kind="word" pos="0"];\n'
            '  w1 [kind="word" pos="1"];\n'
            '  w0 -- w1 [type="WE" weight="0.123457"];\n'
            '  w0 -- w1 [type="WO" weight="1.000000"];\n'
            '  d0 -- s0 [type="DS" weight="1.000000"];\n'
            '  s0 -- w0 [type="SW" weight="1.000000"];\n'
            '  s0 -- w1 [type="SW" weight="1.000000"];\n'
            '}')
        assert g.to_json() == (
            '{"nodes": ['
            '{"kind": "document", "index": 0, "doc": 0, "sent": null, "tok": null, '
            '"token_position": 5}, '
            '{"kind": "sentence", "index": 0, "doc": 0, "sent": 0, "tok": null, '
            '"token_position": 4}, '
            '{"kind": "word", "index": 0, "doc": 0, "sent": 0, "tok": 0, "token_position": 0}, '
            '{"kind": "word", "index": 1, "doc": 0, "sent": 0, "tok": 1, "token_position": 1}], '
            '"edges": {"WE": [[2, 3, 0.123456789]], "WO": [[2, 3, 1.0]], "SS": [], "DD": [], '
            '"DS": [[0, 1, 1.0]], "SW": [[1, 2, 1.0], [1, 3, 1.0]]}}')

    def test_rebuilt_from_triples_exports_the_same_bytes(self, table_for):
        clusters = TestAgainstEnumerationOracle().handcrafted_clusters()
        table = table_for(clusters)
        for cluster in clusters:
            g = build(cluster, table, we_threshold=0.0)
            for e in g.edges.values():
                assert e.a.dtype == e.b.dtype == np.intp and e.w.dtype == np.float64
            rebuilt = HeteroGraph(g.nodes, {t: list(e) for t, e in g.edges.items()})
            assert rebuilt.to_json() == g.to_json()
            assert rebuilt.to_dot(cluster.id) == g.to_dot(cluster.id)

    def test_dd_weight_takes_lower_index_document_as_candidate(self, table_for):
        # summary-level ROUGE-L is reference-sided, so the DD weight depends on
        # document order: the lower-index document is the candidate
        split, joined = "storm hits. storm hits.", "storm hits storm hits."
        sents = {t: [s.tokens for s in tokenize(t)] for t in (split, joined)}
        forward = rouge_avg_f1(sents[split], sents[joined])
        backward = rouge_avg_f1(sents[joined], sents[split])
        assert forward != pytest.approx(backward, abs=1e-3)
        for first, second, expected in ((split, joined, forward),
                                        (joined, split, backward)):
            cluster = cluster_from_texts("dd", [first, second])
            g = build(cluster, table_for([cluster]))
            [(_, _, w)] = g.edges["DD"]
            assert w == expected

    def test_weight_ranges(self, table_for):
        cluster = cluster_from_texts("w", ["storm coast flood. team rain there.",
                                           "storm rain flood."])
        table = table_for([cluster])
        g = build(cluster, table, we_threshold=0.0)
        for a, b, w in g.edges["DD"]:
            assert 0.0 <= w <= 1.0
        for etype in ("SS", "WE"):
            for a, b, w in g.edges[etype]:
                assert -1.0 <= w <= 1.0 + 1e-12
        for etype in ("WO", "DS", "SW"):
            assert all(w == 1.0 for _, _, w in g.edges[etype])


def pair_loop_edges(node_ids, vecs, threshold):
    """Per-pair ``cosine`` over i < j in row-major order, the loop the
    pairwise product replaces."""
    out = []
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            sim = cosine(vecs[i], vecs[j])
            if threshold is not None and sim < threshold:
                continue
            a, b = node_ids[i], node_ids[j]
            out.append((min(a, b), max(a, b), sim))
    return out


def expected_cosine_edges(cluster, table, cfg, g):
    """WE and SS edges of a built graph recomputed pair by pair, nouns in
    the order ``noun_candidates`` yields them."""
    word_node = {(nd.doc, nd.sent, nd.tok): i for i, nd in enumerate(g.nodes) if nd.kind == "word"}
    sent_ids = [int(i) for i in g.kind_indices("sentence")]
    nouns, noun_vecs, sent_vecs = [], [], []
    for i in sent_ids:
        nd = g.nodes[i]
        sent = cluster.documents[nd.doc].sentences[nd.sent]
        for k in noun_candidates(sent):
            nouns.append(word_node[(nd.doc, nd.sent, k)])
            noun_vecs.append(table.get(sent.tokens[k]))
        sent_vecs.append(MeanWordEmbedder(table).embed(sent))
    return {"WE": pair_loop_edges(nouns, noun_vecs, cfg.we_threshold or None),
            "SS": pair_loop_edges(sent_ids, sent_vecs, cfg.ss_threshold)}


class TestExport:
    """``to_json`` and ``to_dot`` format each distinct weight once; their
    bytes equal the per-edge oracles'."""

    @staticmethod
    def assert_oracle_bytes(g, name="cluster"):
        assert g.to_json() == to_json_oracle(g)
        assert g.to_dot(name) == to_dot_oracle(g, name)

    def test_handcrafted_clusters(self, table_for):
        clusters = TestAgainstEnumerationOracle().handcrafted_clusters()
        table = table_for(clusters)
        for cluster in clusters:
            for cfg in ({}, {"we_threshold": 0.0}, {"ss_threshold": 0.1}):
                self.assert_oracle_bytes(build(cluster, table, **cfg), cluster.id)

    def test_generated_clusters(self, table_for):
        for seed in range(3):
            clusters = [cluster_from_texts(rec["id"], rec["documents"])
                        for rec in generated_records(seed, 3)]
            table = table_for(clusters, seed=seed)
            for cluster in clusters:
                g = build(cluster, table, we_threshold=0.0)
                we = g.edges["WE"].w
                assert len(np.unique(we)) < len(we)  # occurrences repeat a pair's weight
                self.assert_oracle_bytes(g, cluster.id)

    def test_weights_told_apart_by_bits(self):
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000],
                        dtype=np.int64).view(np.float64)  # quiet NaN, a payload, a negative NaN
        weights = np.array([0.0, -0.0, *nans, np.inf, -np.inf, 5e-324, 0.3,
                            np.nextafter(0.3, 1.0), 0.0000005, 0.1234565, 0.0000015,
                            -0.0, 0.3, np.inf])
        k = np.arange(len(weights))
        edges = Edges((k % 2 + 2).astype(np.intp), (k % 3 + 1).astype(np.intp), weights)
        g = HeteroGraph(hand_built_nodes(), {"WE": edges, "SS": edges})
        self.assert_oracle_bytes(g, "special")
        rows = g.to_json().split('"WE": [')[1].split('], "WO"')[0]
        assert rows.split("], [")[:10] == [
            "[2, 1, 0.0", "3, 2, -0.0", "2, 3, NaN", "3, 1, NaN", "2, 2, NaN",
            "3, 3, Infinity", "2, 1, -Infinity", "3, 2, 5e-324", "2, 3, 0.3",
            "3, 1, 0.30000000000000004"]
        dot = g.to_dot("special").splitlines()
        assert [line[line.index("weight="):] for line in dot[5:11]] == [
            'weight="0.000000"];', 'weight="-0.000000"];', 'weight="nan"];',
            'weight="nan"];', 'weight="nan"];', 'weight="inf"];']

    @pytest.mark.parametrize("weights", [[], [0.25], [0.7] * 5],
                             ids=["empty", "single", "all-equal"])
    def test_few_or_equal_weights(self, weights):
        k = np.arange(len(weights), dtype=np.intp)
        g = HeteroGraph(hand_built_nodes(), {"SS": Edges(k % 3, k % 3 + 1,
                                                         np.array(weights, dtype=np.float64))})
        self.assert_oracle_bytes(g)

    def test_json_of_out_of_range_endpoints(self):
        # a graph that fails validation still exports its endpoints as numbers
        g = HeteroGraph(hand_built_nodes(), {"WO": [(-1, 2, 1.0), (2, 9, 1.0), (-7, 2**40, 0.5)]})
        assert g.to_json() == to_json_oracle(g)
        assert '"WO": [[-1, 2, 1.0], [2, 9, 1.0], [-7, 1099511627776, 0.5]]' in g.to_json()

    def test_dot_refuses_an_endpoint_outside_the_graph(self):
        # DOT names nodes, so an endpoint past either end has no name to write
        for edge in ((-1, 2), (2, 9)):
            g = HeteroGraph(hand_built_nodes(), {"WO": [(2, 3, 1.0), edge + (1.0,)]})
            with pytest.raises(DataError, match=rf"^to_dot: WO edge \({edge[0]},{edge[1]}\) "
                                                r"has an endpoint outside \[0, 4\)$"):
                g.to_dot("toy")
            assert g.to_json() == to_json_oracle(g)

    def test_dot_name_is_quoted(self):
        g = HeteroGraph(hand_built_nodes(), {"WO": [(2, 3, 1.0)]})
        assert g.to_dot('a"b\\').splitlines()[0] == 'graph "a\\"b\\\\" {'
        for name in ('a"b\\', '\\"', "plain", ""):
            self.assert_oracle_bytes(g, name)


class TestEdgeIndex:
    def graphs(self, table_for):
        rng = np.random.default_rng(11)
        clusters = TestAgainstEnumerationOracle().handcrafted_clusters()
        clusters += [TestInvariants().random_cluster(rng) for _ in range(6)]
        cfgs = (GraphConfig(), GraphConfig(we_threshold=0.0), GraphConfig(ss_threshold=0.1))
        for cluster in clusters:
            table = table_for([cluster])
            for cfg in cfgs:
                yield cluster, table, cfg, build_hetero_graph(cluster, table, None, cfg)

    def assert_cosine_edges(self, cluster, table, cfg, g):
        expected = expected_cosine_edges(cluster, table, cfg, g)
        for etype in ("WE", "SS"):
            got = g.edges[etype]
            assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in expected[etype]]
            for (_, _, w), (_, _, ref) in zip(got, expected[etype]):
                assert type(w) is float
                assert w == ref or abs(w - ref) <= 1e-12 * abs(ref), (etype, w, ref)

    def test_cosine_weights_and_order_match_per_pair_cosine(self, table_for):
        for cluster, table, cfg, g in self.graphs(table_for):
            self.assert_cosine_edges(cluster, table, cfg, g)

    def test_zero_norm_word_vector(self):
        cluster = cluster_from_texts("z", ["storm coast flood."])
        rng = np.random.default_rng(0)
        vecs = {t: rng.normal(size=4) for t in ("storm", "flood", ".")}
        vecs["coast"] = np.zeros(4)
        table = EmbeddingTable(vecs, 4)
        kept = build(cluster, table, we_threshold=0.0)
        coast = next(i for i, nd in enumerate(kept.nodes) if nd.tok == 1)
        zero = [w for a, b, w in kept.edges["WE"] if coast in (a, b)]
        assert len(kept.edges["WE"]) == 3 and len(zero) == 2
        assert all(w == 0.0 and math.copysign(1.0, w) == 1.0 for w in zero)
        dropped = build(cluster, table, we_threshold=0.5)
        assert all(coast not in (a, b) for a, b, _ in dropped.edges["WE"])
        for cfg, g in ((GraphConfig(we_threshold=0.0), kept), (GraphConfig(), dropped)):
            self.assert_cosine_edges(cluster, table, cfg, g)

    def test_one_noun_has_no_we_edges(self, table_for):
        cluster = cluster_from_texts("one", ["storm went there."])
        table = table_for([cluster])
        for thr in (0.0, 0.5):
            g = build(cluster, table, we_threshold=thr)
            assert list(g.edges["WE"]) == []
            assert validate_graph(g).ok

    @staticmethod
    def scattered(ix, n):
        """A channel EdgeIndex as dense (weights, mask), checking on the way
        that it is CSR over (src, dst) with no pair twice."""
        assert np.array_equal(ix.indptr, np.searchsorted(ix.src, np.arange(n + 1)))
        key = ix.src * n + ix.dst
        assert np.all(np.diff(key) > 0)  # sorted by (src, dst), pairs unique
        w = np.zeros((n, n))
        m = np.zeros((n, n), dtype=bool)
        w[ix.src, ix.dst] = ix.weight
        m[ix.src, ix.dst] = True
        return w, m

    def test_dense_and_union_channels_match_edge_loops(self, table_for):
        for _, _, _, g in self.graphs(table_for):
            for etype in EDGE_TYPES:
                got = self.scattered(channel_edges(g, etype), g.n_nodes)
                for a, b in zip(got, dense_channel_oracle(g, etype)):
                    assert np.array_equal(a, b)
            got = self.scattered(channel_edges(g, UNION_CHANNEL), g.n_nodes)
            for a, b in zip(got, union_channel_oracle(g)):
                assert np.array_equal(a, b)

    def test_union_keeps_max_weight_of_a_pair_under_two_types(self):
        nodes = [NodeId(kind="word", index=i, doc=0, sent=0, tok=i, token_position=i)
                 for i in range(3)]
        for we, ss in ((0.3, 0.7), (0.9, -0.2)):
            g = HeteroGraph(nodes, {"WE": [(0, 1, we)], "SS": [(0, 1, ss)],
                                    "WO": [(1, 2, 1.0)]})
            w, m = self.scattered(channel_edges(g, UNION_CHANNEL), 3)
            assert w[0, 1] == w[1, 0] == max(we, ss)
            assert not m[0, 2] and w[0, 2] == 0.0
            for got, ref in zip((w, m), union_channel_oracle(g)):
                assert np.array_equal(got, ref)

    def test_adjacency_reads_both_directions(self, micro_cluster, table_for):
        g = build(micro_cluster, table_for([micro_cluster]))
        for etype in EDGE_TYPES:
            expected = {i: [] for i in range(g.n_nodes)}
            for a, b, w in g.edges[etype]:
                expected[a].append((b, w))
                expected[b].append((a, w))
            for i in range(g.n_nodes):
                assert g.adjacency(etype, i) == sorted(expected[i])


# words a generated cluster draws from; the reserved names tokenize to "<",
# the name and ">", so no text token can take a delimiter id
WORDS = ("storm", "coast", "flood", "town", "team", "wins", "<sent-sep>", "<doc-sep>", "<pad>")
SENTENCES = st.lists(st.sampled_from(WORDS), min_size=1, max_size=14).map(
    lambda words: " ".join(words) + ".")
DOCUMENTS = st.lists(SENTENCES, min_size=1, max_size=4).map(" ".join)


class TestDelimiterAlignment:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(docs=st.lists(DOCUMENTS, min_size=1, max_size=4), max_len=st.integers(16, 90),
           min_freq=st.integers(1, 2))
    def test_delimiter_ids_are_the_layout_and_the_graph_nodes(self, docs, max_len, min_freq):
        """The document and sentence separator ids of the serialized input sit
        exactly where the layout puts them and where the graph's document and
        sentence nodes point, for any cluster and length budget."""
        cluster = cluster_from_texts("p", docs)
        vocab = build_vocab([cluster], min_freq=min_freq)
        table = EmbeddingTable.random(all_tokens(cluster), 4, seed=0)
        graph_cfg = GraphConfig(max_input_len=max_len)
        if not layout(cluster, max_len).sent_slots:  # the first sentence does not fit
            with pytest.raises(DataError):
                serialize_encoder_input(cluster, vocab, max_len)
            with pytest.raises(DataError):
                build_hetero_graph(cluster, table, cfg=graph_cfg)
            return
        ids, bounds = serialize_encoder_input(cluster, vocab, max_len)
        g = build_hetero_graph(cluster, table, cfg=graph_cfg)
        ids = np.asarray(ids)
        for sep, slots, kind in (
                (Vocab.DOC_SEP, [p for _, p in bounds.doc_slots], "document"),
                (Vocab.SENT_SEP, [slot.sep_pos for slot in bounds.sent_slots], "sentence")):
            at = np.flatnonzero(ids == sep).tolist()
            assert at == slots
            assert at == [nd.token_position for nd in g.nodes if nd.kind == kind]
        words = [nd.token_position for nd in g.nodes if nd.kind == "word"]
        assert not np.isin(ids[words], (Vocab.DOC_SEP, Vocab.SENT_SEP)).any()
