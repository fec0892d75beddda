"""Graph construction against a brute-force enumerator, plus validation."""

import math

import numpy as np
import pytest

from dgsum.corpus import layout, tokenize
from dgsum.embeddings import EmbeddingTable, MeanWordEmbedder
from dgsum.errors import DataError
from dgsum.hetgraph import (EDGE_TYPES, AnnotatedNounTagger, GraphConfig,
                            HeteroGraph, HeuristicNounTagger, NodeId,
                            build_hetero_graph, noun_candidates, validate_graph)
from dgsum.rouge import rouge_avg_f1
from conftest import cluster_from_texts
from oracles import enumerate_graph_oracle, graph_to_oracle_form


def build(cluster, table, **cfg_kw):
    cfg = GraphConfig(**cfg_kw)
    return build_hetero_graph(cluster, table, MeanWordEmbedder(table), cfg)


def assert_matches_oracle(cluster, table, cfg: GraphConfig, g: HeteroGraph):
    bounds = layout(cluster, cfg.max_input_len)
    tagger = cfg.tagger or HeuristicNounTagger()
    exp_nodes, exp_edges = enumerate_graph_oracle(
        cluster, table, bounds, we_threshold=cfg.we_threshold,
        ss_threshold=cfg.ss_threshold, noun_fn=tagger.candidates,
        dd_weight_fn=rouge_avg_f1)
    got_nodes, got_edges = graph_to_oracle_form(g)
    assert sorted(got_nodes) == sorted(exp_nodes)
    for etype in EDGE_TYPES:
        assert set(got_edges[etype]) == set(exp_edges[etype]), f"{etype} pairs differ"
        for pair, w in exp_edges[etype].items():
            assert abs(got_edges[etype][pair] - w) < 1e-9, f"{etype} weight at {pair}"


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
        assert noun_candidates(sent, AnnotatedNounTagger()) == {1}

    def test_external_propn_kept(self):
        sent = tokenize("smith fled quickly")[0]
        sent.pos = ["PROPN", "VERB", "ADV"]
        assert noun_candidates(sent, AnnotatedNounTagger()) == {0}

    def test_external_mismatch_error(self):
        sent = tokenize("the gunman fled")[0]
        sent.pos = ["DET", "NOUN"]
        with pytest.raises(DataError):
            noun_candidates(sent, AnnotatedNounTagger())

    def test_external_missing_annotations_error(self):
        sent = tokenize("the gunman fled")[0]
        with pytest.raises(DataError):
            noun_candidates(sent, AnnotatedNounTagger())


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
        word_nodes = [g.nodes[i] for i in g.kind_indices("word")]
        middle = word_nodes[1]
        neigh = g.neighbors(middle, "WO")
        assert len(neigh) == 2
        assert all(w == 1.0 for _, w in neigh)

    def test_sentence_ds_single_document(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        for i in g.kind_indices("sentence"):
            neigh = g.neighbors(int(i), "DS")
            assert len(neigh) == 1
            assert neigh[0][0].kind == "document"

    def test_symmetry_and_order(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        for etype in EDGE_TYPES:
            for i in range(g.n_nodes):
                neigh = g.neighbors(i, etype)
                indices = [g.nodes.index(nd) for nd, _ in neigh]
                assert indices == sorted(indices)
                for nd, w in neigh:
                    back = g.neighbors(nd, etype)
                    assert any(other == g.nodes[i] and bw == w for other, bw in back)

    def test_unknown_node_error(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        ghost = NodeId(kind="word", index=999, doc=9, sent=9, tok=9, token_position=0)
        with pytest.raises(DataError):
            g.neighbors(ghost, "WO")
        with pytest.raises(DataError):
            g.neighbors(0, "XX")


class TestValidate:
    def test_built_graph_clean(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        report = validate_graph(g)
        assert report.ok, report.violations

    def test_corrupted_ss_weight(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        a, b, _ = g.edges["SS"][0]
        corrupted = HeteroGraph(g.nodes, {**g.edges, "SS": [(a, b, 2.0)]})
        report = validate_graph(corrupted)
        assert len([v for v in report.violations if "SS" in v and "2.0" in v]) == 1

    def test_asymmetric_adjacency_detected(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        a, b, w = g.edges["WO"][0]
        g._adj["WO"][a] = [(j, wt if j != b else wt + 0.5) for j, wt in g._adj["WO"][a]]
        report = validate_graph(g)
        assert any("asymmetry" in v for v in report.violations)

    def test_self_edge_detected(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        bad = HeteroGraph(g.nodes, {**g.edges, "WO": g.edges["WO"] + [(2, 2, 1.0)]})
        assert any("self-edge" in v for v in validate_graph(bad).violations)

    def test_disconnected_detected(self, micro_cluster, table_for):
        table = table_for([micro_cluster])
        g = build(micro_cluster, table)
        pruned = HeteroGraph(g.nodes, {**g.edges, "DS": [], "DD": [], "SS": []})
        assert any("connected" in v for v in validate_graph(pruned).violations)


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

    def test_dd_weight_takes_lower_index_document_as_candidate(self, table_for):
        # summary-level ROUGE-L is reference-sided, so the DD weight depends on
        # document order: the lower-index document is the candidate
        split, joined = "storm hits. storm hits.", "storm hits storm hits."
        sents = {t: [s.lower for s in tokenize(t)] for t in (split, joined)}
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
