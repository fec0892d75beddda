"""Shared fixtures: tiny clusters, embedding tables, and handcrafted corpora."""

import json

import numpy as np
import pytest

from dgsum.corpus import Document, DocumentCluster, tokenize
from dgsum.embeddings import EmbeddingTable


def cluster_from_texts(cid, doc_texts, summary=""):
    docs = [Document(sentences=tokenize(t)) for t in doc_texts]
    return DocumentCluster(id=cid, documents=docs,
                           summary=tokenize(summary) or None)


def all_tokens(cluster):
    toks = {t for d in cluster.documents for s in d.sentences for t in s.tokens}
    if cluster.summary:
        toks |= {t for s in cluster.summary for t in s.tokens}
    return toks


@pytest.fixture
def table_for():
    def make(clusters, dim=8, seed=0):
        toks = set()
        for c in clusters:
            toks |= all_tokens(c)
        return EmbeddingTable.random(toks, dim, seed)
    return make


@pytest.fixture
def micro_cluster():
    """2 docs x 2 sentences x small sentences, with a summary."""
    return cluster_from_texts(
        "micro",
        ["storm hits coast. waves flood town.",
         "storm nears coast. rescue teams arrive."],
        "storm floods town.")


def sentence_from_tokens(tokens):
    from dgsum.corpus import Sentence
    return Sentence(tokens=list(tokens))


@pytest.fixture
def fixture_2x2x2():
    """2 documents x 2 sentences x 2 tokens, no nouns under the heuristic
    tagger (all tokens are closed-class words)."""
    def doc(pairs):
        return Document(sentences=[sentence_from_tokens(p) for p in pairs])
    return DocumentCluster(
        id="f222",
        documents=[doc(((["went", "there"]), ["came", "here"])),
                   doc((["said", "so"], ["told", "all"]))])


def write_cluster_file(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def write_embedding_file(path, tokens, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for tok in sorted(set(tokens)):
            vec = rng.normal(size=dim)
            fh.write(tok + " " + " ".join(f"{x:.8f}" for x in vec) + "\n")


def generated_records(seed, n_clusters):
    """Clusters of random sentences mixing a small pseudo-noun lexicon with
    closed-class words, so nouns repeat across occurrences and many WE edges
    share a weight."""
    rng = np.random.default_rng(seed)
    nouns = ["".join(rng.choice(list("bdgkmnprstv")) + rng.choice(list("aeiou"))
                     for _ in range(3)) for _ in range(12)]
    words = nouns + ["the", "of", "and", "was", "in", "said"]

    def sentence():
        return " ".join(rng.choice(words, size=int(rng.integers(3, 10)))) + "."
    return [{"id": f"gen{seed}-{k}",
             "documents": [" ".join(sentence() for _ in range(int(rng.integers(1, 4))))
                           for _ in range(int(rng.integers(2, 5)))]}
            for k in range(n_clusters)]


@pytest.fixture
def toy_corpus_records():
    """8 tiny clusters for overfit runs: <=3 docs, <=40 tokens per doc,
    <=12-token summaries, shared vocabulary across clusters."""
    base = [
        (["storm hits the coast hard. waves flood low town streets.",
          "rescue teams arrive fast. people move to high ground."],
         "storm floods town and rescue begins."),
        (["markets fall on bad news. traders sell shares fast.",
          "banks warn of more risk. investors wait for calm."],
         "markets fall as traders sell."),
        (["team wins the final game. fans cheer in the streets.",
          "coach praises young players. the club plans a parade."],
         "team wins and fans cheer."),
        (["rain soaks the dry fields. farmers welcome the water.",
          "crops may recover soon. prices fall at the market."],
         "rain helps farmers and crops."),
        (["fire burns the old mill. smoke fills the night sky.",
          "crews fight the flames. the road stays closed."],
         "fire destroys mill as crews fight."),
        (["new bridge opens today. cars cross the wide river.",
          "mayor cuts the ribbon. crowds walk the new span."],
         "new bridge opens over river."),
        (["clinic treats sick children. nurses work long shifts.",
          "doctors ask for supplies. aid arrives by plane."],
         "clinic treats children as aid arrives."),
        (["court hears the big case. lawyers argue for hours.",
          "judge delays the ruling. the city waits for news."],
         "court hears case and judge delays ruling."),
    ]
    return [{"id": f"toy{i}", "documents": docs, "summary": summary}
            for i, (docs, summary) in enumerate(base)]


@pytest.fixture
def toy_corpus_path(tmp_path, toy_corpus_records):
    p = tmp_path / "toy.jsonl"
    write_cluster_file(p, toy_corpus_records)
    return p


@pytest.fixture
def toy_embeddings_path(tmp_path, toy_corpus_records):
    toks = set()
    for rec in toy_corpus_records:
        for doc in rec["documents"]:
            for s in tokenize(doc):
                toks |= set(s.tokens)
        for s in tokenize(rec["summary"]):
            toks |= set(s.tokens)
    p = tmp_path / "vectors.txt"
    write_embedding_file(p, toks, dim=8, seed=1)
    return p
