"""Seeded synthetic corpus for the benchmark (stdlib + numpy only).

A corpus is a line-delimited cluster file (``id``, ``documents``,
``summary``) plus a GloVe-format vector file (``token v1 ... vd``), the two
inputs ``dgsum train`` / ``summarize`` / ``graph`` read.

Words are alphabetic pseudo-words ("nouns" to the heuristic tagger) mixed
with closed-class words from a stopword list the caller passes in, so the
tagger finds noun candidates and WE edges appear. Each pseudo-word belongs to
a topic; its vector is the topic centroid plus noise scaled so two words of
one topic have cosine ``TOPIC_COS`` on average. A cluster draws its nouns
from a few topics, so some noun pairs clear the WE threshold and most do not.

Sizes (documents x sentences x words, summary length) are part of the
workload, not of the seed: they are drawn once from a fixed generator, so
every seed gives clusters of the same shape and only the words change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SHAPE_SEED = 20230311  # sizes do not depend on the workload seed
DIM = 100              # vector width, the CLI's default --embedding-dim
TOPICS = 60            # topics the lexicon is split into
TOPIC_COS = 0.4        # mean cosine of two words of one topic
_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class CorpusSpec:
    n_clusters: int
    docs: int                       # documents per cluster
    sents: tuple[int, int]          # sentences per document, inclusive range
    words: tuple[int, int]          # words per sentence before the full stop
    summary_words: int = 0          # summary length in words; 0 = no summary
    noun_density: float = 0.6       # share of words that are pseudo-words
    lexicon: int = 3000             # pseudo-words available
    topics_per_cluster: int = 3
    zipf: float = 1.1               # word-frequency exponent within a topic


def pseudo_words(rng: np.random.Generator, count: int, exclude) -> list[str]:
    """``count`` distinct consonant-vowel words of 2-3 syllables."""
    out: list[str] = []
    seen = set(exclude)
    while len(out) < count:
        n_syl = 2 + int(rng.integers(0, 2))
        word = "".join(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
                       + _VOWELS[int(rng.integers(len(_VOWELS)))]
                       for _ in range(n_syl))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _shape(spec: CorpusSpec) -> list[list[int]]:
    """Words per sentence, per document: one shape shared by every cluster."""
    rng = np.random.default_rng(SHAPE_SEED)
    lengths = []
    for _ in range(spec.docs):
        n_sents = int(rng.integers(spec.sents[0], spec.sents[1] + 1))
        lengths.append([int(rng.integers(spec.words[0], spec.words[1] + 1))
                        for _ in range(n_sents)])
    return lengths


def generate(spec: CorpusSpec, seed: int, stopwords) -> tuple[list[dict], dict[str, np.ndarray]]:
    """Cluster records and word vectors for one seed."""
    rng = np.random.default_rng(seed)
    stop = sorted(stopwords)
    lexicon = pseudo_words(rng, spec.lexicon, stop)
    topic_of = rng.permutation(spec.lexicon) % TOPICS
    by_topic = [[lexicon[i] for i in np.flatnonzero(topic_of == t)] for t in range(TOPICS)]

    # vectors: unit centroid + noise; E[cos] within a topic = TOPIC_COS
    noise = np.sqrt(1.0 / TOPIC_COS - 1.0)
    centroids = rng.normal(size=(TOPICS, DIM))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    scale = 1.0 / np.sqrt(DIM)
    word_vecs = centroids[topic_of] + noise * scale * rng.normal(size=(spec.lexicon, DIM))
    other = stop + ["."]
    other_vecs = scale * rng.normal(size=(len(other), DIM))
    vectors = dict(zip(lexicon + other, np.concatenate([word_vecs, other_vecs])))

    shape = _shape(spec)
    n_words = sum(sum(doc) for doc in shape)

    def words(topic_words: list[list[str]], topic_p: list[np.ndarray], n: int) -> list[str]:
        noun = np.zeros(n, dtype=bool)  # an exact share, so every seed has as many nouns
        noun[rng.choice(n, size=round(spec.noun_density * n), replace=False)] = True
        topic = rng.integers(len(topic_words), size=n)
        picks = [rng.choice(len(p), size=n, p=p) for p in topic_p]
        stop_pick = rng.integers(len(stop), size=n)
        return [topic_words[topic[k]][picks[topic[k]][k]] if noun[k] else stop[stop_pick[k]]
                for k in range(n)]

    def sentences(ws: list[str], lengths: list[int]) -> str:
        out, at = [], 0
        for n in lengths:
            out.append(" ".join(ws[at:at + n]) + ".")
            at += n
        return " ".join(out)

    summary_shape = [12] * (spec.summary_words // 12)
    if spec.summary_words % 12:
        summary_shape.append(spec.summary_words % 12)
    records = []
    for ci in range(spec.n_clusters):
        chosen = rng.choice(TOPICS, size=spec.topics_per_cluster, replace=False)
        topic_words = [by_topic[int(t)] for t in chosen]
        topic_p = []
        for tw in topic_words:
            p = 1.0 / np.arange(1, len(tw) + 1) ** spec.zipf
            topic_p.append(p / p.sum())
        ws = words(topic_words, topic_p, n_words)
        docs, at = [], 0
        for doc in shape:
            docs.append(sentences(ws[at:at + sum(doc)], doc))
            at += sum(doc)
        summary = sentences(words(topic_words, topic_p, spec.summary_words), summary_shape)
        records.append({"id": f"c{ci:03d}", "documents": docs, "summary": summary})
    return records, vectors


def write_corpus(out_dir: Path, spec: CorpusSpec, seed: int, stopwords) -> dict:
    """Write ``clusters.jsonl`` and ``vectors.txt`` under ``out_dir``;
    return the paths and the realised corpus statistics."""
    records, vectors = generate(spec, seed, stopwords)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = out_dir / "clusters.jsonl"
    with data.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    vec_path = out_dir / "vectors.txt"
    row = " ".join(["%.6f"] * DIM)
    with vec_path.open("w", encoding="utf-8") as fh:
        for word, vec in vectors.items():
            fh.write(f"{word} {row % tuple(vec)}\n")
    return {"data": str(data), "embeddings": str(vec_path),
            "stats": corpus_stats(records, stopwords)}


def corpus_stats(records: list[dict], stopwords) -> dict:
    """Realised sizes: whitespace/full-stop tokens as ``dgsum.corpus``
    splits this generator's text."""
    stop = set(stopwords)
    vocab: set[str] = set()
    src_tokens, sum_tokens, nouns = [], [], 0
    for rec in records:
        toks = [t for d in rec["documents"] for t in _tokens(d)]
        src_tokens.append(len(toks))
        nouns += sum(1 for t in toks if t.isalpha() and t not in stop)
        s = _tokens(rec["summary"])
        sum_tokens.append(len(s))
        vocab.update(toks)
        vocab.update(s)
    total = sum(src_tokens)
    return {"clusters": len(records), "vocab_size": len(vocab),
            "src_tokens_per_cluster": [min(src_tokens), max(src_tokens)],
            "summary_tokens_per_cluster": [min(sum_tokens), max(sum_tokens)],
            "src_tokens_total": total,
            "noun_density": nouns / total if total else 0.0}


def _tokens(text: str) -> list[str]:
    out = []
    for chunk in text.split():
        if chunk.endswith("."):
            out.extend([chunk[:-1], "."] if len(chunk) > 1 else ["."])
        else:
            out.append(chunk)
    return out
