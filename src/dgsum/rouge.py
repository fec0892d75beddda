"""ROUGE-1/2 and summary-level ROUGE-L, used both as document-edge weights
and as the evaluation metric, with the one corpus average every command
reports.

All functions operate on token lists (callers lowercase upstream; no
stemming, no stopword removal). ROUGE-N uses clipped multiset counts.
Summary-level ROUGE-L takes the union of per-reference-sentence LCS hits
across candidate sentences, crediting no token twice.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import tokenize
from .errors import DataError


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, p: float, r: float) -> "RougeScore":
        f1 = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        return cls(precision=p, recall=r, f1=f1)


ZERO = RougeScore(0.0, 0.0, 0.0)

TokenList = list[str]
SentenceList = list[TokenList]


def _ngrams(tokens: TokenList, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: TokenList, reference: TokenList, n: int) -> RougeScore:
    """Clipped n-gram overlap; empty n-gram sets on either side give zeros."""
    if n not in (1, 2):
        raise ValueError(f"rouge_n: n must be 1 or 2, got {n}")
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    total_c = sum(cand.values())
    total_r = sum(ref.values())
    if total_c == 0 or total_r == 0:
        return ZERO
    overlap = sum(min(count, ref[gram]) for gram, count in cand.items())
    return RougeScore.from_pr(overlap / total_c, overlap / total_r)


def _lcs_table(a: TokenList, b: TokenList) -> list[list[int]]:
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        ai = a[i - 1]
        for j in range(1, cols):
            if ai == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table


def lcs_positions(reference: TokenList, candidate: TokenList) -> set[int]:
    """Positions in ``reference`` on one LCS with ``candidate``, using the
    canonical backtrack (diagonal on match, else toward the larger cell,
    preferring the reference side only on strict inequality)."""
    table = _lcs_table(reference, candidate)
    i, j = len(reference), len(candidate)
    hits: set[int] = set()
    while i > 0 and j > 0:
        if reference[i - 1] == candidate[j - 1]:
            hits.add(i - 1)
            i -= 1
            j -= 1
        elif table[i - 1][j] > table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return hits


def rouge_l_summary(candidate: SentenceList, reference: SentenceList) -> RougeScore:
    """Summary-level LCS: per reference sentence, union the LCS hit positions
    over all candidate sentences; clip so no token (by type) is credited more
    often than it occurs on either side."""
    cand_sents = [s for s in candidate if s]
    ref_sents = [s for s in reference if s]
    m = sum(len(s) for s in ref_sents)
    n = sum(len(s) for s in cand_sents)
    if m == 0 or n == 0:
        return ZERO
    budget_c = Counter(t for s in cand_sents for t in s)
    budget_r = Counter(t for s in ref_sents for t in s)
    hits = 0
    for ref in ref_sents:
        union: set[int] = set()
        for cand in cand_sents:
            union |= lcs_positions(ref, cand)
        for pos in sorted(union):
            tok = ref[pos]
            if budget_c[tok] > 0 and budget_r[tok] > 0:
                hits += 1
                budget_c[tok] -= 1
                budget_r[tok] -= 1
    return RougeScore.from_pr(hits / n, hits / m)


def rouge_avg_f1(text_a: SentenceList, text_b: SentenceList) -> float:
    """Mean of the ROUGE-1, ROUGE-2, and summary-level ROUGE-L F1 between two
    texts given as sentence token lists; this is the document-document edge
    weight. ROUGE-1/2 F1 are symmetric, but summary-level ROUGE-L is
    reference-sided, so swapping the operands can change the weight: graph
    construction passes the lower-index document as ``text_a``, the
    candidate."""
    flat_a = [t for s in text_a for t in s]
    flat_b = [t for s in text_b for t in s]
    r1 = rouge_n(flat_a, flat_b, 1).f1
    r2 = rouge_n(flat_a, flat_b, 2).f1
    rl = rouge_l_summary(text_a, text_b).f1
    return (r1 + r2 + rl) / 3.0


def sentences(text: str) -> SentenceList:
    """Lowercased sentence token lists of ``text``, split by the package
    tokenizer."""
    return [s.lower for s in tokenize(text)]


def mean_rouge(pairs: list[tuple[SentenceList, SentenceList]]) -> dict:
    """Corpus means of R-1/R-2/R-L F1 and of the hypothesis token length over
    (hypothesis sentences, reference sentences) pairs; R-1/R-2 score the
    flattened texts, R-L is summary-level."""
    r1 = r2 = rl = length = 0.0
    for hyp_sents, ref_sents in pairs:
        hyp_flat = [t for s in hyp_sents for t in s]
        ref_flat = [t for s in ref_sents for t in s]
        r1 += rouge_n(hyp_flat, ref_flat, 1).f1
        r2 += rouge_n(hyp_flat, ref_flat, 2).f1
        rl += rouge_l_summary(hyp_sents, ref_sents).f1
        length += len(hyp_flat)
    n = max(len(pairs), 1)
    return {"r1": r1 / n, "r2": r2 / n, "rl": rl / n, "mean_length": length / n,
            "count": len(pairs)}


def corpus_rouge(generated: dict[str, str], references: dict[str, str]) -> dict:
    """``mean_rouge`` of id-matched summary texts, as ``dgsum eval`` reports
    it; both sides must hold the same ids."""
    missing = sorted(set(references) - set(generated))
    extra = sorted(set(generated) - set(references))
    if missing or extra:
        raise DataError(f"id mismatch: missing {missing[:5]}, unexpected {extra[:5]}")
    return mean_rouge([(sentences(generated[cid]), sentences(ref))
                       for cid, ref in references.items()])
