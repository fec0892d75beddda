"""ROUGE-1/2 and summary-level ROUGE-L, used both as document-edge weights
and as the evaluation metric, with the one corpus average every command
reports.

All functions operate on token lists (callers lowercase upstream; no
stemming, no stopword removal). ROUGE-N uses clipped multiset counts.
Summary-level ROUGE-L takes the union of per-reference-sentence LCS hits
across candidate sentences, crediting no token twice. Every score comes from
one batched path over integer token ids, ``_scores``; hit counts are
integers, so the floats equal those of a per-pair loop bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import tokenize
from .errors import DataError

# LCS cells filled in one batch; a sentence of _SHORT tokens or more is
# batched only with lengths of its own power of two, so it pads no short one
_MAX_CELLS, _SHORT = 1 << 22, 32


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


def _segments(starts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(range, index) of each element of the ranges [starts[s], starts[s] + sizes[s])."""
    seg = np.repeat(np.arange(len(sizes)), sizes)
    return seg, np.arange(len(seg)) - np.repeat(np.cumsum(sizes) - sizes - starts, sizes)


def _overlap(text: np.ndarray, gram: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[int]:
    """Per pair u, the sum over g of min(count of g in text a[u], in text
    b[u]); element e of the multisets is gram ``gram[e]`` of text ``text[e]``."""
    g_max = int(gram.max()) + 1 if len(gram) else 1
    keys, counts = np.unique(text * g_max + gram, return_counts=True)
    lo = np.searchsorted(keys, a * g_max)
    unit, at = _segments(lo, np.searchsorted(keys, (a + 1) * g_max) - lo)
    look = b[unit] * g_max + keys[at] % g_max
    found = np.minimum(np.searchsorted(keys, look), len(keys) - 1)
    other = np.where(keys[found] == look, counts[found], 0)
    return np.bincount(unit, np.minimum(counts[at], other), len(a)).astype(np.int64).tolist()


def _score(hits: int, n_cand: int, n_ref: int) -> RougeScore:
    return RougeScore.from_pr(hits / n_cand, hits / n_ref) if n_cand and n_ref else ZERO


def rouge_n(candidate: TokenList, reference: TokenList, n: int) -> RougeScore:
    """Clipped n-gram overlap; empty n-gram sets on either side give zeros."""
    if n not in (1, 2):
        raise ValueError(f"rouge_n: n must be 1 or 2, got {n}")
    return _scores([[candidate], [reference]], [(0, 1)])[0][n - 1]


def _padded(tokens: np.ndarray, starts: np.ndarray, n: np.ndarray, fill: int) -> np.ndarray:
    """[max n, P] token ids of the sentences at ``starts``, padded with ``fill``."""
    r = np.arange(n.max())[:, None]
    return np.where(r < n, tokens[np.minimum(starts + r, len(tokens) - 1)], fill)


def _lcs_hits(tokens: np.ndarray, starts: np.ndarray, lens: np.ndarray,
              ref: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(problem, reference position) of every LCS hit of each problem p,
    sentence ``ref[p]`` against ``cand[p]``; sentence s is
    ``tokens[starts[s]:starts[s] + lens[s]]``. Problems are grouped by length
    class, sorted by (reference length, candidate length) and filled in
    batches of at most ``_MAX_CELLS`` cells as one [La+1, Lb+1, P] table. Row
    i comes from row i-1 for all at once: L[i][j] is the running max along
    the row of max(L[i-1][j], L[i-1][j-1] + match), exact because rows never
    decrease and L[i-1][j-1] + 1 is never below a neighbour. The backtrack is
    the canonical one, for all problems together: diagonal on a match, up
    only toward a strictly larger cell, else left."""
    la, lb = lens[ref], lens[cand]
    ga, gb = np.frexp(la // _SHORT)[1], np.frexp(lb // _SHORT)[1]
    order = np.lexsort((lb, la, gb, ga))
    group = (ga * 64 + gb)[order]
    hit_p, hit_i, lo = [order[:0]], [order[:0]], 0  # empty seeds for no problems
    while lo < len(order):
        rest = order[lo:np.searchsorted(group, group[lo], side="right")]
        cells = (np.arange(1, len(rest) + 1) * (la[rest] + 1)
                 * (np.maximum.accumulate(lb[rest]) + 1))
        p = rest[:max(1, np.searchsorted(cells, _MAX_CELLS, side="right"))]
        lo += len(p)
        # the two pads never match each other or a token id
        a = _padded(tokens, starts[ref[p]], la[p], -1)
        b = _padded(tokens, starts[cand[p]], lb[p], -2)
        shape = (len(a) + 1, len(b) + 1, len(p))
        table = np.zeros(shape, dtype=np.min_scalar_type(min(shape[:2]) - 1))
        match = np.zeros(shape, dtype=bool)
        for i in range(1, shape[0]):
            np.equal(a[i - 1], b, out=match[i, 1:])
            row = table[i, 1:]
            np.maximum(table[i - 1, 1:], table[i - 1, :-1] + match[i, 1:], out=row)
            for k in [1 << e for e in range((len(b) - 1).bit_length())]:  # running max
                np.maximum(row[k:], row[:-k], out=row[k:])
        # backtrack on flat cell indices: up is `down` cells back, left `right`
        down, right = shape[1] * shape[2], shape[2]
        table, match = table.reshape(-1), match.reshape(-1)
        f = la[p] * down + lb[p] * right + np.arange(len(p))
        while len(f := f[table[f] > 0]):  # no hit is left where L is 0
            m = match[f]
            hit_p.append(p[f[m] % right])
            hit_i.append(f[m] // down - 1)
            up = ~m & (table[f - down] > table[f - right])
            f = f - down * (m | up) - right * ~up
    return np.concatenate(hit_p), np.concatenate(hit_i)


def _scores(texts: list[SentenceList], pairs: list[tuple[int, int]]
            ) -> list[tuple[RougeScore, RougeScore, RougeScore]]:
    """(R-1, R-2, summary-level R-L) of each (candidate, reference) pair of
    indices into ``texts``; R-1/R-2 score the flattened texts. R-L hits of
    token t are min(union LCS hits of t, candidate count of t): a reference
    budget cannot bind, as t has at most its reference count of hits."""
    vocab: dict[str, int] = {}
    ids = np.array([vocab.setdefault(t, len(vocab)) for text in texts for s in text for t in s],
                   dtype=np.intp)
    n_sents = np.array([sum(1 for s in text if s) for text in texts], dtype=np.intp)
    lens = np.array([len(s) for text in texts for s in text if s], dtype=np.intp)
    starts, first = np.cumsum(lens) - lens, np.cumsum(n_sents) - n_sents
    tok_text = np.repeat(np.repeat(np.arange(len(texts)), n_sents), lens)
    n_tok = np.bincount(tok_text, minlength=len(texts)).tolist()
    pc, pr = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    same = tok_text[1:] == tok_text[:-1]  # bigrams run across sentence ends
    r1 = _overlap(tok_text, ids, pc, pr)
    r2 = _overlap(tok_text[1:][same], (ids[:-1] * len(vocab) + ids[1:])[same], pc, pr)
    # every (reference sentence, candidate sentence) problem of every pair,
    # then each pair's union of hit positions as a multiset of token ids
    unit, k = _segments(np.zeros_like(pc), n_sents[pr] * n_sents[pc])
    ref = first[pr][unit] + k // n_sents[pc][unit]
    hp, hi = _lcs_hits(ids, starts, lens, ref, first[pc][unit] + k % n_sents[pc][unit])
    pos = np.unique(unit[hp] * len(ids) + starts[ref[hp]] + hi)
    union = len(texts) + np.arange(len(pairs))
    rl = _overlap(np.concatenate([tok_text, union[pos // max(len(ids), 1)]]),
                  np.concatenate([ids, ids[pos % max(len(ids), 1)]]), union, pc)
    return [(_score(h1, n_tok[c], n_tok[r]),
             _score(h2, max(n_tok[c] - 1, 0), max(n_tok[r] - 1, 0)),
             _score(hl, n_tok[c], n_tok[r]))
            for c, r, h1, h2, hl in zip(pc.tolist(), pr.tolist(), r1, r2, rl)]


def rouge_l_summary(candidate: SentenceList, reference: SentenceList) -> RougeScore:
    """Summary-level LCS: per reference sentence, union the LCS hit positions
    over all candidate sentences; clip so no token (by type) is credited more
    often than it occurs on either side."""
    return _scores([candidate, reference], [(0, 1)])[0][2]


def rouge_avg_f1_batch(texts: list[SentenceList], pairs: list[tuple[int, int]]) -> list[float]:
    """Mean R-1, R-2 and summary-level R-L F1 of each (candidate, reference)
    pair of indices into ``texts``: the document-document edge weights, one
    call per graph. Summary-level R-L is reference-sided, so swapping a pair
    can change its weight; graph construction makes the lower-index document
    the candidate."""
    return [(r1.f1 + r2.f1 + rl.f1) / 3.0 for r1, r2, rl in _scores(texts, pairs)]


def rouge_avg_f1(text_a: SentenceList, text_b: SentenceList) -> float:
    """``rouge_avg_f1_batch`` of one pair, ``text_a`` the candidate."""
    return rouge_avg_f1_batch([text_a, text_b], [(0, 1)])[0]


def sentences(text: str) -> SentenceList:
    """Lowercased sentence token lists of ``text``, split by the package
    tokenizer."""
    return [s.tokens for s in tokenize(text)]


def mean_rouge(pairs: list[tuple[SentenceList, SentenceList]]) -> dict:
    """Corpus means of R-1/R-2/R-L F1 and of the hypothesis token length over
    (hypothesis sentences, reference sentences) pairs, scored in one batch;
    R-1/R-2 score the flattened texts, R-L is summary-level."""
    scores = _scores([t for pair in pairs for t in pair],
                     [(k, k + 1) for k in range(0, 2 * len(pairs), 2)])
    r1 = r2 = rl = length = 0.0
    for (hyp_sents, _), (s1, s2, sl) in zip(pairs, scores):
        r1 += s1.f1
        r2 += s2.f1
        rl += sl.f1
        length += sum(len(s) for s in hyp_sents)
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
