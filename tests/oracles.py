"""Independent brute-force oracles the test suite checks the library against.

Everything here is deliberately written from the definitions (nested loops,
recursion, direct formulas) rather than reusing library code paths, so a bug
would have to appear twice, in two different shapes, to slip through.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

import dgsum.numeric as nm
from dgsum.corpus import RESERVED, Vocab
from dgsum.text_model import _decoder_forward
from dgsum.training import encode_compress


# --- ROUGE ------------------------------------------------------------------

def ngram_counts_oracle(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i:i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def rouge_n_oracle(candidate, reference, n):
    c = ngram_counts_oracle(candidate, n)
    r = ngram_counts_oracle(reference, n)
    total_c = sum(c.values())
    total_r = sum(r.values())
    if not total_c or not total_r:
        return 0.0, 0.0, 0.0
    overlap = 0
    for g, cnt in c.items():
        overlap += min(cnt, r.get(g, 0))
    p = overlap / total_c
    rec = overlap / total_r
    f1 = 2 * p * rec / (p + rec) if p + rec else 0.0
    return p, rec, f1


def lcs_positions_oracle(ref, cand):
    """Recursive memoized LCS backtrack with the canonical tie rule
    (diagonal on match, else the side with the strictly longer LCS,
    preferring the candidate side on ties)."""
    ref = tuple(ref)
    cand = tuple(cand)

    @lru_cache(maxsize=None)
    def length(i, j):
        if i == 0 or j == 0:
            return 0
        if ref[i - 1] == cand[j - 1]:
            return length(i - 1, j - 1) + 1
        return max(length(i - 1, j), length(i, j - 1))

    positions = set()
    i, j = len(ref), len(cand)
    while i > 0 and j > 0:
        if ref[i - 1] == cand[j - 1]:
            positions.add(i - 1)
            i, j = i - 1, j - 1
        elif length(i - 1, j) > length(i, j - 1):
            i -= 1
        else:
            j -= 1
    return positions


def rouge_l_summary_oracle(candidate_sents, reference_sents):
    cand = [list(s) for s in candidate_sents if s]
    ref = [list(s) for s in reference_sents if s]
    m = sum(len(s) for s in ref)
    n = sum(len(s) for s in cand)
    if not m or not n:
        return 0.0, 0.0, 0.0
    budget_c = Counter(t for s in cand for t in s)
    budget_r = Counter(t for s in ref for t in s)
    hits = 0
    for r in ref:
        union = set()
        for c in cand:
            union |= lcs_positions_oracle(r, c)
        for pos in sorted(union):
            tok = r[pos]
            if budget_c[tok] > 0 and budget_r[tok] > 0:
                hits += 1
                budget_c[tok] -= 1
                budget_r[tok] -= 1
    p = hits / n
    rec = hits / m
    f1 = 2 * p * rec / (p + rec) if p + rec else 0.0
    return p, rec, f1


def rouge_avg_f1_oracle(sents_a, sents_b):
    flat_a = [t for s in sents_a for t in s]
    flat_b = [t for s in sents_b for t in s]
    f1_1 = rouge_n_oracle(flat_a, flat_b, 1)[2]
    f1_2 = rouge_n_oracle(flat_a, flat_b, 2)[2]
    f1_l = rouge_l_summary_oracle(sents_a, sents_b)[2]
    return (f1_1 + f1_2 + f1_l) / 3.0


# --- graph construction -------------------------------------------------------

def cosine_oracle(u, v):
    nu = float(np.sqrt(np.sum(np.asarray(u) ** 2)))
    nv = float(np.sqrt(np.sum(np.asarray(v) ** 2)))
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return float(np.sum(np.asarray(u) * np.asarray(v)) / (nu * nv))


def enumerate_graph_oracle(cluster, table, layout_bounds, we_threshold=0.5,
                           ss_threshold=None, noun_fn=None, dd_weight_fn=None):
    """Expected node tuples and per-type edge dicts for a truncated cluster,
    computed by literal enumeration over the retained structure.

    Nodes are (kind, doc, sent, tok, token_position) tuples; edges map a
    canonical ((node_a, node_b)) pair of those tuples to the weight.
    """
    docs = {}
    sents = []
    for di, pos in layout_bounds.doc_slots:
        docs[di] = ("document", di, None, None, pos)
    for slot in layout_bounds.sent_slots:
        sents.append(slot)

    node_of_sent = {}
    node_of_word = {}
    nodes = list(docs.values())
    for slot in sents:
        node = ("sentence", slot.doc, slot.sent, None, slot.sep_pos)
        node_of_sent[(slot.doc, slot.sent)] = node
        nodes.append(node)
    for slot in sents:
        sent = cluster.documents[slot.doc].sentences[slot.sent]
        for k in range(len(sent.tokens)):
            node = ("word", slot.doc, slot.sent, k, slot.tok_start + k)
            node_of_word[(slot.doc, slot.sent, k)] = node
            nodes.append(node)

    def canon(a, b):
        return (a, b) if a <= b else (b, a)

    edges = {t: {} for t in ("WE", "WO", "SS", "DD", "DS", "SW")}
    for slot in sents:
        sent = cluster.documents[slot.doc].sentences[slot.sent]
        words = [node_of_word[(slot.doc, slot.sent, k)] for k in range(len(sent.tokens))]
        for a, b in zip(words, words[1:]):
            edges["WO"][canon(a, b)] = 1.0
        s_node = node_of_sent[(slot.doc, slot.sent)]
        for w in words:
            edges["SW"][canon(s_node, w)] = 1.0
        edges["DS"][canon(docs[slot.doc], s_node)] = 1.0

    nouns = []
    for slot in sents:
        sent = cluster.documents[slot.doc].sentences[slot.sent]
        for k in sorted(noun_fn(sent)):
            nouns.append((node_of_word[(slot.doc, slot.sent, k)],
                          np.asarray(table.get(sent.lower[k]))))
    for i in range(len(nouns)):
        for j in range(i + 1, len(nouns)):
            sim = cosine_oracle(nouns[i][1], nouns[j][1])
            if we_threshold and sim < we_threshold:
                continue
            edges["WE"][canon(nouns[i][0], nouns[j][0])] = sim

    sent_vecs = []
    for slot in sents:
        sent = cluster.documents[slot.doc].sentences[slot.sent]
        vecs = np.stack([np.asarray(table.get(t)) for t in sent.lower])
        sent_vecs.append((node_of_sent[(slot.doc, slot.sent)], vecs.mean(axis=0)))
    for i in range(len(sent_vecs)):
        for j in range(i + 1, len(sent_vecs)):
            sim = cosine_oracle(sent_vecs[i][1], sent_vecs[j][1])
            if ss_threshold is not None and sim < ss_threshold:
                continue
            edges["SS"][canon(sent_vecs[i][0], sent_vecs[j][0])] = sim

    doc_list = sorted(docs)
    retained = {}
    for slot in sents:
        retained.setdefault(slot.doc, []).append(
            cluster.documents[slot.doc].sentences[slot.sent].lower)
    for i in range(len(doc_list)):
        for j in range(i + 1, len(doc_list)):
            w = dd_weight_fn(retained[doc_list[i]], retained[doc_list[j]])
            edges["DD"][canon(docs[doc_list[i]], docs[doc_list[j]])] = w

    return nodes, edges


def graph_to_oracle_form(graph):
    """Convert a HeteroGraph into the oracle's node/edge representation."""
    def node_tuple(nd):
        return (nd.kind, nd.doc, nd.sent, nd.tok, nd.token_position)

    nodes = [node_tuple(nd) for nd in graph.nodes]
    edges = {}
    for etype, lst in graph.edges.items():
        emap = {}
        for a, b, w in lst:
            ta, tb = node_tuple(graph.nodes[a]), node_tuple(graph.nodes[b])
            pair = (ta, tb) if ta <= tb else (tb, ta)
            emap[pair] = w
        edges[etype] = emap
    return nodes, edges


# --- misc numeric oracles -------------------------------------------------------

def adam_two_step_oracle(p0, g1, g2, lr, beta1, beta2, eps):
    """Hand-unrolled two Adam updates on one scalar."""
    m = 0.0
    v = 0.0
    p = p0
    for t, g in ((1, g1), (2, g2)):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def dense_gat_channel_oracle(h, edge_weights, mask, W, w, slope=0.2):
    """Single-head channel attention on a dense graph, straight from the
    formulas with python loops."""
    n = h.shape[0]
    s = h @ W.T
    out = np.zeros_like(s)
    for i in range(n):
        neigh = [j for j in range(n) if mask[i, j]]
        d = []
        for j in neigh:
            raw = edge_weights[i, j] * (w[: W.shape[0]] @ s[i] + w[W.shape[0]:] @ s[j])
            d.append(raw if raw > 0 else slope * raw)
        d = np.asarray(d)
        e = np.exp(d - d.max())
        alpha = e / e.sum()
        agg = np.zeros(W.shape[0])
        for a, j in zip(alpha, neigh):
            agg += a * s[j]
        out[i] = np.where(agg > 0, agg, np.expm1(np.minimum(agg, 0.0)))
    return out


# --- decoding -------------------------------------------------------------------

def decode_greedy(memory, mem_positions, store, cfg, max_len=None):
    """Argmax decoding, one full decoder pass per emitted token: the
    reference beam width 1 must match."""
    max_len = cfg.max_out_len if max_len is None else max_len
    prefix = [Vocab.BOS]
    out = []
    for _ in range(max_len):
        with nm.no_grad():
            row = _decoder_forward(memory, mem_positions, prefix, store, cfg).data[-1]
        shifted = row - row.max()
        tok = int(np.argmax(shifted - np.log(np.exp(shifted).sum())))
        if tok == Vocab.EOS:
            break
        out.append(tok)
        prefix.append(tok)
    return out


def summarize_greedy(bundle, params, model_cfg, vocab):
    """Greedy summary tokens of one cluster, reserved ids dropped."""
    with nm.no_grad():
        q_p, positions, _, _ = encode_compress(bundle, params, model_cfg)
    ids = decode_greedy(q_p, positions, params, model_cfg.text)
    return [vocab.decode(i) for i in ids if i >= len(RESERVED)]
