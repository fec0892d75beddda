"""Independent brute-force oracles the test suite checks the library against.

Everything here is deliberately written from the definitions (nested loops,
recursion, direct formulas) rather than reusing library code paths, so a bug
would have to appear twice, in two different shapes, to slip through.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache

import numpy as np

import dgsum.numeric as nm
from dgsum.corpus import RESERVED, Vocab
from dgsum.errors import DataError, ShapeError
from dgsum.hetgraph import EDGE_TYPES
from dgsum.numeric.tensor import _accum, _make, _unbroadcast
from dgsum.text_model import decode_teacher_forced
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
                          np.asarray(table.get(sent.tokens[k]))))
    for i in range(len(nouns)):
        for j in range(i + 1, len(nouns)):
            sim = cosine_oracle(nouns[i][1], nouns[j][1])
            if we_threshold and sim < we_threshold:
                continue
            edges["WE"][canon(nouns[i][0], nouns[j][0])] = sim

    sent_vecs = []
    for slot in sents:
        sent = cluster.documents[slot.doc].sentences[slot.sent]
        vecs = np.stack([np.asarray(table.get(t)) for t in sent.tokens])
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
            cluster.documents[slot.doc].sentences[slot.sent].tokens)
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


def to_json_oracle(graph):
    """``HeteroGraph.to_json`` as one ``json.dumps`` of per-edge row lists."""
    return json.dumps({
        "nodes": [{"kind": nd.kind, "index": nd.index, "doc": nd.doc,
                   "sent": nd.sent, "tok": nd.tok,
                   "token_position": nd.token_position} for nd in graph.nodes],
        "edges": {t: [list(row) for row in graph.edges[t]] for t in EDGE_TYPES},
    })


def to_dot_oracle(graph, name="cluster"):
    """``HeteroGraph.to_dot`` formatting every edge's line and weight alone;
    the name is quoted with ``\\`` and ``"`` escaped."""
    letter = {"document": "d", "sentence": "s", "word": "w"}
    names = [letter[nd.kind] + str(nd.index) for nd in graph.nodes]
    quoted = "".join("\\" + c if c in '\\"' else c for c in name)
    lines = [f'graph "{quoted}" {{']
    for nd, nd_name in zip(graph.nodes, names):
        lines.append(f'  {nd_name} [kind="{nd.kind}" pos="{nd.token_position}"];')
    for etype in EDGE_TYPES:
        lines.extend(f'  {names[a]} -- {names[b]} [type="{etype}" weight="{w:.6f}"];'
                     for a, b, w in graph.edges[etype])
    lines.append("}")
    return "\n".join(lines)


def dense_channel_oracle(graph, edge_type):
    """(weights, mask) of one edge type, one edge at a time, unit diagonal."""
    n = graph.n_nodes
    w = np.zeros((n, n))
    m = np.zeros((n, n), dtype=bool)
    for a, b, weight in graph.edges[edge_type]:
        w[a, b] = weight
        w[b, a] = weight
        m[a, b] = True
        m[b, a] = True
    np.fill_diagonal(w, 1.0)
    np.fill_diagonal(m, True)
    return w, m


def union_channel_oracle(graph):
    """(weights, mask) of all edge types together, the max weight kept on a
    pair that appears under several types, unit diagonal."""
    n = graph.n_nodes
    w = np.full((n, n), -np.inf)
    m = np.zeros((n, n), dtype=bool)
    for lst in graph.edges.values():
        for a, b, weight in lst:
            if weight > w[a, b]:
                w[a, b] = weight
                w[b, a] = weight
            m[a, b] = True
            m[b, a] = True
    w[~m] = 0.0
    np.fill_diagonal(w, 1.0)
    np.fill_diagonal(m, True)
    return w, m


# --- misc numeric oracles -------------------------------------------------------

def extend_selection_oracle(selected_sentences, graph):
    """The selected sentences plus every node one SW or DS edge away from
    them, as a set walk over the adjacency lists, ascending."""
    chosen = set(int(i) for i in selected_sentences)
    if not chosen:
        raise DataError("extend_selection: empty sentence selection")
    if not chosen <= set(graph.kind_indices("sentence").tolist()):
        raise DataError("extend_selection: selection contains non-sentence nodes")
    keep = set(chosen)
    for s in chosen:
        for w, _ in graph.adjacency("SW", s):
            keep.add(w)
        for d, _ in graph.adjacency("DS", s):
            keep.add(d)
    return np.asarray(sorted(keep), dtype=np.intp)


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


def adam_step_oracle(data, grads, m, v, t, lr, beta1, beta2, eps):
    """Update ``t`` (counting from 1) of Adam, formula by formula with a fresh
    array for each temporary, on dicts of arrays name -> parameter, its
    gradient and its two moments; all but ``grads`` change in place."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in data.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        mhat = m[name] / bc1
        vhat = v[name] / bc2
        p -= lr * mhat / (np.sqrt(vhat) + eps)


# --- attention ----------------------------------------------------------------

def encoder_mask(n, window, global_positions):
    """The encoder's attention pattern as a dense additive mask: 0 where
    attention is allowed (|i-j| <= window, or either side is a delimiter),
    MASK_FILL elsewhere."""
    idx = np.arange(n)
    allowed = np.abs(idx[:, None] - idx[None, :]) <= window
    g = np.zeros(n, dtype=bool)
    g[np.asarray(list(global_positions), dtype=np.intp)] = True
    allowed |= g[:, None]
    allowed |= g[None, :]
    return np.where(allowed, 0.0, nm.MASK_FILL)


def band_attention_oracle(q, k, v, n_heads, window, glob):
    """``nm.band_attention`` of rows [n, d] through the dense n x n mask, on
    the tape."""
    return nm.attention(q, k, v, n_heads, encoder_mask(q.shape[0], window, glob))


def attention_coefficient(h_i, h_j, e_ij, W, w, slope=0.2):
    """d_ij = leaky_relu(e_ij * w^T [W h_i || W h_j]) for one node pair, on
    the tape, so its gradients can be checked too."""
    hi = nm.reshape(h_i, (-1, 1))
    hj = nm.reshape(h_j, (-1, 1))
    si = nm.matmul(W, hi)
    sj = nm.matmul(W, hj)
    stacked = nm.reshape(nm.concat([si, sj], axis=0), (-1,))
    raw = nm.sum_(nm.mul(w, stacked))
    return nm.leaky_relu(nm.mul(raw, float(e_ij)), slope)


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


def sub(a, b):
    """a - b on the tape, broadcasting."""
    a, b = nm.as_tensor(a), nm.as_tensor(b)
    data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _make(data, (a, b), backward)


def exp(a):
    """Elementwise exp on the tape."""
    a = nm.as_tensor(a)
    data = np.exp(a.data)

    def backward(g):
        _accum(a, g * data)

    return _make(data, (a,), backward)


def log(a):
    """Elementwise natural log on the tape."""
    a = nm.as_tensor(a)
    data = np.log(a.data)

    def backward(g):
        _accum(a, g / a.data)

    return _make(data, (a,), backward)


def gather_rows_dense_oracle(a, indices):
    """``nm.gather_rows`` whose backward scatters into a zero table the size
    of ``a`` and accumulates all of it, whether or not ``a`` already has a
    gradient."""
    a = nm.as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accum(a, full)

    return _make(data, (a,), backward)


def segment_sum(a, indptr):
    """Sum the rows of ``a`` within each CSR segment, on the tape: row i of
    the output is a[indptr[i]:indptr[i+1]].sum(axis=0). Every segment must be
    non-empty."""
    a = nm.as_tensor(a)
    indptr = np.asarray(indptr, dtype=np.intp)
    counts = np.diff(indptr)
    if (a.ndim == 0 or indptr.ndim != 1 or indptr.size == 0 or indptr[0] != 0
            or indptr[-1] != a.shape[0] or np.any(counts <= 0)):
        raise ShapeError(f"segment_sum: offsets must rise strictly from 0 to rows of {a.shape}")
    data = np.add.reduceat(a.data, indptr[:-1], axis=0)

    def backward(g):
        _accum(a, np.repeat(g, counts, axis=0))

    return _make(data, (a,), backward)


def head_arrays(W, a):
    """Head m's (W_m [d_head, d_in], a_m [2*d_head]), the per-head layout of
    the formulas, out of a channel's arrays W [d_in, H*d_head] and a [H, 2*d_head]."""
    dh = a.shape[1] // 2
    return [(W[:, m * dh:(m + 1) * dh].T, a[m]) for m in range(len(a))]


def _tape_heads(W, a):
    """Head m's (W_m [d_in, d_head], a_m [2*d_head]) as tape slices of a
    channel's W and a, so their gradients reach W and a."""
    dh = a.shape[1] // 2
    return [(nm.slice_axis(W, 1, m * dh, (m + 1) * dh),
             nm.reshape(nm.slice_axis(a, 0, m, m + 1), (2 * dh,))) for m in range(a.shape[0])]


def channel_attention_oracle(node_embs, ix, W, a):
    """Edge-list channel attention one head at a time from tape primitives:
    per head, gathers of a_src[src], a_dst[dst] and s[dst], a softmax within
    each src segment, and a segment sum; heads concatenated. The fused
    ``nm.edge_attention`` must match it."""
    ew = ix.weight[:, None]
    heads = []
    for W_m, a_m in _tape_heads(W, a):
        s = nm.matmul(node_embs, W_m)                        # [n, d_head]
        d_head = s.shape[1]
        a_src = nm.matmul(s, nm.reshape(nm.slice_axis(a_m, 0, 0, d_head), (d_head, 1)))
        a_dst = nm.matmul(s, nm.reshape(nm.slice_axis(a_m, 0, d_head, 2 * d_head), (d_head, 1)))
        raw = nm.add(nm.gather_rows(a_src, ix.src), nm.gather_rows(a_dst, ix.dst))  # [E, 1]
        d = nm.leaky_relu(nm.mul(raw, ew))
        shift = np.maximum.reduceat(d.data, ix.indptr[:-1], axis=0)[ix.src]  # constant
        e = exp(sub(d, shift))
        alpha = nm.div(e, nm.gather_rows(segment_sum(e, ix.indptr), ix.src))
        agg = segment_sum(nm.mul(alpha, nm.gather_rows(s, ix.dst)), ix.indptr)
        heads.append(nm.elu(agg))
    return heads[0] if len(heads) == 1 else nm.concat(heads, axis=1)


def dense_channel_attention_oracle(h, edge_weights, mask, W, a, slope=0.2):
    """Channel attention on the tape over dense n x n matrices: a masked
    softmax over each full row, heads concatenated; its gradients are the
    reference for the edge-list channel's."""
    heads = []
    for W_m, a_m in _tape_heads(W, a):
        s = nm.matmul(h, W_m)
        d_head = s.shape[1]
        a_src = nm.matmul(s, nm.reshape(nm.slice_axis(a_m, 0, 0, d_head), (d_head, 1)))
        a_dst = nm.matmul(s, nm.reshape(nm.slice_axis(a_m, 0, d_head, 2 * d_head), (d_head, 1)))
        raw = nm.add(a_src, nm.transpose(a_dst))
        d = nm.leaky_relu(nm.mul(raw, edge_weights), slope)
        alpha = nm.softmax(nm.masked_fill(d, ~mask, nm.MASK_FILL))
        heads.append(nm.elu(nm.matmul(alpha, s)))
    return nm.concat(heads, axis=1)


# --- decoding -------------------------------------------------------------------

def decode_greedy(memory, mem_positions, store, cfg, max_len=None):
    """Argmax decoding, one full decoder pass per emitted token: the
    reference beam width 1 must match."""
    max_len = cfg.max_out_len if max_len is None else max_len
    prefix = [Vocab.BOS]
    out = []
    for _ in range(max_len):
        with nm.no_grad():
            row = decode_teacher_forced(memory, mem_positions, prefix, store, cfg).data[-1]
        shifted = row - row.max()
        tok = int(np.argmax(shifted - np.log(np.exp(shifted).sum())))
        if tok == Vocab.EOS:
            break
        out.append(tok)
        prefix.append(tok)
    return out


def decode_beam_oracle(memory, mem_positions, store, cfg, beam_width, max_len=None):
    """Beam search as the definition states it: every hypothesis rescored by a
    full-prefix decoder pass, every (hypothesis, token) candidate ranked by
    (-running score, token, hypothesis), the first beam_width kept."""
    max_len = cfg.max_out_len if max_len is None else max_len

    def norm(score, length):
        return score / length if cfg.length_norm and length else score

    live = [(0.0, [Vocab.BOS])]
    finished = []
    for _ in range(max_len):
        candidates = []
        for hyp_idx, (score, prefix) in enumerate(live):
            with nm.no_grad():
                row = decode_teacher_forced(memory, mem_positions, prefix, store, cfg).data[-1]
            shifted = row - row.max()
            logp = shifted - np.log(np.exp(shifted).sum())
            for tok in range(len(logp)):
                candidates.append((score + float(logp[tok]), tok, hyp_idx, prefix))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        live = []
        for score, tok, _, prefix in candidates[:beam_width]:
            seq = prefix + [tok]
            if tok == Vocab.EOS:
                finished.append((norm(score, len(seq) - 1), seq))
            else:
                live.append((score, seq))
        if not live:
            break
    for score, seq in live:
        finished.append((norm(score, len(seq) - 1), seq))
    best = max(finished, key=lambda f: (f[0], -len(f[1])))[1][1:]
    return best[:-1] if best and best[-1] == Vocab.EOS else best


def summarize_greedy(bundle, params, model_cfg, vocab):
    """Greedy summary tokens of one cluster, reserved ids dropped."""
    with nm.no_grad():
        q_p, positions, _, _ = encode_compress(bundle, params, model_cfg)
    ids = decode_greedy(q_p, positions, params, model_cfg.text)
    return [vocab.decode(i) for i in ids if i >= len(RESERVED)]
