"""Typed document graph: word/sentence/document nodes and six weighted
undirected edge types, plus validation and export.

Edge types and weights:

* WE  - noun-word pairs whose static-vector cosine clears the threshold;
        weight = cosine.
* WO  - adjacent token occurrences within a sentence; weight 1.0.
* SS  - every sentence pair (optionally thresholded); weight = cosine of
        sentence embeddings.
* DD  - every document pair; weight = mean ROUGE-1/2/L F1.
* DS  - document to each of its sentences; weight 1.0.
* SW  - sentence to each of its token occurrences; weight 1.0.

Word nodes are per token occurrence (not per type) so that every node keeps
its original position in the serialized encoder input. Nodes are numbered
documents, then sentences, then words, so each sentence's words are
consecutive. Each edge type is stored once, as an ``Edges`` of parallel
arrays (endpoints ``a``, ``b``, weight ``w``) in build order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import add

import numpy as np

from . import rouge
from .corpus import BoundaryIndex, DocumentCluster, Sentence, layout
from .embeddings import EmbeddingTable, MeanWordEmbedder, pairwise_cosine
from .embeddings import cosine  # noqa: F401  (hetgraph.cosine is wrapped by perfbench)
from .errors import ConfigError, DataError

DOC, SENT, WORD = "document", "sentence", "word"
EDGE_TYPES = ("WE", "WO", "SS", "DD", "DS", "SW")
_KIND_RANK = {DOC: 0, SENT: 1, WORD: 2}

# Closed-class / high-frequency non-noun forms for the noun heuristic of
# sentences without POS tags: determiners, pronouns, prepositions,
# conjunctions, auxiliaries, common adverbs and verbs. Alphabetic tokens
# outside this list count as noun candidates.
STOPWORDS = frozenset("""
a an the this that these those some any each every either neither no another
such what which whose
i me my mine myself we us our ours ourselves you your yours yourself
yourselves he him his himself she her hers herself it its itself they them
their theirs themselves who whom one ones something anything nothing
everything someone anyone everyone nobody somebody anybody everybody
about above across after against along among around at before behind below
beneath beside besides between beyond but by despite down during except for
from in inside into like near of off on onto out outside over past per since
through throughout till to toward towards under underneath until up upon
with within without
and or nor so yet although because if unless while whereas whether though
once than as
be am is are was were been being
have has had having
do does did doing done
will would shall should can could may might must ought
not never always often sometimes usually rarely seldom here there now then
today yesterday tomorrow soon already still just only even also too very
quite rather almost nearly really perhaps maybe again ever instead
meanwhile moreover however therefore thus hence anyway indeed
more most less least much many few little enough both all several own same
other others first second third next last
go goes went gone going come comes came coming get gets got getting
make makes made making take takes took taken give gives gave given
find finds found think thinks thought say says said saying
see sees saw seen know knows knew known want wants wanted
use uses used using tell tells told ask asks asked
work works worked seem seems seemed feel feels felt
try tries tried leave leaves left call calls called
keep keeps kept let lets begin began begun put puts
show shows showed shown run runs ran move moves moved
believe believed bring brings brought happen happens happened
write wrote written sit sat stand stood lose lost pay paid meet met
continue continued set sets learn learned change changed lead led
watch watched follow followed stop stops stopped speak spoke spoken
read spend spent grow grew grown open opened walk walked win won
wait waited die died send sent build built stay stayed fall fell fallen
cut cuts reach reached kill kills killed killing remain remained
pass passed sell sold report reported decide decided pull pulled
flee flees fled fleeing return returned hope hoped carry carried
break broke broken receive received agree agreed hit hits
""".split())


@dataclass(frozen=True)
class NodeId:
    kind: str
    index: int                 # ordinal within kind
    doc: int
    sent: int | None = None
    tok: int | None = None
    token_position: int = -1

    def sort_key(self) -> tuple:
        return (_KIND_RANK[self.kind], self.doc,
                -1 if self.sent is None else self.sent,
                -1 if self.tok is None else self.tok)


@dataclass
class GraphConfig:
    we_threshold: float = 0.5   # 0 disables thresholding (all noun pairs kept)
    ss_threshold: float | None = None
    max_input_len: int = 4096

    def __post_init__(self):
        for name in ("we_threshold", "ss_threshold"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")


NOUN_TAGS = frozenset({"NOUN", "PROPN"})


def noun_candidates(sentence: Sentence) -> set[int]:
    """Token positions that are nouns: NOUN/PROPN tags when the sentence
    carries POS annotations, otherwise alphabetic tokens outside the
    closed-class list."""
    if sentence.pos is None:
        return {i for i, tok in enumerate(sentence.lower)
                if tok.isalpha() and tok not in STOPWORDS}
    if len(sentence.pos) != len(sentence.tokens):
        raise DataError(f"POS annotations: {len(sentence.pos)} tags for "
                        f"{len(sentence.tokens)} tokens")
    return {i for i, tag in enumerate(sentence.pos) if tag in NOUN_TAGS}


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True, eq=False)
class Edges:
    """One edge type: endpoints ``a``, ``b`` (intp) and weight ``w``
    (float64), parallel arrays in build order; iterating yields (a, b, w)."""
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray

    @classmethod
    def from_triples(cls, triples) -> "Edges":
        a, b, w = np.array(list(triples), dtype=object).reshape(-1, 3).T
        return cls(a.astype(np.intp), b.astype(np.intp), w.astype(np.float64))

    def __len__(self) -> int:
        return len(self.a)

    def __iter__(self):  # rows as Python scalars, each column converted once
        return zip(self.a.tolist(), self.b.tolist(), self.w.tolist())

    def join(self, head, mid, tail, sep: str) -> str:
        """``head(a) + mid(b) + tail(w)`` of each edge, joined by ``sep``. Each
        function maps a list of a column's distinct values (by bits: -0.0 is
        not 0.0) to their strings, so each distinct value is formatted once."""
        pieces = []
        for x, fmt in ((self.a, head), (self.b, mid), (self.w, tail)):
            distinct, inverse = np.unique(x.view(f"i{x.itemsize}"), return_inverse=True)
            pieces.append(map(fmt(distinct.view(x.dtype).tolist()).__getitem__, inverse.tolist()))
        a, b, w = pieces
        return sep.join(map(add, map(add, a, b), w))


class HeteroGraph:
    """Immutable typed graph: nodes in canonical order (documents, sentences,
    words, each by origin); ``edges[t]`` is type t's ``Edges`` (a < b, build
    order; given (a, b, w) triples become one). ``to_json`` and ``to_dot``
    format each distinct endpoint and weight of a type once."""

    def __init__(self, nodes: list[NodeId], edges: dict):
        self.nodes = nodes
        self.edges = {t: e if isinstance(e, Edges) else Edges.from_triples(e)
                      for t, e in ((t, edges.get(t, ())) for t in EDGE_TYPES)}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def kind_indices(self, kind: str) -> np.ndarray:
        return np.asarray([i for i, nd in enumerate(self.nodes) if nd.kind == kind],
                          dtype=np.intp)

    def token_positions(self) -> np.ndarray:
        return np.asarray([nd.token_position for nd in self.nodes], dtype=np.intp)

    def canonical_order(self) -> np.ndarray | None:
        """Node indices stably sorted by ``NodeId.sort_key``, or None when
        the nodes are already in that order."""
        keys = [nd.sort_key() for nd in self.nodes]
        order = np.asarray(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)
        return None if np.array_equal(order, np.arange(len(keys))) else order

    def adjacency(self, edge_type: str, idx: int) -> list[tuple[int, float]]:
        """(neighbour, weight) of node ``idx`` along one edge type, ascending."""
        e = self.edges[edge_type]
        at_a, at_b = e.a == idx, e.b == idx
        return sorted(zip(np.concatenate([e.b[at_a], e.a[at_b]]).tolist(),
                          np.concatenate([e.w[at_a], e.w[at_b]]).tolist()))

    # export -----------------------------------------------------------
    def to_json(self) -> str:
        def tails(u):  # as json.dumps writes each weight (NaN, Infinity), closing its row
            return [s + "]" for s in json.dumps(u)[1:-1].split(", ")]
        rows = (e.join(lambda v: [f"[{i}, " for i in v], lambda v: [f"{i}, " for i in v],
                       tails, ", ") for e in self.edges.values())
        edges = ", ".join(f'"{t}": [{r}]' for t, r in zip(self.edges, rows))
        nodes = json.dumps([{"kind": nd.kind, "index": nd.index, "doc": nd.doc,
                             "sent": nd.sent, "tok": nd.tok,
                             "token_position": nd.token_position} for nd in self.nodes])
        return f'{{"nodes": {nodes}, "edges": {{{edges}}}}}'

    def to_dot(self, name: str = "cluster") -> str:
        letter = {DOC: "d", SENT: "s", WORD: "w"}
        names, n = [letter[nd.kind] + str(nd.index) for nd in self.nodes], self.n_nodes
        quoted = name.replace("\\", "\\\\").replace('"', '\\"')
        lines = [f'graph "{quoted}" {{']
        for nd, nd_name in zip(self.nodes, names):
            lines.append(f'  {nd_name} [kind="{nd.kind}" pos="{nd.token_position}"];')
        for etype, e in self.edges.items():
            outside = np.flatnonzero((np.minimum(e.a, e.b) < 0) | (np.maximum(e.a, e.b) >= n))
            if outside.size:
                a, b = int(e.a[outside[0]]), int(e.b[outside[0]])
                raise DataError(f"to_dot: {etype} edge ({a},{b}) has an endpoint outside [0, {n})")
            if len(e):  # an empty type writes no line, not a blank one
                lines.append(e.join(lambda v: [f"  {names[i]} -- " for i in v],
                                    lambda v: [f'{names[i]} [type="{etype}" weight="' for i in v],
                                    lambda u: [f'{x:.6f}"];' for x in u], "\n"))
        lines.append("}")
        return "\n".join(lines)


def build_hetero_graph(cluster: DocumentCluster, table: EmbeddingTable,
                       embedder=None, cfg: GraphConfig | None = None,
                       bounds: BoundaryIndex | None = None) -> HeteroGraph:
    """Construct the typed graph for a (possibly truncated) cluster. When
    ``bounds`` is given it must come from the same cluster and max length;
    otherwise the layout is recomputed from cfg.max_input_len."""
    cfg = cfg or GraphConfig()
    if embedder is None:
        embedder = MeanWordEmbedder(table)
    if not cluster.documents:
        raise DataError(f"cluster {cluster.id!r} has no documents")
    if bounds is None:
        bounds = layout(cluster, cfg.max_input_len)
    if not bounds.sent_slots:
        raise DataError(f"cluster {cluster.id!r}: no sentences within the length budget")

    slots = bounds.sent_slots
    sents = [cluster.documents[slot.doc].sentences[slot.sent] for slot in slots]
    doc_node = {di: i for i, (di, _) in enumerate(bounds.doc_slots)}
    nodes = [NodeId(kind=DOC, index=i, doc=di, token_position=pos)
             for i, (di, pos) in enumerate(bounds.doc_slots)]
    nodes += [NodeId(kind=SENT, index=i, doc=slot.doc, sent=slot.sent,
                     token_position=slot.sep_pos) for i, slot in enumerate(slots)]
    occurrences = [(slot, k) for slot, sent in zip(slots, sents) for k in range(len(sent))]
    nodes += [NodeId(kind=WORD, index=i, doc=slot.doc, sent=slot.sent, tok=k,
                     token_position=slot.tok_start + k)
              for i, (slot, k) in enumerate(occurrences)]

    n_docs, n_sents = len(bounds.doc_slots), len(slots)
    sizes = np.array([len(sent) for sent in sents], dtype=np.intp)
    sent_ids = np.arange(n_docs, n_docs + n_sents)
    word_ids = np.arange(n_docs + n_sents, len(nodes))
    first_word = n_docs + n_sents + np.cumsum(sizes) - sizes  # of each sentence
    edges: dict[str, Edges] = {}

    # WO / SW / DS: structural edges, weight 1.0, sentence by sentence
    wo = word_ids[word_ids < np.repeat(first_word + sizes - 1, sizes)]  # all but the last
    edges["WO"] = Edges(wo, wo + 1, np.ones(len(wo)))
    edges["SW"] = Edges(np.repeat(sent_ids, sizes), word_ids, np.ones(len(word_ids)))
    ds = np.array([doc_node[slot.doc] for slot in slots], dtype=np.intp)
    edges["DS"] = Edges(ds, sent_ids, np.ones(n_sents))

    # WE: noun occurrences across the whole cluster
    nouns = [(start + k, sent.lower[k])
             for start, sent in zip(first_word.tolist(), sents) for k in noun_candidates(sent)]
    edges["WE"] = _cosine_edges([i for i, _ in nouns], [table.get(t) for _, t in nouns],
                                cfg.we_threshold or None)

    # SS: every sentence pair, cosine of sentence embeddings
    keys = [(cluster.id, slot.doc, slot.sent) for slot in slots]
    sent_vecs = [embedder.embed(sent, key=key) for sent, key in zip(sents, keys)]
    edges["SS"] = _cosine_edges(sent_ids, sent_vecs, cfg.ss_threshold)

    # DD: every document pair, mean ROUGE F1 over retained sentences, scored
    # in one batch; the lower-index document is the candidate, so a weight
    # depends on document order
    retained = bounds.retained_sentences()
    texts = [[cluster.documents[di].sentences[si].lower for si in retained[di]]
             for di, _ in bounds.doc_slots]  # in document order, as the nodes are
    i, j = np.triu_indices(n_docs, 1)  # row-major
    weights = rouge.rouge_avg_f1_batch(texts, list(zip(i.tolist(), j.tolist())))
    edges["DD"] = Edges(i, j, np.array(weights, dtype=np.float64))

    return HeteroGraph(nodes, edges)


def _cosine_edges(node_ids, vecs: list[np.ndarray], threshold: float | None) -> Edges:
    """(a, b, cosine) with a < b for every pair of nodes, in pair order."""
    if len(vecs) < 2:
        return Edges.from_triples(())
    i, j, sim = pairwise_cosine(np.stack(vecs), threshold)
    ids = np.asarray(node_ids, dtype=np.intp)
    return Edges(np.minimum(ids[i], ids[j]), np.maximum(ids[i], ids[j]), sim)


# allowed weights per edge type: (low, high, how a violation reads)
_WEIGHT_RANGE = {**dict.fromkeys(("WO", "DS", "SW"), (1.0, 1.0, "!= 1.0")),
                 **dict.fromkeys(("SS", "WE"), (-1.0, 1.0 + 1e-12, "outside [-1,1]")),
                 "DD": (0.0, 1.0, "outside [0,1]")}


def validate_graph(g: HeteroGraph) -> ValidationReport:
    """Check every structural invariant; the report lists violations."""
    report = ValidationReport()
    add = report.violations.append
    n = g.n_nodes
    rows = {}  # (src, dst): both directions of each type's in-range edges

    for etype in EDGE_TYPES:
        e = g.edges[etype]
        lo, hi = np.minimum(e.a, e.b), np.maximum(e.a, e.b)
        self_edge = e.a == e.b
        outside = (lo < 0) | (hi >= n)
        a, b = e.a[~outside], e.b[~outside]
        rows[etype] = np.concatenate([a, b]), np.concatenate([b, a])
        low, high, violation = _WEIGHT_RANGE[etype]
        bad_weight = ~((low <= e.w) & (e.w <= high)) & ~outside  # NaN is bad too
        for k in np.flatnonzero(self_edge | outside | bad_weight).tolist():
            a, b, w = int(e.a[k]), int(e.b[k]), float(e.w[k])
            if self_edge[k]:
                add(f"{etype}: self-edge at node {a}")
            if outside[k]:
                add(f"{etype}: edge ({a},{b}) out of range")
            elif bad_weight[k]:
                add(f"{etype}: weight {w} {violation} on ({a},{b})")
        repeated = np.ones(len(e), dtype=bool)
        repeated[np.unique(np.stack([lo, hi], axis=1), axis=0, return_index=True)[1]] = False
        for k in np.flatnonzero(repeated).tolist():
            add(f"{etype}: duplicate edge {(int(lo[k]), int(hi[k]))}")

    for kind, etype in ((SENT, "DS"), (WORD, "SW")):
        idx = g.kind_indices(kind)
        degree = np.bincount(rows[etype][0], minlength=n)[idx]
        for i in idx[degree != 1]:
            add(f"{kind} node {i}: expected exactly one {etype} edge")
    n_docs = len(g.kind_indices(DOC))
    expected_dd = n_docs * (n_docs - 1) // 2
    if len(g.edges["DD"]) != expected_dd:
        add(f"DD: {len(g.edges['DD'])} edges, complete graph needs {expected_dd}")

    if n:
        src, dst = (np.concatenate(col) for col in zip(*rows.values()))
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
        frontier = reached.copy()
        while frontier.any():  # breadth-first, one level per pass
            frontier = np.bincount(dst[frontier[src]], minlength=n).astype(bool) & ~reached
            reached |= frontier
        if not reached.all():
            add(f"graph not connected: reached {int(reached.sum())} of {n} nodes")
    return report
