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
its original position in the serialized encoder input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import rouge
from .corpus import BoundaryIndex, DocumentCluster, Sentence, layout
from .embeddings import EmbeddingTable, MeanWordEmbedder, pairwise_cosine
from .embeddings import cosine  # noqa: F401  (hetgraph.cosine is wrapped by perfbench)
from .errors import DataError

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

    def origin(self) -> tuple:
        return (self.doc, self.sent, self.tok)

    def sort_key(self) -> tuple:
        return (_KIND_RANK[self.kind], self.doc,
                -1 if self.sent is None else self.sent,
                -1 if self.tok is None else self.tok)


@dataclass
class GraphConfig:
    we_threshold: float = 0.5   # 0 disables thresholding (all noun pairs kept)
    ss_threshold: float | None = None
    max_input_len: int = 4096


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


@dataclass(frozen=True)
class EdgeIndex:
    """Both directions of one type's in-range edges in CSR form, sorted by
    (src, dst, weight): node i's neighbours are dst[indptr[i]:indptr[i+1]]."""
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    indptr: np.ndarray

    @classmethod
    def from_edges(cls, edges: list[tuple[int, int, float]], n: int) -> "EdgeIndex":
        a = np.array([e[0] for e in edges], dtype=np.intp)
        b = np.array([e[1] for e in edges], dtype=np.intp)
        w = np.array([e[2] for e in edges], dtype=np.float64)
        ok = (np.minimum(a, b) >= 0) & (np.maximum(a, b) < n)  # validation reports the rest
        src = np.concatenate([a[ok], b[ok]])
        dst = np.concatenate([b[ok], a[ok]])
        w = np.concatenate([w[ok], w[ok]])
        order = np.lexsort((w, dst, src))
        src, dst, w = src[order], dst[order], w[order]
        return cls(src, dst, w, np.searchsorted(src, np.arange(n + 1)))


class HeteroGraph:
    """Immutable typed graph. Nodes are held in canonical order (documents,
    then sentences, then words, each by origin); edges are per-type lists of
    (a, b, weight) with a < b over node-list indices, and ``index`` holds
    each type's EdgeIndex."""

    def __init__(self, nodes: list[NodeId], edges: dict[str, list[tuple[int, int, float]]]):
        self.nodes = nodes
        self.edges = {t: list(edges.get(t, ())) for t in EDGE_TYPES}
        self.index = {t: EdgeIndex.from_edges(self.edges[t], len(nodes)) for t in EDGE_TYPES}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def kind_indices(self, kind: str) -> np.ndarray:
        return np.asarray([i for i, nd in enumerate(self.nodes) if nd.kind == kind],
                          dtype=np.intp)

    def token_positions(self) -> np.ndarray:
        return np.asarray([nd.token_position for nd in self.nodes], dtype=np.intp)

    def neighbors(self, node: NodeId | int, edge_type: str) -> list[tuple[NodeId, float]]:
        """Neighbors of a node along one edge type, ascending node order."""
        if edge_type not in EDGE_TYPES:
            raise DataError(f"unknown edge type {edge_type!r}")
        if isinstance(node, NodeId):
            if node not in self.nodes:
                raise DataError(f"node {node} not in graph")
            idx = self.nodes.index(node)
        else:
            if not 0 <= node < self.n_nodes:
                raise DataError(f"node index {node} out of range")
            idx = node
        return [(self.nodes[j], w) for j, w in self.adjacency(edge_type, idx)]

    def adjacency(self, edge_type: str, idx: int) -> list[tuple[int, float]]:
        ix = self.index[edge_type]
        span = slice(ix.indptr[idx], ix.indptr[idx + 1])
        return list(zip(ix.dst[span].tolist(), ix.weight[span].tolist()))

    # export -----------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({
            "nodes": [{"kind": nd.kind, "index": nd.index, "doc": nd.doc,
                       "sent": nd.sent, "tok": nd.tok,
                       "token_position": nd.token_position} for nd in self.nodes],
            "edges": {t: [[a, b, w] for a, b, w in self.edges[t]] for t in EDGE_TYPES},
        })

    def to_dot(self, name: str = "cluster") -> str:
        letter = {DOC: "d", SENT: "s", WORD: "w"}
        names = [letter[nd.kind] + str(nd.index) for nd in self.nodes]
        lines = [f'graph "{name}" {{']
        for nd, nd_name in zip(self.nodes, names):
            lines.append(f'  {nd_name} [kind="{nd.kind}" pos="{nd.token_position}"];')
        for etype in EDGE_TYPES:
            for a, b, w in self.edges[etype]:
                lines.append(f'  {names[a]} -- {names[b]} [type="{etype}" weight="{w:.6f}"];')
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

    nodes: list[NodeId] = []
    doc_node: dict[int, int] = {}
    for i, (di, pos) in enumerate(bounds.doc_slots):
        doc_node[di] = len(nodes)
        nodes.append(NodeId(kind=DOC, index=i, doc=di, token_position=pos))
    sent_node: dict[tuple[int, int], int] = {}
    for i, slot in enumerate(bounds.sent_slots):
        sent_node[(slot.doc, slot.sent)] = len(nodes)
        nodes.append(NodeId(kind=SENT, index=i, doc=slot.doc, sent=slot.sent,
                            token_position=slot.sep_pos))
    word_nodes_per_sent: dict[tuple[int, int], list[int]] = {}
    wi = 0
    for slot in bounds.sent_slots:
        sent = cluster.documents[slot.doc].sentences[slot.sent]
        lst = []
        for k in range(len(sent)):
            lst.append(len(nodes))
            nodes.append(NodeId(kind=WORD, index=wi, doc=slot.doc, sent=slot.sent,
                                tok=k, token_position=slot.tok_start + k))
            wi += 1
        word_nodes_per_sent[(slot.doc, slot.sent)] = lst

    edges: dict[str, list[tuple[int, int, float]]] = {t: [] for t in EDGE_TYPES}

    # WO / SW / DS: structural edges, weight 1.0
    for slot in bounds.sent_slots:
        words = word_nodes_per_sent[(slot.doc, slot.sent)]
        s_idx = sent_node[(slot.doc, slot.sent)]
        for a, b in zip(words, words[1:]):
            edges["WO"].append((a, b, 1.0))
        for w_idx in words:
            edges["SW"].append((s_idx, w_idx, 1.0))
        edges["DS"].append((doc_node[slot.doc], s_idx, 1.0))

    # WE: noun occurrences across the whole cluster
    noun_nodes: list[int] = []
    noun_vecs: list[np.ndarray] = []
    for slot in bounds.sent_slots:
        sent = cluster.documents[slot.doc].sentences[slot.sent]
        words = word_nodes_per_sent[(slot.doc, slot.sent)]
        for k in noun_candidates(sent):
            noun_nodes.append(words[k])
            noun_vecs.append(table.get(sent.lower[k]))
    edges["WE"] = _cosine_edges(noun_nodes, noun_vecs, cfg.we_threshold or None)

    # SS: every sentence pair, cosine of sentence embeddings
    sent_vecs = []
    is_summary_graph = cluster.id.endswith(":summary")
    for slot in bounds.sent_slots:
        sent = cluster.documents[slot.doc].sentences[slot.sent]
        if is_summary_graph:
            base = cluster.id[:-len(":summary")]
            key = (base, "summary", slot.doc, slot.sent)
        else:
            key = (cluster.id, slot.doc, slot.sent)
        sent_vecs.append(embedder.embed(sent, key=key))
    sent_nodes = [sent_node[(slot.doc, slot.sent)] for slot in bounds.sent_slots]
    edges["SS"] = _cosine_edges(sent_nodes, sent_vecs, cfg.ss_threshold)

    # DD: every document pair, mean ROUGE F1 over retained sentences, scored
    # in one batch; the lower-index document is the candidate, so a weight
    # depends on document order
    retained = bounds.retained_sentences()
    doc_ids = sorted(doc_node)
    texts = [[cluster.documents[di].sentences[si].lower for si in retained[di]]
             for di in doc_ids]
    pairs = [(i, j) for i in range(len(doc_ids)) for j in range(i + 1, len(doc_ids))]
    for (i, j), w in zip(pairs, rouge.rouge_avg_f1_batch(texts, pairs)):
        edges["DD"].append((doc_node[doc_ids[i]], doc_node[doc_ids[j]], w))

    return HeteroGraph(nodes, edges)


def _cosine_edges(node_ids: list[int], vecs: list[np.ndarray],
                  threshold: float | None) -> list[tuple[int, int, float]]:
    """(a, b, cosine) with a < b for every pair of nodes, in pair order."""
    if len(vecs) < 2:
        return []
    i, j, sim = pairwise_cosine(np.stack(vecs), threshold)
    ids = np.asarray(node_ids, dtype=np.intp)
    lo, hi = np.minimum(ids[i], ids[j]), np.maximum(ids[i], ids[j])
    return list(zip(lo.tolist(), hi.tolist(), sim.tolist()))


def validate_graph(g: HeteroGraph) -> ValidationReport:
    """Check every structural invariant; the report lists violations."""
    report = ValidationReport()
    add = report.violations.append
    n = g.n_nodes

    for etype in EDGE_TYPES:
        for a, b, w in g.edges[etype]:
            if a == b:
                add(f"{etype}: self-edge at node {a}")
            if not (0 <= a < n and 0 <= b < n):
                add(f"{etype}: edge ({a},{b}) out of range")
                continue
            if etype in ("WO", "DS", "SW") and w != 1.0:
                add(f"{etype}: weight {w} != 1.0 on ({a},{b})")
            if etype == "DD" and not (0.0 <= w <= 1.0):
                add(f"DD: weight {w} outside [0,1] on ({a},{b})")
            if etype in ("SS", "WE") and not (-1.0 <= w <= 1.0 + 1e-12):
                add(f"{etype}: weight {w} outside [-1,1] on ({a},{b})")
        seen = set()
        for a, b, w in g.edges[etype]:
            pair = (min(a, b), max(a, b))
            if pair in seen:
                add(f"{etype}: duplicate edge {pair}")
            seen.add(pair)

    for kind, etype in ((SENT, "DS"), (WORD, "SW")):
        idx = g.kind_indices(kind)
        degree = np.diff(g.index[etype].indptr)[idx]
        for i in idx[degree != 1]:
            add(f"{kind} node {i}: expected exactly one {etype} edge")
    n_docs = len(g.kind_indices(DOC))
    expected_dd = n_docs * (n_docs - 1) // 2
    if len(g.edges["DD"]) != expected_dd:
        add(f"DD: {len(g.edges['DD'])} edges, complete graph needs {expected_dd}")

    if n:
        src = np.concatenate([ix.src for ix in g.index.values()])
        dst = np.concatenate([ix.dst for ix in g.index.values()])
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
        frontier = reached.copy()
        while frontier.any():  # breadth-first, one level per pass
            step = np.zeros(n, dtype=bool)
            step[dst[frontier[src]]] = True
            frontier = step & ~reached
            reached |= frontier
        if not reached.all():
            add(f"graph not connected: reached {int(reached.sum())} of {n} nodes")
    return report
