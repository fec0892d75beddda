"""Cluster ingestion, tokenization, vocabulary, and encoder-input layout.

Datasets are line-delimited UTF-8 records, one cluster per line, with fields
``id`` (string), ``documents`` (array of strings), ``summary`` (string, may
be empty). An optional ``pos`` field carries per-token part-of-speech
annotations parallel to the tokenized documents.
"""

from __future__ import annotations

import json
import logging
import re
import string
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError

log = logging.getLogger("dgsum.corpus")

_SENT_END = re.compile(r"[.!?]+(?=\s|$)")
_PUNCT = set(string.punctuation)


@dataclass
class Sentence:
    tokens: list[str]
    lower: list[str]
    char_span: tuple[int, int]
    pos: list[str] | None = None

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Document:
    sentences: list[Sentence]

    def lower_sentences(self) -> list[list[str]]:
        return [s.lower for s in self.sentences]


@dataclass
class DocumentCluster:
    id: str
    documents: list[Document]
    summary: list[Sentence] | None = None


def _split_chunk(chunk: str) -> list[str]:
    """Detach leading/trailing punctuation characters as their own tokens."""
    head, tail = [], []
    while chunk and chunk[0] in _PUNCT:
        head.append(chunk[0])
        chunk = chunk[1:]
    while chunk and chunk[-1] in _PUNCT:
        tail.append(chunk[-1])
        chunk = chunk[:-1]
    middle = [chunk] if chunk else []
    return head + middle + list(reversed(tail))


def tokenize(text: str) -> list[Sentence]:
    """Split text into sentences on terminal punctuation followed by
    whitespace (or end of text), then whitespace-tokenize with edge
    punctuation detached. Empty text gives an empty list."""
    spans: list[tuple[int, int]] = []
    start = 0
    for m in _SENT_END.finditer(text):
        end = m.end()
        if text[start:end].strip():
            spans.append((start, end))
        start = end
    if text[start:].strip():
        spans.append((start, len(text)))

    sentences = []
    for raw_start, raw_end in spans:
        seg = text[raw_start:raw_end]
        lead = len(seg) - len(seg.lstrip())
        trail = len(seg) - len(seg.rstrip())
        s, e = raw_start + lead, raw_end - trail
        tokens = []
        for chunk in text[s:e].split():
            tokens.extend(_split_chunk(chunk))
        if tokens:
            sentences.append(Sentence(tokens=tokens, lower=[t.lower() for t in tokens],
                                      char_span=(s, e)))
    return sentences


def _attach_pos(doc: Document, pos_doc) -> None:
    if len(pos_doc) != len(doc.sentences):
        raise DataError(f"pos annotations: {len(pos_doc)} sentences, document has "
                        f"{len(doc.sentences)}")
    for sent, tags in zip(doc.sentences, pos_doc):
        if len(tags) != len(sent.tokens):
            raise DataError(f"pos annotations: {len(tags)} tags for {len(sent.tokens)} tokens")
        sent.pos = [str(t) for t in tags]


def load_clusters(path, limit: int | None = None) -> list[DocumentCluster]:
    """Parse a line-delimited cluster file in file order.

    Malformed lines and repeated ids raise DataError naming the line number.
    Records with an empty documents list (or whose documents all tokenize to
    nothing) are skipped with a warning.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset not found: {path}")
    clusters: list[DocumentCluster] = []
    seen: set[str] = set()
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if limit is not None and len(clusters) >= limit:
                break
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: malformed record: {e}")
            if not isinstance(rec, dict) or "id" not in rec or "documents" not in rec:
                raise DataError(f"{path}:{lineno}: record must have 'id' and 'documents'")
            cid = str(rec["id"])
            if cid in seen:
                raise DataError(f"{path}:{lineno}: duplicate cluster id {cid!r}")
            seen.add(cid)
            docs_raw = rec["documents"]
            if not isinstance(docs_raw, list):
                raise DataError(f"{path}:{lineno}: 'documents' must be an array")
            if not docs_raw:
                log.warning("%s:%d: record %r has no documents; skipped",
                            path, lineno, rec["id"])
                continue
            documents = []
            kept_doc_idx = []
            for di, text in enumerate(docs_raw):
                sents = tokenize(str(text))
                if not sents:
                    log.warning("%s:%d: record %r document %d is empty; dropped",
                                path, lineno, rec["id"], di)
                    continue
                documents.append(Document(sentences=sents))
                kept_doc_idx.append(di)
            if not documents:
                log.warning("%s:%d: record %r has no non-empty documents; skipped",
                            path, lineno, rec["id"])
                continue
            if "pos" in rec:
                pos = rec["pos"]
                if not isinstance(pos, list) or len(pos) != len(docs_raw):
                    raise DataError(f"{path}:{lineno}: 'pos' must parallel 'documents'")
                for doc, di in zip(documents, kept_doc_idx):
                    _attach_pos(doc, pos[di])
            summary = tokenize(str(rec.get("summary", ""))) or None
            clusters.append(DocumentCluster(id=cid, documents=documents,
                                            summary=summary))
    return clusters


# --- vocabulary --------------------------------------------------------------

RESERVED = ("<pad>", "<unk>", "<bos>", "<eos>", "<sent-sep>", "<doc-sep>")


class Vocab:
    PAD, UNK, BOS, EOS, SENT_SEP, DOC_SEP = range(6)

    def __init__(self, tokens: list[str]):
        self.id_to_token: list[str] = list(RESERVED) + list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("vocab contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, self.UNK)

    def decode(self, idx: int) -> str:
        return self.id_to_token[idx]

    def to_json(self) -> str:
        return json.dumps({"tokens": self.id_to_token[len(RESERVED):]})

    @classmethod
    def from_json(cls, text: str) -> "Vocab":
        return cls(json.loads(text)["tokens"])

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        p = Path(path)
        if not p.exists():
            raise DataError(f"vocab not found: {p}")
        return cls.from_json(p.read_text(encoding="utf-8"))


def build_vocab(clusters: list[DocumentCluster], min_freq: int = 2) -> Vocab:
    """Count lowercased tokens over documents and summaries; keep those with
    frequency >= min_freq, ordered by frequency desc then lexicographic."""
    if not clusters:
        raise DataError("build_vocab: no clusters")
    freq: dict[str, int] = {}
    for cluster in clusters:
        sents = [s for doc in cluster.documents for s in doc.sentences]
        if cluster.summary:
            sents.extend(cluster.summary)
        for sent in sents:
            for tok in sent.lower:
                freq[tok] = freq.get(tok, 0) + 1
    kept = sorted((t for t, c in freq.items() if c >= min_freq),
                  key=lambda t: (-freq[t], t))
    return Vocab(kept)


# --- encoder-input layout -----------------------------------------------------

@dataclass(frozen=True)
class SentenceSlot:
    doc: int        # document index within the cluster
    sent: int       # sentence index within the document
    tok_start: int  # first token position in the serialized sequence
    tok_end: int    # one past the last token position
    sep_pos: int    # position of this sentence's SENT_SEP


@dataclass
class BoundaryIndex:
    doc_slots: list[tuple[int, int]] = field(default_factory=list)  # (doc idx, DOC_SEP pos)
    sent_slots: list[SentenceSlot] = field(default_factory=list)
    length: int = 0

    def sep_positions(self) -> list[int]:
        return sorted([p for _, p in self.doc_slots] + [s.sep_pos for s in self.sent_slots])

    def retained_sentences(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for slot in self.sent_slots:
            out.setdefault(slot.doc, []).append(slot.sent)
        return out


def layout(cluster: DocumentCluster, max_len: int) -> BoundaryIndex:
    """Per document: DOC_SEP, then each sentence's tokens followed by its
    SENT_SEP. Truncation keeps whole sentences: serialization stops at the
    first sentence that would overflow max_len, dropping everything after it
    (a document whose sentences are all dropped keeps no DOC_SEP)."""
    idx = BoundaryIndex()
    pos = 0
    for di, doc in enumerate(cluster.documents):
        doc_sep_pos = pos
        doc_cost = 1  # the DOC_SEP itself
        first = doc.sentences[0]
        if pos + doc_cost + len(first) + 1 > max_len:
            break
        idx.doc_slots.append((di, doc_sep_pos))
        pos += 1
        stop = False
        for si, sent in enumerate(doc.sentences):
            if pos + len(sent) + 1 > max_len:
                stop = True
                break
            tok_start = pos
            pos += len(sent)
            idx.sent_slots.append(SentenceSlot(doc=di, sent=si, tok_start=tok_start,
                                               tok_end=pos, sep_pos=pos))
            pos += 1
        if stop:
            break
    idx.length = pos
    return idx


def serialize_encoder_input(cluster: DocumentCluster, vocab: Vocab,
                            max_len: int) -> tuple[list[int], BoundaryIndex]:
    if max_len < 16:
        raise DataError(f"max_len must be >= 16, got {max_len}")
    bounds = layout(cluster, max_len)
    if not bounds.sent_slots:
        raise DataError(f"cluster {cluster.id!r}: truncation to {max_len} leaves no sentences")
    ids = [0] * bounds.length
    for _, p in bounds.doc_slots:
        ids[p] = Vocab.DOC_SEP
    for slot in bounds.sent_slots:
        ids[slot.sep_pos] = Vocab.SENT_SEP
        sent = cluster.documents[slot.doc].sentences[slot.sent]
        for k, tok in enumerate(sent.lower):
            ids[slot.tok_start + k] = vocab.encode(tok)
    return ids, bounds


def summary_as_cluster(cluster: DocumentCluster) -> DocumentCluster:
    """Wrap a cluster's ground-truth summary as a one-document cluster so the
    same graph/encoder path applies to it."""
    if not cluster.summary:
        raise DataError(f"cluster {cluster.id!r} has no summary")
    return DocumentCluster(id=f"{cluster.id}:summary",
                           documents=[Document(sentences=list(cluster.summary))])
