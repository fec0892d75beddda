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
    tokens: list[str]  # lowercased
    pos: list[str] | None = None

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Document:
    sentences: list[Sentence]


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
    punctuation detached, lowercasing each token. Empty text gives an empty
    list."""
    sentences = []
    start = 0
    for end in [m.end() for m in _SENT_END.finditer(text)] + [len(text)]:
        tokens = [t.lower() for chunk in text[start:end].split() for t in _split_chunk(chunk)]
        if tokens:
            sentences.append(Sentence(tokens=tokens))
        start = end
    return sentences


def _attach_pos(documents: list[Document], kept: list[int], pos, n_docs: int) -> None:
    """Set sentence tags from a record's 'pos' field: per document (dropped
    empty ones included), a list of tag lists, one per sentence."""
    if not isinstance(pos, list) or len(pos) != n_docs:
        raise DataError("'pos' must parallel 'documents'")
    for doc, di in zip(documents, kept):
        tags = pos[di]
        if not (isinstance(tags, list) and all(
                isinstance(t, list) and all(isinstance(x, str) for x in t) for t in tags)):
            raise DataError(f"'pos' of document {di} must be a list of lists of strings")
        if len(tags) != len(doc.sentences):
            raise DataError(f"'pos' of document {di}: {len(tags)} sentences, document has "
                            f"{len(doc.sentences)}")
        for si, (sent, t) in enumerate(zip(doc.sentences, tags)):
            if len(t) != len(sent.tokens):
                raise DataError(f"'pos' of document {di} sentence {si}: {len(t)} tags for "
                                f"{len(sent.tokens)} tokens")
            sent.pos = t


def read_lines(path, what: str):
    """Yield (line number, line) of the UTF-8 file ``path``. A file that
    cannot be opened or decoded is a DataError naming ``what`` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {what} {path}: {getattr(e, 'strerror', None) or e}")


def read_records(path, what: str, keys: tuple[str, ...]):
    """Yield (line number, id, record) of a line-delimited JSON file, blank
    lines skipped. Each record is an object holding ``keys``; the first key's
    value, as a string, is a cluster id unique in the file. Errors name
    ``path:line``."""
    seen: set[str] = set()
    for lineno, line in read_lines(path, what):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}:{lineno}: malformed record: {e}")
        if not isinstance(rec, dict) or not all(k in rec for k in keys):
            raise DataError(f"{path}:{lineno}: record must be an object with "
                            + " and ".join(map(repr, keys)))
        cid = str(rec[keys[0]])
        if cid in seen:
            raise DataError(f"{path}:{lineno}: duplicate cluster id {cid!r}")
        seen.add(cid)
        yield lineno, cid, rec


def load_clusters(path) -> list[DocumentCluster]:
    """Parse a line-delimited cluster file in file order, through
    ``read_records``.

    Documents or a summary that are not strings raise DataError naming the
    line number. Records with an empty documents list (or whose documents
    all tokenize to nothing) are skipped with a warning.
    """
    clusters: list[DocumentCluster] = []
    for lineno, cid, rec in read_records(path, "dataset", ("id", "documents")):
        docs_raw = rec["documents"]
        if not isinstance(docs_raw, list) or not all(isinstance(d, str) for d in docs_raw):
            raise DataError(f"{path}:{lineno}: cluster {cid!r}: 'documents' must be "
                            f"an array of strings")
        if not isinstance(rec.get("summary", ""), str):
            raise DataError(f"{path}:{lineno}: cluster {cid!r}: 'summary' must be "
                            f"a string")
        if not docs_raw:
            log.warning("%s:%d: record %r has no documents; skipped", path, lineno, cid)
            continue
        documents = []
        kept_doc_idx = []
        for di, text in enumerate(docs_raw):
            sents = tokenize(text)
            if not sents:
                log.warning("%s:%d: record %r document %d is empty; dropped",
                            path, lineno, cid, di)
                continue
            documents.append(Document(sentences=sents))
            kept_doc_idx.append(di)
        if not documents:
            log.warning("%s:%d: record %r has no non-empty documents; skipped",
                        path, lineno, cid)
            continue
        if "pos" in rec:
            try:
                _attach_pos(documents, kept_doc_idx, rec["pos"], len(docs_raw))
            except DataError as e:
                raise DataError(f"{path}:{lineno}: cluster {cid!r}: {e}")
        summary = tokenize(rec.get("summary", "")) or None
        clusters.append(DocumentCluster(id=cid, documents=documents, summary=summary))
    return clusters


# --- vocabulary --------------------------------------------------------------

RESERVED = ("<pad>", "<unk>", "<bos>", "<eos>", "<sent-sep>", "<doc-sep>")


class Vocab:
    PAD, UNK, BOS, EOS, SENT_SEP, DOC_SEP = range(6)
    DELIMITERS = (SENT_SEP, DOC_SEP)  # the ids the encoder attends to globally

    def __init__(self, tokens: list[str]):
        self.id_to_token: list[str] = list(RESERVED) + list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            seen: set[str] = set()
            for token in self.id_to_token:
                if token in seen:
                    raise DataError(f"vocab repeats the token {token!r}")
                seen.add(token)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, self.UNK)

    def decode(self, idx: int) -> str:
        return self.id_to_token[idx]

    def save(self, path) -> None:
        Path(path).write_text(json.dumps({"tokens": self.id_to_token[len(RESERVED):]}),
                              encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        """Read what ``save`` writes: ``{"tokens": [strings]}``."""
        text = "".join(line for _, line in read_lines(path, "vocab"))
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: vocab is not JSON: {e}")
        tokens = loaded.get("tokens") if isinstance(loaded, dict) else None
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise DataError(f'{path}: vocab must be {{"tokens": [strings]}}')
        try:
            return cls(tokens)
        except DataError as e:
            raise DataError(f"{path}: {e}")


def build_vocab(clusters: list[DocumentCluster], min_freq: int = 2) -> Vocab:
    """Count tokens over documents and summaries; keep those with
    frequency >= min_freq, ordered by frequency desc then lexicographic."""
    if not clusters:
        raise DataError("build_vocab: no clusters")
    freq: dict[str, int] = {}
    for cluster in clusters:
        sents = [s for doc in cluster.documents for s in doc.sentences]
        if cluster.summary:
            sents.extend(cluster.summary)
        for sent in sents:
            for tok in sent.tokens:
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
    sep_pos: int    # position of this sentence's SENT_SEP, one past its last token


@dataclass
class BoundaryIndex:
    doc_slots: list[tuple[int, int]] = field(default_factory=list)  # (doc idx, DOC_SEP pos)
    sent_slots: list[SentenceSlot] = field(default_factory=list)
    length: int = 0

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
                                               sep_pos=pos))
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
        for k, tok in enumerate(sent.tokens):
            ids[slot.tok_start + k] = vocab.encode(tok)
    return ids, bounds


def summary_as_cluster(cluster: DocumentCluster) -> DocumentCluster:
    """Wrap a cluster's ground-truth summary as a one-document cluster so the
    same graph/encoder path applies to it."""
    if not cluster.summary:
        raise DataError(f"cluster {cluster.id!r} has no summary")
    return DocumentCluster(id=f"{cluster.id}:summary",
                           documents=[Document(sentences=list(cluster.summary))])
