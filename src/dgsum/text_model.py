"""Windowed-attention text encoder and masked-attention decoder with beam
search, at configurable small dimensions with random initialization.

Encoder self-attention is local (each position sees a +-window radius) with
global attention at the sentence and document delimiters, found by their ids
(``Vocab.DELIMITERS``) as in Longformer and PRIMERA: delimiters attend to and
are attended by every position, which lets their rows pool their full spans.
It runs as one kernel, ``nm.band_attention``: dense attention per block of
rows over the keys within the window of the block plus the delimiter keys,
and one dense pass for the delimiter rows, so no n x n array is formed.
The decoder is a standard causal transformer with cross-attention over the
compressed node embeddings, through ``nm.attention`` with a causal mask or
none; memory rows get positional embeddings by their original token index
in the source serialization. Both kernels take the projected rows [n, d]
and a head count and return attended rows, so the head layout never leaves
them: this module makes no reshape or transpose node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numeric as nm
from .corpus import Vocab
from .errors import AlignmentError, ConfigError, DataError, NumericError, ShapeError
from .hetgraph import WORD, HeteroGraph
from .numeric import ParamStore, Tensor


@dataclass
class TextModelConfig:
    d_model: int = 128
    n_layers_enc: int = 2
    n_layers_dec: int = 2
    n_heads: int = 4
    ffn_dim: int = 256
    attention_window: int = 16
    max_in_len: int = 4096
    max_out_len: int = 512
    dropout: float = 0.0
    length_norm: bool = True

    def __post_init__(self):
        for name, floor in (("d_model", 1), ("n_heads", 1), ("ffn_dim", 1), ("max_out_len", 1),
                            ("attention_window", 1), ("n_layers_enc", 0), ("n_layers_dec", 0)):
            if getattr(self, name) < floor:
                raise ConfigError(f"{name} must be >= {floor}, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


def add_text_model_params(store: ParamStore, cfg: TextModelConfig, vocab_size: int,
                          rng: np.random.Generator) -> None:
    store.add("emb.tok", (vocab_size, cfg.d_model), rng)
    store.add("emb.pos_enc", (cfg.max_in_len, cfg.d_model), rng)
    store.add("emb.pos_dec", (cfg.max_out_len + 1, cfg.d_model), rng)

    def attn_block(prefix: str):
        for name in ("wq", "wk", "wv", "wo"):
            store.add(f"{prefix}.{name}", (cfg.d_model, cfg.d_model), rng)
        # no key bias: softmax is invariant to the uniform row shift it causes
        for name in ("bq", "bv", "bo"):
            store.add(f"{prefix}.{name}", (cfg.d_model,), rng, init="zeros")

    def ln_block(prefix: str):
        store.add(f"{prefix}.g", (cfg.d_model,), rng, init="ones")
        store.add(f"{prefix}.b", (cfg.d_model,), rng, init="zeros")

    def ffn_block(prefix: str):
        store.add(f"{prefix}.w1", (cfg.d_model, cfg.ffn_dim), rng)
        store.add(f"{prefix}.b1", (cfg.ffn_dim,), rng, init="zeros")
        store.add(f"{prefix}.w2", (cfg.ffn_dim, cfg.d_model), rng)
        store.add(f"{prefix}.b2", (cfg.d_model,), rng, init="zeros")

    for i in range(cfg.n_layers_enc):
        attn_block(f"enc{i}.attn")
        ln_block(f"enc{i}.ln1")
        ffn_block(f"enc{i}.ffn")
        ln_block(f"enc{i}.ln2")
    for i in range(cfg.n_layers_dec):
        attn_block(f"dec{i}.self")
        ln_block(f"dec{i}.ln1")
        attn_block(f"dec{i}.cross")
        ln_block(f"dec{i}.ln2")
        ffn_block(f"dec{i}.ffn")
        ln_block(f"dec{i}.ln3")
    store.add("out.w", (cfg.d_model, vocab_size), rng)
    store.add("out.b", (vocab_size,), rng, init="zeros")


def _project_q(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    # callers project queries before keys and values: backward sums the
    # gradients of a shared input in reverse creation order, so the order
    # fixes the bits of training results
    return nm.linear(x, store[f"{prefix}.wq"], store[f"{prefix}.bq"])


def _project_kv(x: Tensor, store: ParamStore, prefix: str) -> tuple[Tensor, Tensor]:
    return (nm.linear(x, store[f"{prefix}.wk"]),
            nm.linear(x, store[f"{prefix}.wv"], store[f"{prefix}.bv"]))


def _project_out(a: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return nm.linear(a, store[f"{prefix}.wo"], store[f"{prefix}.bo"])


def _ffn(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    h = nm.relu(nm.linear(x, store[f"{prefix}.w1"], store[f"{prefix}.b1"]))
    return nm.linear(h, store[f"{prefix}.w2"], store[f"{prefix}.b2"])


def _ln(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return nm.layer_norm(x, store[f"{prefix}.g"], store[f"{prefix}.b"])


def causal_mask(n: int) -> np.ndarray:
    return np.where(np.tril(np.ones((n, n), dtype=bool)), 0.0, nm.MASK_FILL)


def encode_text(ids: list[int], store: ParamStore, cfg: TextModelConfig, train: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
    """The encoder's output rows [len(ids), d_model]."""
    n = len(ids)
    if n == 0:
        raise DataError("encode_text: empty input")
    if n > cfg.max_in_len:
        raise ShapeError(f"encode_text: input length {n} exceeds max {cfg.max_in_len}")
    sep = np.flatnonzero(np.isin(ids, Vocab.DELIMITERS))
    x = nm.add(nm.embedding(store["emb.tok"], np.asarray(ids, dtype=np.intp)),
               nm.gather_rows(store["emb.pos_enc"], np.arange(n)))
    for i in range(cfg.n_layers_enc):
        p = f"enc{i}.attn"
        a = nm.band_attention(_project_q(x, store, p), *_project_kv(x, store, p), cfg.n_heads,
                              cfg.attention_window, sep)
        a = nm.dropout(_project_out(a, store, p), cfg.dropout, rng, train)
        x = _ln(nm.add(x, a), store, f"enc{i}.ln1")
        f = _ffn(x, store, f"enc{i}.ffn")
        f = nm.dropout(f, cfg.dropout, rng, train)
        x = _ln(nm.add(x, f), store, f"enc{i}.ln2")
    return x


def unit_embeddings(rows: Tensor, ids: list[int], graph: HeteroGraph) -> Tensor:
    """Initial node embeddings from the encoder's output ``rows`` of ``ids``:
    word nodes take their token row, sentence and document nodes their
    delimiter row. A node outside the rows, or whose kind disagrees with the
    id at its position, is an AlignmentError naming the first such node."""
    n, positions = len(ids), graph.token_positions()
    if rows.shape[0] != n:
        raise AlignmentError(f"encoder output has {rows.shape[0]} rows for {n} ids")
    inside = (positions >= 0) & (positions < n)
    on_sep = np.zeros(positions.shape, dtype=bool)
    on_sep[inside] = np.isin(np.asarray(ids, dtype=np.intp)[positions[inside]], Vocab.DELIMITERS)
    is_word = np.asarray([nd.kind == WORD for nd in graph.nodes], dtype=bool)
    bad = np.flatnonzero(~inside | (is_word == on_sep))
    if bad.size:
        nd, i = graph.nodes[bad[0]], bad[0]
        why = (f"outside encoder output of length {n}" if not inside[i] else
               "on a delimiter id" if is_word[i] else "on a non-delimiter id")
        raise AlignmentError(f"{nd.kind} node {nd.index} at token position "
                             f"{nd.token_position}: {why}")
    return nm.gather_rows(rows, positions)


def _memory_kv(memory: Tensor, mem_positions: np.ndarray, store: ParamStore,
               cfg: TextModelConfig) -> list[tuple[Tensor, Tensor]]:
    """Each decoder layer's cross-attention key and value rows of the memory."""
    mem = nm.add(memory, nm.gather_rows(store["emb.pos_enc"], mem_positions))
    return [_project_kv(mem, store, f"dec{i}.cross")
            for i in range(cfg.n_layers_dec)]


def _decoder(ids: list[int], positions: np.ndarray,
             self_kv: Callable[[int, Tensor], tuple[Tensor, Tensor]],
             mem_kv: list[tuple[Tensor, Tensor]], mask: np.ndarray | None,
             store: ParamStore, cfg: TextModelConfig, train: bool = False,
             rng: np.random.Generator | None = None) -> Tensor:
    """Logits of the decoder rows for tokens ``ids`` at ``positions``.

    ``self_kv(i, x)`` gives layer i's self-attention key and value rows for
    its input rows ``x``, as ``nm.attention`` takes them; ``mask`` is the
    additive mask of those queries over those keys. ``mem_kv`` comes from
    ``_memory_kv``.
    """
    if positions.size and positions.max() > cfg.max_out_len:
        raise ShapeError(f"decoder input length {positions.max() + 1} exceeds max "
                         f"{cfg.max_out_len + 1}")
    x = nm.add(nm.embedding(store["emb.tok"], np.asarray(ids, dtype=np.intp)),
               nm.gather_rows(store["emb.pos_dec"], positions))
    for i in range(cfg.n_layers_dec):
        p = f"dec{i}.self"
        a = nm.attention(_project_q(x, store, p), *self_kv(i, x), cfg.n_heads, mask)
        a = nm.dropout(_project_out(a, store, p), cfg.dropout, rng, train)
        x = _ln(nm.add(x, a), store, f"dec{i}.ln1")
        p = f"dec{i}.cross"
        c = nm.attention(_project_q(x, store, p), *mem_kv[i], cfg.n_heads)
        c = nm.dropout(_project_out(c, store, p), cfg.dropout, rng, train)
        x = _ln(nm.add(x, c), store, f"dec{i}.ln2")
        f = _ffn(x, store, f"dec{i}.ffn")
        f = nm.dropout(f, cfg.dropout, rng, train)
        x = _ln(nm.add(x, f), store, f"dec{i}.ln3")
    return nm.linear(x, store["out.w"], store["out.b"])


def decode_teacher_forced(memory: Tensor, mem_positions: np.ndarray,
                          target_ids: list[int], store: ParamStore,
                          cfg: TextModelConfig, train: bool = False,
                          rng: np.random.Generator | None = None) -> Tensor:
    """Logits [len(target) x vocab]; row i conditions on target[0..i], every
    target position attending causally to the others."""
    if not target_ids or target_ids[0] != Vocab.BOS:
        raise DataError("decode_teacher_forced: target must begin with BOS")
    if memory.shape[0] == 0:
        raise DataError("decode_teacher_forced: empty memory")
    t = len(target_ids)
    mem_kv = _memory_kv(memory, mem_positions, store, cfg)
    return _decoder(target_ids, np.arange(t),
                    lambda i, x: _project_kv(x, store, f"dec{i}.self"), mem_kv,
                    causal_mask(t), store, cfg, train=train, rng=rng)


def beam_search(step_logprobs: Callable[[list[list[int]]], np.ndarray], bos: int, eos: int,
                beam_width: int, max_len: int, length_norm: bool = True) -> list[int]:
    """Generic length-normalized beam search over a batched prefix scorer.

    ``step_logprobs(prefixes)`` returns a ``[len(prefixes), V]`` array: row b
    holds the log-probabilities of the token following ``prefixes[b]``. The
    prefixes are the live hypotheses, oldest first, all of one length and
    starting with ``bos``. Ties in the running score break toward the lower
    token id, then the older hypothesis, so width 1 is greedy argmax
    decoding; the two differ only when log-probs closer than the rounding of
    the running score tie in their sums. Returns generated token ids without
    bos/eos.
    """
    if beam_width < 1:
        raise ConfigError(f"beam width must be >= 1, got {beam_width}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")

    def norm(score: float, length: int) -> float:
        return score / length if length_norm and length else score

    prefixes: list[list[int]] = [[bos]]
    scores = np.zeros(1)
    finished: list[tuple[float, list[int]]] = []
    for _ in range(max_len):
        logp = np.asarray(step_logprobs(prefixes), dtype=np.float64)
        if np.isnan(logp).any():
            raise NumericError("beam search: log-probabilities contain NaN")
        totals = (scores[:, None] + logp).ravel()
        k = min(beam_width, totals.size)
        # candidates at least as good as the k-th best total (more than k
        # on a tie), ordered by (-total, token, hypothesis); the first k win
        cand = np.flatnonzero(totals >= np.partition(totals, totals.size - k)[totals.size - k])
        hyp, tok = np.divmod(cand, logp.shape[1])
        next_prefixes, next_scores = [], []
        for c in np.lexsort((hyp, tok, -totals[cand]))[:k]:
            seq = prefixes[hyp[c]] + [int(tok[c])]
            score = float(totals[cand[c]])
            if seq[-1] == eos:
                finished.append((norm(score, len(seq) - 1), seq))
            else:
                next_prefixes.append(seq)
                next_scores.append(score)
        prefixes, scores = next_prefixes, np.asarray(next_scores)
        if not prefixes:
            break
    for score, seq in zip(scores.tolist(), prefixes):
        finished.append((norm(score, len(seq) - 1), seq))
    best = max(finished, key=lambda f: (f[0], -len(f[1])))
    seq = best[1][1:]
    if seq and seq[-1] == eos:
        seq = seq[:-1]
    return seq


def _cached_step(memory: Tensor, mem_positions: np.ndarray, store: ParamStore,
                 cfg: TextModelConfig) -> Callable[[list[list[int]]], np.ndarray]:
    """The batched ``beam_search`` scorer of ``decode_beam``.

    The memory's cross-attention keys and values are projected once. Each
    decoder layer keeps a cache of self-attention key and value rows
    ``[B, t, d]``, one batch row per hypothesis the previous call scored. A
    call re-gathers the cache by each prefix's parent (the prefix without its
    last token), embeds only the B last tokens, and attends each over its own
    cache row.
    """
    with nm.no_grad():
        mem_kv = _memory_kv(memory, mem_positions, store, cfg)
    empty = np.zeros((1, 0, cfg.d_model), dtype=memory.data.dtype)
    cache = [(empty, empty)] * cfg.n_layers_dec
    rows = {(): 0}  # scored prefix -> its cache row

    def step(prefixes: list[list[int]]) -> np.ndarray:
        nonlocal cache, rows
        b, t = len(prefixes), len(prefixes[0])
        parents = [rows[tuple(p[:-1])] for p in prefixes]
        grown = []

        def self_kv(i: int, x: Tensor) -> tuple[Tensor, Tensor]:
            kv = [np.concatenate([old[parents], new.data[:, None]], axis=1)
                  for old, new in zip(cache[i], _project_kv(x, store, f"dec{i}.self"))]
            grown.append(kv)
            return Tensor(kv[0]), Tensor(kv[1])

        with nm.no_grad():
            logits = _decoder([p[-1] for p in prefixes], np.full(b, t - 1), self_kv, mem_kv,
                              None, store, cfg).data
        cache, rows = grown, {tuple(p): j for j, p in enumerate(prefixes)}
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    return step


def decode_beam(memory: Tensor, mem_positions: np.ndarray, store: ParamStore,
                cfg: TextModelConfig, beam_width: int = 5,
                max_len: int | None = None) -> list[int]:
    """Beam-search token ids from the compressed node embeddings, advancing
    every live hypothesis by one cached decoder step per token."""
    if memory.shape[0] == 0:
        raise DataError("decode_beam: empty memory")
    max_len = cfg.max_out_len if max_len is None else max_len
    return beam_search(_cached_step(memory, mem_positions, store, cfg), Vocab.BOS,
                       Vocab.EOS, beam_width, max_len, length_norm=cfg.length_norm)
