"""Windowed-attention text encoder and masked-attention decoder with beam
search, at configurable small dimensions with random initialization.

Encoder self-attention is local (each position sees a +-window radius) with
global attention at sentence/document delimiter positions: delimiters attend
to and are attended by every position, which lets their rows pool their full
spans. The decoder is a standard causal transformer with cross-attention
over the compressed node embeddings; memory rows get positional embeddings
by their original token index in the source serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numeric as nm
from .corpus import BoundaryIndex, Vocab
from .errors import AlignmentError, ConfigError, DataError, ShapeError
from .hetgraph import HeteroGraph
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
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.attention_window < 1:
            raise ConfigError(f"attention_window must be >= 1, got {self.attention_window}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class EncoderOutput:
    Q: Tensor                  # [sequence length, d_model]
    boundaries: BoundaryIndex
    ids: list[int] = field(default_factory=list)


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


def _attention(q_in: Tensor, kv_in: Tensor, store: ParamStore, prefix: str,
               n_heads: int, mask_add: np.ndarray | None) -> Tensor:
    q = nm.add(nm.matmul(q_in, store[f"{prefix}.wq"]), store[f"{prefix}.bq"])
    k = nm.matmul(kv_in, store[f"{prefix}.wk"])
    v = nm.add(nm.matmul(kv_in, store[f"{prefix}.wv"]), store[f"{prefix}.bv"])
    d_model = q.shape[1]
    dh = d_model // n_heads
    scale = 1.0 / np.sqrt(dh)
    outs = []
    for h in range(n_heads):
        qh = nm.slice_axis(q, 1, h * dh, (h + 1) * dh)
        kh = nm.slice_axis(k, 1, h * dh, (h + 1) * dh)
        vh = nm.slice_axis(v, 1, h * dh, (h + 1) * dh)
        scores = nm.mul(nm.matmul(qh, nm.transpose(kh)), scale)
        if mask_add is not None:
            scores = nm.add(scores, mask_add)
        outs.append(nm.matmul(nm.softmax(scores, axis=-1), vh))
    merged = outs[0] if len(outs) == 1 else nm.concat(outs, axis=1)
    return nm.add(nm.matmul(merged, store[f"{prefix}.wo"]), store[f"{prefix}.bo"])


def _ffn(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    h = nm.relu(nm.add(nm.matmul(x, store[f"{prefix}.w1"]), store[f"{prefix}.b1"]))
    return nm.add(nm.matmul(h, store[f"{prefix}.w2"]), store[f"{prefix}.b2"])


def _ln(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return nm.layer_norm(x, store[f"{prefix}.g"], store[f"{prefix}.b"])


def encoder_mask(n: int, window: int, global_positions) -> np.ndarray:
    """Additive mask: 0 where attention is allowed (|i-j| <= window, or either
    side is a delimiter), MASK_FILL elsewhere."""
    idx = np.arange(n)
    allowed = np.abs(idx[:, None] - idx[None, :]) <= window
    g = np.zeros(n, dtype=bool)
    g[np.asarray(list(global_positions), dtype=np.intp)] = True
    allowed |= g[:, None]
    allowed |= g[None, :]
    return np.where(allowed, 0.0, nm.MASK_FILL)


def causal_mask(n: int) -> np.ndarray:
    return np.where(np.tril(np.ones((n, n), dtype=bool)), 0.0, nm.MASK_FILL)


def encode_text(ids: list[int], boundaries: BoundaryIndex, store: ParamStore,
                cfg: TextModelConfig, train: bool = False,
                rng: np.random.Generator | None = None) -> EncoderOutput:
    n = len(ids)
    if n == 0:
        raise DataError("encode_text: empty input")
    if n > cfg.max_in_len:
        raise ShapeError(f"encode_text: input length {n} exceeds max {cfg.max_in_len}")
    sep = boundaries.sep_positions()
    if sep and max(sep) >= n:
        raise AlignmentError(f"boundary position {max(sep)} outside input of length {n}")
    mask = encoder_mask(n, cfg.attention_window, sep)
    x = nm.add(nm.embedding(store["emb.tok"], np.asarray(ids, dtype=np.intp)),
               nm.gather_rows(store["emb.pos_enc"], np.arange(n)))
    for i in range(cfg.n_layers_enc):
        a = _attention(x, x, store, f"enc{i}.attn", cfg.n_heads, mask)
        a = nm.dropout(a, cfg.dropout, rng, train)
        x = _ln(nm.add(x, a), store, f"enc{i}.ln1")
        f = _ffn(x, store, f"enc{i}.ffn")
        f = nm.dropout(f, cfg.dropout, rng, train)
        x = _ln(nm.add(x, f), store, f"enc{i}.ln2")
    return EncoderOutput(Q=x, boundaries=boundaries, ids=list(ids))


def unit_embeddings(enc: EncoderOutput, graph: HeteroGraph) -> Tensor:
    """Initial node embeddings: word nodes take their token row, sentence and
    document nodes take their delimiter row."""
    n = enc.Q.shape[0]
    positions = graph.token_positions()
    if positions.size and (positions.min() < 0 or positions.max() >= n):
        raise AlignmentError(f"node token_position outside encoder output of length {n}")
    sep = set(enc.boundaries.sep_positions())
    for nd in graph.nodes:
        is_sep = nd.token_position in sep
        if nd.kind == "word" and is_sep:
            raise AlignmentError(f"word node at delimiter position {nd.token_position}")
        if nd.kind in ("sentence", "document") and not is_sep:
            raise AlignmentError(f"{nd.kind} node at non-delimiter position "
                                 f"{nd.token_position}")
    return nm.gather_rows(enc.Q, positions)


def _decoder_forward(memory: Tensor, mem_positions: np.ndarray, target_ids: list[int],
                     store: ParamStore, cfg: TextModelConfig, train: bool = False,
                     rng: np.random.Generator | None = None) -> Tensor:
    t = len(target_ids)
    if t > cfg.max_out_len + 1:
        raise ShapeError(f"decoder input length {t} exceeds max {cfg.max_out_len + 1}")
    mem = nm.add(memory, nm.gather_rows(store["emb.pos_enc"], mem_positions))
    x = nm.add(nm.embedding(store["emb.tok"], np.asarray(target_ids, dtype=np.intp)),
               nm.gather_rows(store["emb.pos_dec"], np.arange(t)))
    mask = causal_mask(t)
    for i in range(cfg.n_layers_dec):
        a = _attention(x, x, store, f"dec{i}.self", cfg.n_heads, mask)
        a = nm.dropout(a, cfg.dropout, rng, train)
        x = _ln(nm.add(x, a), store, f"dec{i}.ln1")
        c = _attention(x, mem, store, f"dec{i}.cross", cfg.n_heads, None)
        c = nm.dropout(c, cfg.dropout, rng, train)
        x = _ln(nm.add(x, c), store, f"dec{i}.ln2")
        f = _ffn(x, store, f"dec{i}.ffn")
        f = nm.dropout(f, cfg.dropout, rng, train)
        x = _ln(nm.add(x, f), store, f"dec{i}.ln3")
    return nm.add(nm.matmul(x, store["out.w"]), store["out.b"])


def decode_teacher_forced(memory: Tensor, mem_positions: np.ndarray,
                          target_ids: list[int], store: ParamStore,
                          cfg: TextModelConfig, train: bool = False,
                          rng: np.random.Generator | None = None) -> Tensor:
    """Logits [len(target) x vocab]; row i conditions on target[0..i]."""
    if not target_ids or target_ids[0] != Vocab.BOS:
        raise DataError("decode_teacher_forced: target must begin with BOS")
    if memory.shape[0] == 0:
        raise DataError("decode_teacher_forced: empty memory")
    return _decoder_forward(memory, mem_positions, target_ids, store, cfg,
                            train=train, rng=rng)


def _log_softmax_row(row: np.ndarray) -> np.ndarray:
    shifted = row - row.max()
    return shifted - np.log(np.exp(shifted).sum())


def beam_search(step_logprobs: Callable[[list[int]], np.ndarray], bos: int, eos: int,
                beam_width: int, max_len: int, length_norm: bool = True) -> list[int]:
    """Generic length-normalized beam search over a prefix-scoring function.

    ``step_logprobs(prefix)`` returns the log-probability row for the token
    following ``prefix`` (which always starts with ``bos``). Ties in the
    running score break toward the lower token id, then the older
    hypothesis, so width 1 is greedy argmax decoding; the two differ only
    when log-probs closer than the rounding of the running score tie in
    their sums. Returns generated token ids without bos/eos.
    """
    if beam_width < 1:
        raise ConfigError(f"beam width must be >= 1, got {beam_width}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")

    def norm(score: float, length: int) -> float:
        return score / length if length_norm and length else score

    live: list[tuple[float, list[int]]] = [(0.0, [bos])]
    finished: list[tuple[float, list[int]]] = []
    for _ in range(max_len):
        candidates: list[tuple[float, int, int, list[int]]] = []
        for hyp_idx, (score, prefix) in enumerate(live):
            totals = score + np.asarray(step_logprobs(prefix), dtype=np.float64)
            # only a hypothesis' own best beam_width tokens can enter the beam;
            # the stable sort keeps the lower token id first among equal totals
            for tok in np.argsort(-totals, kind="stable")[:beam_width]:
                candidates.append((float(totals[tok]), int(tok), hyp_idx, prefix))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_live = []
        for score, tok, _, prefix in candidates[:beam_width]:
            seq = prefix + [tok]
            gen_len = len(seq) - 1
            if tok == eos:
                finished.append((norm(score, gen_len), seq))
            else:
                next_live.append((score, seq))
        live = next_live
        if not live:
            break
    for score, seq in live:
        finished.append((norm(score, len(seq) - 1), seq))
    best = max(finished, key=lambda f: (f[0], -len(f[1])))
    seq = best[1][1:]
    if seq and seq[-1] == eos:
        seq = seq[:-1]
    return seq


def decode_beam(memory: Tensor, mem_positions: np.ndarray, store: ParamStore,
                cfg: TextModelConfig, beam_width: int = 5,
                max_len: int | None = None) -> list[int]:
    """Beam-search token ids from the compressed node embeddings."""
    if memory.shape[0] == 0:
        raise DataError("decode_beam: empty memory")
    max_len = cfg.max_out_len if max_len is None else max_len

    def step(prefix: list[int]) -> np.ndarray:
        with nm.no_grad():
            logits = _decoder_forward(memory, mem_positions, prefix, store, cfg)
        return _log_softmax_row(logits.data[-1])

    return beam_search(step, Vocab.BOS, Vocab.EOS, beam_width, max_len,
                       length_norm=cfg.length_norm)

