"""Output checks. Invariants hold on every seed; on the default seed each
operation's output is also compared with a stored digest of the outputs the
program gave when the benchmark was written. A failed check marks the
operation failed; it never aborts the run."""

from __future__ import annotations

import hashlib
import math

REL_TOL = 1e-9  # losses and edge weights; ids, counts and edge sets are exact


def loss_problems(losses: dict) -> list[str]:
    return [f"loss {k} is not finite: {v}" for k, v in losses.items() if not math.isfinite(v)]


def token_problems(ids: list[int], vocab_size: int, budget: int) -> list[str]:
    out = []
    if len(ids) > budget:
        out.append(f"{len(ids)} tokens exceed the output budget {budget}")
    bad = [i for i in ids if not 0 <= i < vocab_size]
    if bad:
        out.append(f"token ids out of range [0, {vocab_size}): {bad[:5]}")
    return out


def graph_digest(g) -> dict:
    """Node count and, per edge type, the exact (a, b) pair set as a hash
    plus every weight in edge order."""
    edges = {}
    for etype, lst in g.edges.items():
        pairs = ",".join(f"{a}-{b}" for a, b, _ in lst)
        edges[etype] = {"n": len(lst),
                        "pairs": hashlib.sha256(pairs.encode()).hexdigest(),
                        "w": [float(w) for _, _, w in lst]}
    return {"nodes": g.n_nodes, "edges": edges}


def compare(expected, actual, path: str = "") -> list[str]:
    """Differences between a stored digest and a fresh one: floats within
    REL_TOL relative, everything else exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        out = []
        for k in expected:
            out.extend(compare(expected[k], actual[k], f"{path}.{k}"))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(compare(e, a, f"{path}[{i}]"))
            if len(out) > 3:
                break
        return out
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)) \
                and math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []
