"""Finite-difference verification of recorded gradients."""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..errors import NumericError
from .tensor import Tensor


def grad_check(loss_fn: Callable[[], Tensor], params: Mapping[str, Tensor],
               epsilon: float = 1e-5, max_entries: int = 64) -> float:
    """Compare recorded gradients against central differences.

    ``loss_fn`` must be deterministic (re-seeded dropout, fixed data) and is
    re-evaluated twice per probed scalar entry. Parameters with more than
    ``max_entries`` scalars are probed at ``max_entries`` sampled positions.
    Returns the maximum relative error max(|a-n| - r, 0) / max(|a|, |n|, 1e-8):
    r = 4 * eps_mach * (|up| + |down|) / (2 * epsilon) bounds the rounding that
    the two probed losses ``up`` and ``down`` put into the central difference n.
    """
    if any(t.data.dtype != np.float64 for t in params.values()):
        raise NumericError("grad_check requires double-precision parameters")
    for t in params.values():
        t.grad = None
    loss = loss_fn()
    if not np.all(np.isfinite(loss.data)):
        raise NumericError("grad_check: loss is not finite")
    loss.backward()
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in params.items()
    }

    rng = np.random.default_rng(0)
    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if n <= max_entries:
            entries = np.arange(n)
        else:
            entries = rng.choice(n, size=max_entries, replace=False)
        aflat = analytic[name].reshape(-1)
        for idx in entries:
            orig = flat[idx]
            flat[idx] = orig + epsilon
            up = float(loss_fn().data)
            flat[idx] = orig - epsilon
            down = float(loss_fn().data)
            flat[idx] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError(f"grad_check: non-finite loss probing {name}[{idx}]")
            numeric = (up - down) / (2.0 * epsilon)
            rounding = 4.0 * np.finfo(np.float64).eps * (abs(up) + abs(down)) / (2.0 * epsilon)
            a = float(aflat[idx])
            err = max(abs(a - numeric) - rounding, 0.0) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
