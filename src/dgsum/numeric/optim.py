"""Adam with persistent moment state."""

from __future__ import annotations

import numpy as np

from ..errors import NumericError
from .params import ParamStore


class Adam:
    def __init__(self, params: ParamStore, lr: float = 3e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self._v = {name: np.zeros_like(t.data) for name, t in params.items()}

    def step(self) -> None:
        """One update from the gradients currently stored on the parameters.

        Tensors with grad=None are treated as zero-gradient. Aborts on
        non-finite gradients, naming the parameter. The update runs in place
        through two scratch arrays per parameter, in the operation order of
        m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        p -= lr*(m/bc1) / (sqrt(v/bc2) + eps), so its bits are that formula's.
        """
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise NumericError(f"adam: non-finite gradient for parameter {name!r}")
            m = self._m[name]
            v = self._v[name]
            a = np.empty_like(p.data)
            b = np.empty_like(p.data)
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.data -= a
