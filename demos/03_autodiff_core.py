"""The reverse-mode tensor core every model component is built on.

Run:  python3 demos/03_autodiff_core.py
"""

import numpy as np

import dgsum.numeric as nm
from dgsum.numeric import Tensor

# Tensors record the ops that produced them; backward() on a scalar replays
# the tape in reverse and accumulates gradients.
rng = np.random.default_rng(0)
W = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

loss = nm.mean(nm.power(nm.matmul(W, x), 2.0))
loss.backward()
print("loss:", loss.item())
print("dL/dW row 0:", np.round(W.grad[0], 4))

# A value reached along two paths accumulates both contributions:
a = Tensor(3.0, requires_grad=True)
double = nm.add(a, a)
double.backward()
print("d(a+a)/da =", a.grad, "(two paths accumulate)")

# The finite-difference checker compares every recorded gradient against
# central differences; this is how the whole model is verified.
W.zero_grad()
x.zero_grad()
err = nm.grad_check(lambda: nm.mean(nm.power(nm.matmul(W, x), 2.0)),
                    {"W": W, "x": x})
print(f"max relative error vs central differences: {err:.2e}")

# Softmax rows always sum to one, masked positions are exactly zero:
logits = Tensor(rng.normal(size=(2, 5)))
mask = np.array([[False, False, True, True, False],
                 [False, False, False, False, False]])
masked = nm.masked_fill(logits, mask, nm.MASK_FILL)
probs = nm.softmax(masked)
print("row sums:", probs.data.sum(axis=1), "| masked entries:", probs.data[0, 2:4])

# Label-smoothed cross entropy: with uniform logits the loss is ln(V)
# no matter the targets.
uniform = Tensor(np.zeros((3, 7)))
targets = np.array([0, 3, 6])
ce = nm.cross_entropy_smoothed(uniform, targets, smoothing=0.1)
print(f"uniform-logit CE: {ce.item():.6f}  (ln 7 = {np.log(7):.6f})")
