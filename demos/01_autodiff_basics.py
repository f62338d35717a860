"""A tour of the tape-based autodiff core: build a tiny computation,
run reverse mode, and confirm the gradients against finite differences."""

import numpy as np

from cogtrans import tensor as T

rng = np.random.default_rng(0)

# Leaves hold float64 data; requires_grad marks them as trainable.
w = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
x = T.Tensor(rng.normal(size=(4, 3)))


def mean_square(a):
    """The mean of a's squared entries: a taped sum times a constant."""
    return T.tsum(a * a) * (1.0 / a.data.size)


# Operations recorded inside a Graph can be replayed backwards.
with T.Graph() as g:
    loss = mean_square(T.tanh(x @ w))
    T.backward(g, loss)

print("loss:", loss.item())
print("dloss/dw:\n", w.grad)

# The built-in checker perturbs every entry of every parameter and
# compares central differences to the analytic gradients.
err = T.finite_diff_check(lambda: mean_square(T.tanh(x @ w)), {"w": w})
print(f"max relative gradient error: {err:.2e}")
