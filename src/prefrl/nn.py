"""Numeric substrate: named parameter sets, a stable softmax, categorical
sampling, a gradient-descent step, and a finite-difference gradient oracle.

Everything operates on plain float64 numpy arrays.  Every analytic gradient
in this package is checked against :func:`finite_diff_grad` in the test
suite, so the two routes must stay independent: this module never imports
from the modules whose gradients it verifies.
"""
from __future__ import annotations

from collections.abc import Mapping

import numpy as np

__all__ = [
    "ParamSet",
    "softmax",
    "sample_categorical",
    "optimizer_step",
    "finite_diff_grad",
]


class _Grads(Mapping):
    """Gradient accumulators keyed by parameter name.

    Every parameter name is a key, as with eager buffers, but a name's zero
    array is allocated only when it is first read, and :meth:`clear` releases
    them all.  :meth:`accumulated` holds just the allocated ones.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        self._params = params
        self._arrays: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        grad = self._arrays.get(name)
        if grad is None:
            grad = self._arrays[name] = np.zeros(self._params[name].shape)
        return grad

    def __setitem__(self, name: str, grad: np.ndarray) -> None:
        if name not in self._params:
            raise KeyError(name)
        self._arrays[name] = grad

    def __contains__(self, name) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def accumulated(self) -> dict[str, np.ndarray]:
        return self._arrays

    def clear(self) -> None:
        self._arrays.clear()


class ParamSet:
    """Named parameter tensors plus matching gradient accumulators.

    Parameters are stored float64 and mutated in place by
    :func:`optimizer_step`.  Every parameter has a gradient array of its
    shape in ``grads``; each is allocated as zeros on first access and
    :meth:`zero_grads` releases them, so a bundle that is not training (a
    frozen policy, a target snapshot, a finished run's result) holds no
    gradient memory.
    Insertion order is preserved and is the canonical tensor order for
    checkpointing.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        self.params: dict[str, np.ndarray] = {}
        self.grads = _Grads(self.params)
        for name, value in params.items():
            arr = np.array(value, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"parameter {name!r} contains non-finite values")
            self.params[name] = arr
        # velocity buffers, created lazily when momentum is used
        self._velocity: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def __iter__(self):
        return iter(self.params)

    def names(self) -> list[str]:
        return list(self.params)

    def num_scalars(self) -> int:
        return sum(p.size for p in self.params.values())

    def zero_grads(self) -> None:
        self.grads.clear()

    def copy(self) -> "ParamSet":
        """Deep copy of the parameters with fresh zero gradients."""
        return ParamSet({name: p.copy() for name, p in self.params.items()})

    def allclose(self, other: "ParamSet") -> bool:
        """True when both sets name the same tensors, in the same order, and
        each pair is bitwise equal (``np.array_equal``).  Despite the name
        there is no tolerance, so tests use it to assert that parameters
        were left untouched."""
        if self.names() != other.names():
            return False
        return all(np.array_equal(self.params[n], other.params[n]) for n in self.params)


def softmax(logits) -> np.ndarray:
    """Exp-normalize logits along the last axis (a vector, or a batch of row
    vectors) with max-subtraction for stability."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim not in (1, 2) or z.size == 0:
        raise ValueError("softmax expects a nonempty vector or batch of row vectors")
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax requires finite logits")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _check_probs(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("expected a nonempty 1-d probability vector")
    if not np.all(np.isfinite(p)) or p.min() < 0.0:
        raise ValueError("invalid probability vector (negative or non-finite entries)")
    if abs(p.sum() - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {p.sum():.8f}, expected 1")
    return p


def sample_categorical(probs, rng: np.random.Generator) -> int:
    """Draw an index from a categorical distribution by inverse CDF.

    The CDF is accumulated over the given order, so a fixed rng stream yields
    a fully reproducible index sequence.
    """
    p = _check_probs(probs)
    cdf = np.cumsum(p)
    r = rng.random()
    idx = int(np.searchsorted(cdf, r, side="right"))
    return min(idx, p.size - 1)  # guard against cdf[-1] < 1 from roundoff


def optimizer_step(params: ParamSet, lr: float, momentum: float = 0.0) -> ParamSet:
    """Apply one gradient-descent step ``p <- p - lr * g`` and zero the grads.

    With ``momentum > 0`` a velocity buffer ``v <- momentum * v + g`` is used
    in place of the raw gradient.  Aborts (before touching any parameter) if
    any gradient is non-finite, naming the offending parameter.
    """
    grads = params.grads.accumulated()
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient for parameter {name!r}")
    for name, p in params.params.items():
        g = grads.get(name)  # None: never read since the last step, so zero
        if momentum > 0.0:
            v = params._velocity.get(name)
            if g is None:
                if v is None:
                    continue
                v = momentum * v
            else:
                v = g.copy() if v is None else momentum * v + g
            params._velocity[name] = v
            p -= lr * v
        elif g is not None:
            p -= lr * g
    params.zero_grads()
    return params


def finite_diff_grad(loss_fn, params: ParamSet, eps: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient of a scalar ``loss_fn(params)``.

    Perturbs every scalar parameter by +/- eps in place (restoring it
    afterwards), so ``loss_fn`` must be deterministic and must read the
    parameters it is handed rather than a captured copy.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    out: dict[str, np.ndarray] = {}
    for name, p in params.params.items():
        grad = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = grad.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            hi = float(loss_fn(params))
            flat_p[i] = orig - eps
            lo = float(loss_fn(params))
            flat_p[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError(f"loss_fn returned non-finite value near parameter {name!r}")
            flat_g[i] = (hi - lo) / (2.0 * eps)
        out[name] = grad
    return out
