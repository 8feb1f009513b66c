"""Numeric substrate: named parameter sets and stacks of them, a stable
softmax, categorical sampling, a gradient-descent step, and a
finite-difference gradient oracle.

Everything operates on plain float64 numpy arrays.  A :class:`ParamSet`
holds its parameters, its gradient and its momentum velocity as flat arrays
in one layout (:func:`flat_layout`, :func:`flat_views`, which checkpoints
read through too).  The gradient has one lifecycle: allocated as zeros when
first read, zeroed in place by each step, so every view of it stays valid
for the whole run, and released (:meth:`ParamSet.zero_grads`) when a run
hands its set back; one step is one finiteness check and one array update.
A :class:`ParamStack` holds S sets of one layout as the rows of one ``(S, P)``
array, with each tensor's ``(S, ...)`` view, so one forward reads them all;
a set moved into a row (:meth:`ParamSet.move_to`) is stepped there in place.
Every analytic gradient in this package is checked against
:func:`finite_diff_grad` in the test suite, so the two routes must stay
independent: this module never imports from the modules whose gradients it
verifies.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ParamSet",
    "ParamStack",
    "softmax",
    "sample_categorical",
    "optimizer_step",
    "finite_diff_grad",
    "flat_layout",
    "flat_views",
]


def flat_layout(shapes) -> tuple[dict[str, tuple[slice, tuple[int, ...]]], int]:
    """Each name's span of a flat array holding the shapes in order, and the
    array's size."""
    layout, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        layout[name] = (slice(offset, offset + size), tuple(shape))
        offset += size
    return layout, offset


def flat_views(flat: np.ndarray, layout) -> dict[str, np.ndarray]:
    """Each name's tensor of :func:`flat_layout`'s ``layout``, a view into
    ``flat``."""
    return {name: flat[span].reshape(shape) for name, (span, shape) in layout.items()}


class _GradViews(dict):
    """Views into a flat gradient; assigning an item writes into its view."""

    def __setitem__(self, name: str, grad: np.ndarray) -> None:
        view = self[name]
        if grad is not view:  # ``grads[name] += x`` hands back the view itself
            view[...] = grad


class ParamSet:
    """Named parameter tensors plus their gradient and momentum velocity,
    three flat float64 arrays in one layout.

    Every tensor is a view into one contiguous array, ``flat``, in insertion
    order, which is also the canonical tensor order for checkpointing;
    :func:`optimizer_step` updates ``flat`` in place with one expression.
    ``grad`` is the flat gradient: ``None`` until a gradient is first read
    through ``grads``, which allocates it as zeros and maps every parameter
    name to a view of its span; each step zeroes it in place and
    :meth:`zero_grads` releases it, as a run does when it hands its set back,
    so a bundle that is not training (a frozen policy, a target snapshot, a
    clone, a finished run's result) holds no gradient memory.
    ``velocity`` is the flat momentum velocity, ``None`` until a step with
    momentum creates it.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        """Copy ``params`` (any array-likes) into one new flat array."""
        layout, size = flat_layout({name: np.shape(value) for name, value in params.items()})
        self._bind(np.empty(size), layout)
        for name, value in params.items():
            self.params[name][...] = value
        self._check_finite()

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> "ParamSet":
        """Parameters of the given shapes, in order, over ``flat``, a
        contiguous float64 vector of their total size, adopted without a
        copy."""
        layout, size = flat_layout(shapes)
        if flat.dtype != np.float64 or flat.shape != (size,) or not flat.flags.c_contiguous:
            raise ValueError(f"expected a contiguous float64 vector of {size} values, got "
                             f"{flat.dtype} {flat.shape}")
        params = cls.__new__(cls)
        params._bind(flat, layout)
        params._check_finite()
        return params

    def _bind(self, flat: np.ndarray, layout) -> None:
        self.flat, self._layout = flat, layout
        self.params: dict[str, np.ndarray] = flat_views(flat, layout)
        self.grad: np.ndarray | None = None
        self.velocity: np.ndarray | None = None
        self._grads: _GradViews | None = None

    @property
    def grads(self) -> dict[str, np.ndarray]:
        """Each parameter's gradient, a view into ``grad``, which the first
        read allocates as zeros; assigning an item writes into its view."""
        if self.grad is None:
            self.grad = np.zeros(self.flat.size)
            self._grads = _GradViews(flat_views(self.grad, self._layout))
        return self._grads

    def _check_finite(self) -> None:
        if not np.isfinite(self.flat).all():
            name = next(n for n, p in self.params.items() if not np.isfinite(p).all())
            raise ValueError(f"parameter {name!r} contains non-finite values")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def __iter__(self):
        return iter(self.params)

    def names(self) -> list[str]:
        return list(self.params)

    def num_scalars(self) -> int:
        return self.flat.size

    def zero_grads(self) -> None:
        self.grad = self._grads = None

    def move_to(self, flat: np.ndarray) -> None:
        """Copy the parameters into ``flat``, a contiguous float64 vector of
        their size (a row of a :class:`ParamStack`, or a fresh array), and
        keep them there: every tensor becomes a view into it.  The gradient
        and the velocity are left as they are."""
        if (flat.dtype != np.float64 or flat.shape != self.flat.shape
                or not flat.flags.c_contiguous):
            raise ValueError(f"expected a contiguous float64 vector of {self.flat.size} values, "
                             f"got {flat.dtype} {flat.shape}")
        flat[...] = self.flat
        self.flat, self.params = flat, flat_views(flat, self._layout)

    def copy(self) -> "ParamSet":
        """Deep copy of the parameters (one flat copy) with no gradient and
        no velocity."""
        return ParamSet.from_flat(self.flat.copy(),
                                  {name: p.shape for name, p in self.params.items()})

    def allclose(self, other: "ParamSet") -> bool:
        """True when both sets name the same tensors, in the same order, and
        each pair is bitwise equal (``np.array_equal``).  Despite the name
        there is no tolerance, so tests use it to assert that parameters
        were left untouched."""
        if self.names() != other.names():
            return False
        return all(np.array_equal(self.params[n], other.params[n]) for n in self.params)


class ParamStack:
    """S parameter sets of one layout as the rows of one ``(S, P)`` float64
    array, ``flat``, copied in at construction.

    ``stack[name]`` is that tensor of every set, an ``(S, ...)`` view into
    ``flat``.  It carries a unit batch axis, ``(S, 1, *shape)``, so it
    broadcasts against ``(S, B, ...)`` activations as one set's tensor does
    against ``(B, ...)`` ones; a tensor read by row gather (``np.take(...,
    axis=-2)``), named in ``gathered``, keeps ``(S, *shape)``, so the gathered
    rows take the batch axis.  A row is one contiguous vector, so a
    :class:`ParamSet` can live in it (:meth:`ParamSet.move_to`)."""

    def __init__(self, sets, gathered=()):
        layout = sets[0]._layout
        if any(s._layout != layout for s in sets):
            raise ValueError("stacked parameter sets must share one layout")
        self.flat = np.stack([s.flat for s in sets])
        count = len(sets)
        self.params = {name: self.flat[:, span].reshape(
                           (count, *(() if name in gathered else (1,)), *shape))
                       for name, (span, shape) in layout.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self.params[name]


def softmax(logits) -> np.ndarray:
    """Exp-normalize logits along the last axis (a vector, or any stack of
    row vectors) with max-subtraction for stability."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim == 0 or z.size == 0:
        raise ValueError("softmax expects a nonempty vector or stack of row vectors")
    # the ufunc reductions themselves: the ndarray methods (``all``, ``max``,
    # ``sum``) reach the same ones through a Python-level wrapper
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise ValueError("softmax requires finite logits")
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _check_probs(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("expected a nonempty 1-d probability vector")
    if not np.logical_and.reduce(np.isfinite(p), axis=None) or np.minimum.reduce(p) < 0.0:
        raise ValueError("invalid probability vector (negative or non-finite entries)")
    total = np.add.reduce(p)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total:.8f}, expected 1")
    return p


def sample_categorical(probs, rng: np.random.Generator) -> int:
    """Draw an index from a categorical distribution by inverse CDF.

    The CDF is summed in the given order, so a fixed rng stream yields
    a fully reproducible index sequence.
    """
    p = _check_probs(probs)
    cdf = np.cumsum(p)
    r = rng.random()
    idx = int(np.searchsorted(cdf, r, side="right"))
    return min(idx, p.size - 1)  # guard against cdf[-1] < 1 from roundoff


def _descend(params: ParamSet, lr: float, momentum: float) -> None:
    """:func:`optimizer_step`'s arithmetic: the finiteness check, then ``p
    <- p - lr * step`` on the flat parameter array, which leaves ``lr *
    step`` in the gradient buffer (no second parameter-sized array)."""
    grads = params.grads
    g = params.grad
    if not np.logical_and.reduce(np.isfinite(g)):
        name = next(n for n, view in grads.items() if not np.isfinite(view).all())
        raise ValueError(f"non-finite gradient for parameter {name!r}")
    step = g
    if momentum > 0.0:
        v = params.velocity
        params.velocity = step = (g.copy() if v is None
                                  else np.add(np.multiply(v, momentum, out=v), g, out=v))
    params.flat -= np.multiply(step, lr, out=g)


def optimizer_step(params: ParamSet, lr: float, momentum: float = 0.0) -> ParamSet:
    """Apply one gradient-descent step ``p <- p - lr * g`` to the flat
    parameter array and zero the gradient buffer in place.

    The gradient is read through ``params.grads``, so one never read since
    the last step is zero.  With ``momentum > 0`` a flat velocity ``v <-
    momentum * v + g`` (``g`` itself at the first such step) is used in place
    of the raw gradient.  One pass over the flat gradient checks that it is
    finite; if not, the step aborts before touching any parameter, naming
    the first offending parameter in parameter order.  The buffer is then
    zeroed in place (``fill(0.0)``, a fresh buffer's +0.0), keeping its views.
    """
    _descend(params, lr, momentum)
    params.grad.fill(0.0)
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
