"""Item response models for binary, ordinal, and nominal columns.

Three families, all in the logistic metric (no normal-ogive scaling
constant anywhere):

* binary two-parameter logistic: ``P(u=1 | t) = sigmoid(a * (t - b))``
* graded (cumulative-boundary) model for ordinal columns: boundary curves
  ``P*_k(t) = sigmoid(a * (t - b_k))`` with ``b_1 < ... < b_{m-1}``; the
  probability of category ``k`` is the difference ``P*_k - P*_{k+1}``
  (``P*_0 = 1``, ``P*_m = 0``)
* nominal divide-by-total model: ``P(k | t) = softmax_k(a_k * t + c_k)``
  with category 0 anchored at ``a_0 = c_0 = 0``

An item is its family's frozen instance, an :class:`ItemModel` holding
the keyword ``column``; the family owns every rule differing by family:
``family``/``kind``/``n_categories``; its ``natural`` parameters and
``with_natural``; ``log_probs``; the flat ``vector``/``with_vector``;
``bound_events`` for parameters resting on a box edge; and ``describe``.
A binary item is a graded item with one boundary, so those two share one
body for all but ``describe``, through a ``bounds`` view and
``from_bounds(a, bounds)``.  The E-step, EAP scoring, the M-step and the
imputed cells' probability vectors all read one likelihood, the kernel's
``log_probs``: an item's ``log_probs`` (and so :func:`log_category_probs`)
is a one-item call of it, the fit's log table one call per group, and
:func:`category_probs` is its exponential.  :func:`prob_2pl` is the plain
binary curve.

Each family names its ``kernel``, which owns the rules on stacked arrays
(items on the leading axes) that the fit runs on: ``log_probs(*natural,
theta)``; the M-step's coordinates, x-space, as ``to_x(*natural)`` and
``natural(x)``; ``derivatives(*natural, theta)``, the log-probabilities
(n, T, m) of ``n`` items at ``T`` points with their derivatives in theta,
(n, T, m), and in the flat parameters, (n, T, m, P); ``chain``, which
carries those to x-space; and ``clamp``, the projection onto the parameter
boxes.  An item's ``to_x``, ``from_x`` and ``grad`` are one-row calls of
its kernel too, so each rule is written once.  Binary and graded items
share the cumulative kernel, nominal items use the softmax one.

Log-probabilities are computed directly in log space (``_log_expit``, a
max-subtracted log-softmax), so they cannot overflow and tail categories
stay accurate far into the extremes.  A graded category's probability is
not the difference of two boundary curves, which loses every digit once
both curves round to 1.

The logistic functions are numpy ufunc chains: ``_log_expit`` is
``-logaddexp(0, -x)``, the same bits as ``scipy.special.log_expit``, and
``_expit`` is ``1 / (1 + exp(-x))``, within a few ulps of
``scipy.special.expit``.  No probability needs scipy, so a command that
only applies a saved model (``impute --model``) runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import ClassVar, get_args, get_origin, get_type_hints

import numpy as np

from .errors import CodeOutOfRange, DataError

__all__ = [
    "Binary2PL",
    "GradedItem",
    "NominalItem",
    "ItemModel",
    "PatternScore",
    "prob_2pl",
    "category_probs",
    "log_category_probs",
    "pattern_loglik",
    "pattern_score",
]

# Parameter boxes the M-step projects every iterate into.
SLOPE_BOUNDS = (1e-3, 50.0)
LOCATION_BOUND = 50.0
_GAP_MIN = 1e-6

# Every routine that views an item as a flat vector uses the same layout:
#   2pl:  [a, b]
#   grm:  [a, b_1, ..., b_{m-1}]
#   nrm:  [a_1, ..., a_{m-1}, c_1, ..., c_{m-1}]   (anchored zeros excluded)
#
# The M-step's unconstrained coordinates ("x-space"):
#   2pl:  [log a, b]
#   grm:  [log a, b_1, log(b_2 - b_1), ..., log(b_{m-1} - b_{m-2})]
#   nrm:  [a_1..a_{m-1}, c_1..c_{m-1}]
# Slope positivity and boundary ordering hold by construction; the parameter
# boxes are enforced by projecting each iterate.


def _check_finite(name: str, values) -> None:
    if not np.all(np.isfinite(values)):
        raise DataError(f"{name} must be finite")


def _separate(bs: np.ndarray, gap: float) -> np.ndarray:
    """Raise each sorted boundary, in place, to ``gap`` above the one below."""
    for j in range(1, bs.shape[-1]):
        bs[..., j] = np.maximum(bs[..., j], bs[..., j - 1] + gap)
    return bs


# A parameter clipped to a box edge in x-space comes back through exp (and,
# for graded boundaries, a cumsum of gaps) a few ulps off the edge, on
# either side: exp(log(50.0)) is 49.99999999999999.  Within this relative
# tolerance a value counts as pressed against the edge.
_EDGE_RTOL = 64 * np.finfo(np.float64).eps


def _bound_events(column: str, slope: float | None, locations) -> list[str]:
    events = []
    if slope is not None and (
            slope <= SLOPE_BOUNDS[0] * (1.0 + _EDGE_RTOL)
            or slope >= SLOPE_BOUNDS[1] * (1.0 - _EDGE_RTOL)):
        events.append(f"{column}: slope clamped at {slope:g}")
    if any(abs(v) >= LOCATION_BOUND * (1.0 - _EDGE_RTOL) for v in locations):
        events.append(f"{column}: location clamped at magnitude "
                      f"{LOCATION_BOUND:g}")
    return events


def _log_expit(x):
    """``log(sigmoid(x))``, accurate for large ``|x|`` of either sign."""
    return -np.logaddexp(0.0, -x)


def _expit(x):
    """``sigmoid(x)``; 0 where ``exp(-x)`` overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _cumulative_log_probs(z: np.ndarray) -> np.ndarray:
    """Log category probabilities from boundary logits ``z`` (..., m - 1)."""
    m = z.shape[-1] + 1
    out = np.empty(z.shape[:-1] + (m,))
    out[..., 0] = _log_expit(-z[..., 0])
    out[..., m - 1] = _log_expit(z[..., m - 2])
    if m > 2:
        # log(sigmoid(x) - sigmoid(y)) for x > y, rearranged so each
        # factor is evaluated in log space:
        #   sigmoid(x) - sigmoid(y) = sigmoid(x) sigmoid(-y) (1 - e^(y-x))
        x = z[..., :-1]
        y = z[..., 1:]
        with np.errstate(divide="ignore"):
            out[..., 1:-1] = (
                _log_expit(x) + _log_expit(-y) + np.log1p(-np.exp(y - x))
            )
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, computed in place.

    After the row maximum is subtracted the normalizer is log(1 + rest),
    which logaddexp keeps exact even when rest is far below machine
    epsilon, so the dominant category's value does not round to 0.
    """
    logits -= logits.max(axis=-1, keepdims=True)
    logits -= np.logaddexp.reduce(logits, axis=-1, keepdims=True)
    return logits


class _Cumulative:
    """Binary and graded items: boundary curves ``sigmoid(a (t - b_j))``.

    A binary item is a graded item with one boundary: the same x-space
    ``[log a, b_1, log(b_2 - b_1), ...]``, box and log-probabilities.
    """

    @staticmethod
    def boundaries(X: np.ndarray) -> np.ndarray:
        gaps = np.cumsum(np.exp(X[..., 2:]), axis=-1)
        zero = np.zeros(X.shape[:-1] + (1,))
        return X[..., 1:2] + np.concatenate([zero, gaps], axis=-1)

    @classmethod
    def natural(cls, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.exp(X[..., 0]), cls.boundaries(X)

    @staticmethod
    def to_x(a: np.ndarray, bs: np.ndarray) -> np.ndarray:
        return np.concatenate([np.log(a[..., None]), bs[..., :1],
                               np.log(np.diff(bs, axis=-1))], axis=-1)

    @staticmethod
    def log_probs(a: np.ndarray, bs: np.ndarray, theta: np.ndarray
                  ) -> np.ndarray:
        return _cumulative_log_probs(a * (theta[..., None] - bs))

    @staticmethod
    def derivatives(a: np.ndarray, bs: np.ndarray, theta: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = theta[None, :, None] - bs[:, None, :]
        a = a[:, None, None]
        z = a * t
        log_pi = _cumulative_log_probs(z)
        pi = np.exp(log_pi)
        # 0 where a probability underflowed to 0
        inv_pi = np.where(pi > 0, 1.0 / np.maximum(pi, 1e-300), 0.0)
        m = log_pi.shape[-1]
        # density of each boundary curve, with flat virtual boundaries at
        # the ends (s_0 = s_m = 0)
        s = np.zeros(z.shape[:-1] + (m + 1,))
        s[..., 1:-1] = _expit(z) * _expit(-z)
        ts = np.zeros_like(s)
        ts[..., 1:-1] = t * s[..., 1:-1]
        d_theta = a * (s[..., :-1] - s[..., 1:]) * inv_pi
        d_params = np.zeros(z.shape[:-1] + (m, m))
        d_params[..., 0] = (ts[..., :-1] - ts[..., 1:]) * inv_pi
        ks = np.arange(1, m)
        # d pi_k / d b_j is nonzero only for j = k (-a s_j) and j = k+1 (+a s_j)
        d_params[..., ks, ks] = -a * s[..., 1:-1] * inv_pi[..., 1:]
        d_params[..., ks - 1, ks] = a * s[..., 1:-1] * inv_pi[..., :-1]
        return log_pi, d_theta, d_params

    @staticmethod
    def chain(X: np.ndarray, G: np.ndarray) -> np.ndarray:
        # every boundary moves with b_1; boundary j moves with gap k <= j
        suffix = np.cumsum(G[..., :0:-1], axis=-1)[..., ::-1]
        out = np.empty(np.broadcast_shapes(X.shape, G.shape))
        out[..., 0] = np.exp(X[..., 0]) * G[..., 0]
        out[..., 1] = suffix[..., 0]
        out[..., 2:] = np.exp(X[..., 2:]) * suffix[..., 1:]
        return out

    @classmethod
    def clamp(cls, X: np.ndarray) -> np.ndarray:
        X = np.array(X, dtype=np.float64)
        X[..., 0] = np.clip(X[..., 0], np.log(SLOPE_BOUNDS[0]),
                            np.log(SLOPE_BOUNDS[1]))
        # a long step can overflow exp, and the clip puts those boundaries
        # on the box edge; clipping can collapse neighbors, so restore a
        # strict minimal gap
        with np.errstate(over="ignore"):
            bs = _separate(np.clip(cls.boundaries(X), -LOCATION_BOUND,
                                   LOCATION_BOUND), _GAP_MIN)
        X[..., 1] = bs[..., 0]
        X[..., 2:] = np.log(np.diff(bs, axis=-1))
        return X


class _Softmax:
    """Nominal items: ``softmax_k(a_k t + c_k)``, category 0 anchored.

    The parameters are unconstrained: x-space is the flat vector.
    """

    @staticmethod
    def natural(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        half = X.shape[-1] // 2
        zero = np.zeros(X.shape[:-1] + (1,))
        return (np.concatenate([zero, X[..., :half]], axis=-1),
                np.concatenate([zero, X[..., half:]], axis=-1))

    @staticmethod
    def to_x(slopes: np.ndarray, intercepts: np.ndarray) -> np.ndarray:
        return np.concatenate([slopes[..., 1:], intercepts[..., 1:]], axis=-1)

    @staticmethod
    def log_probs(slopes: np.ndarray, intercepts: np.ndarray,
                  theta: np.ndarray) -> np.ndarray:
        return _log_softmax(theta[..., None] * slopes + intercepts)

    @classmethod
    def derivatives(cls, slopes: np.ndarray, intercepts: np.ndarray,
                    theta: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        slopes = slopes[:, None, :]
        log_pi = cls.log_probs(slopes, intercepts[:, None, :], theta)
        pi = np.exp(log_pi)
        d_theta = slopes - (pi * slopes).sum(axis=-1, keepdims=True)
        m = log_pi.shape[-1]
        delta = np.eye(m)[:, 1:] - pi[..., None, 1:]
        d_params = np.concatenate([theta[None, :, None, None] * delta, delta],
                                  axis=-1)
        return log_pi, d_theta, d_params

    @staticmethod
    def chain(X: np.ndarray, G: np.ndarray) -> np.ndarray:
        return G

    @staticmethod
    def clamp(X: np.ndarray) -> np.ndarray:
        return np.clip(np.array(X, dtype=np.float64),
                       -LOCATION_BOUND, LOCATION_BOUND)


def _as_json(value):
    """``value`` in model-file form: a dataclass as a dict of its fields,
    plus ``family`` for an item, and a tuple as a list."""
    if is_dataclass(value):
        entry = {f.name: _as_json(getattr(value, f.name))
                 for f in fields(value)}
        if isinstance(value, ItemModel):
            entry["family"] = value.family
        return entry
    if isinstance(value, tuple):
        return [_as_json(v) for v in value]
    return value


def _from_json(hint, value, name: str = "value"):
    """``value`` read back from model-file form as the type ``hint``: a
    float takes an int or a float, a tuple a list, any other type only
    itself, and a dataclass field left out takes its default.  An item is
    read as the class its ``family`` key names."""
    if hint is ItemModel:
        family = value["family"]
        if family not in _CLASS_BY_FAMILY:
            raise DataError(f"unknown item family {family!r}")
        hint = _CLASS_BY_FAMILY[family]
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        return hint(**{f.name: _from_json(hints[f.name], value[f.name], f.name)
                       for f in fields(hint)
                       if f.name in value or f.default is MISSING})
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise DataError(f"{name}: expected a list, got {value!r}")
        return tuple(_from_json(get_args(hint)[0], v, name) for v in value)
    if (not isinstance(value, (int, float) if hint is float else hint)
            or isinstance(value, bool) and hint is not bool):
        raise DataError(f"{name}: expected {hint.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class ItemModel:
    """One column's item: the base of the families, with the rules they
    share.  The family's parameters come first, the ``column`` is a
    keyword."""

    column: str = field(default="", kw_only=True)

    # one-row calls of the family's kernel, so that each rule is written once
    def grad(self, theta) -> tuple[np.ndarray, np.ndarray]:
        theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
        _, d_theta, d_params = self.kernel.derivatives(
            *(np.asarray(v, dtype=np.float64)[None] for v in self.natural),
            theta)
        return d_theta[0], d_params[0]

    def to_x(self) -> np.ndarray:
        return self.kernel.to_x(*(np.asarray(v, dtype=np.float64)
                                  for v in self.natural))

    def from_x(self, x: np.ndarray):
        return self.with_natural(*self.kernel.natural(np.asarray(x)))


class _CumulativeFamily(ItemModel):
    """Rules of the binary and graded families, read through ``a`` and the
    ``bounds`` view: a binary item is a graded item with one boundary."""

    kernel = _Cumulative
    label: ClassVar[str]  # names the family in error messages

    def __post_init__(self) -> None:
        _check_finite(f"{self.label} parameters", (self.a, *self.bounds))
        if self.a <= 0:
            raise DataError(
                f"{self.label} slope must be positive, got {self.a}")
        if len(self.bounds) < 1:
            raise DataError(f"{self.label} item needs at least one boundary")
        if np.any(np.diff(self.bounds) <= 0):
            raise DataError(
                f"boundaries must be strictly increasing, got {self.bounds}")

    @property
    def n_categories(self) -> int:
        return len(self.bounds) + 1

    def log_probs(self, theta) -> np.ndarray:
        return self.kernel.log_probs(self.a, np.asarray(self.bounds),
                                     np.asarray(theta, dtype=np.float64))

    @property
    def natural(self) -> tuple:
        return self.a, self.bounds

    def with_natural(self, a, bounds):
        return self.from_bounds(float(a), bounds, self.column)

    def vector(self) -> np.ndarray:
        return np.array([self.a, *self.bounds])

    def with_vector(self, vector: np.ndarray):
        return self.from_bounds(float(vector[0]), vector[1:], self.column)

    def bound_events(self) -> list[str]:
        return _bound_events(self.column, self.a, self.bounds)


@dataclass(frozen=True)
class Binary2PL(_CumulativeFamily):
    """Slope ``a > 0`` and location ``b`` of a binary item."""

    a: float
    b: float

    family = "2pl"
    kind = "binary"
    label = "2PL"

    @property
    def bounds(self) -> tuple[float]:
        return (self.b,)

    @classmethod
    def from_bounds(cls, a: float, bounds, column: str = "") -> Binary2PL:
        (b,) = bounds
        return cls(a, float(b), column=column)

    def describe(self) -> str:
        return f"a={self.a:.6f} b={self.b:.6f}"


@dataclass(frozen=True)
class GradedItem(_CumulativeFamily):
    """Slope ``a > 0`` and strictly increasing boundary locations.

    ``m - 1`` boundaries define ``m`` ordered categories.
    """

    a: float
    boundaries: tuple[float, ...]

    family = "grm"
    kind = "ordinal"
    label = "graded"

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundaries",
                           tuple(float(b) for b in self.boundaries))
        super().__post_init__()

    @property
    def bounds(self) -> tuple[float, ...]:
        return self.boundaries

    @classmethod
    def from_bounds(cls, a: float, bounds, column: str = "") -> GradedItem:
        return cls(a, tuple(bounds), column=column)

    def describe(self) -> str:
        bs = " ".join(f"{b:.6f}" for b in self.boundaries)
        return f"a={self.a:.6f} b=[{bs}]"


@dataclass(frozen=True)
class NominalItem(ItemModel):
    """Per-category slopes and intercepts, category 0 anchored at zero."""

    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]

    family = "nrm"
    kind = "nominal"
    kernel = _Softmax

    def __post_init__(self) -> None:
        object.__setattr__(self, "slopes", tuple(float(v) for v in self.slopes))
        object.__setattr__(
            self, "intercepts", tuple(float(v) for v in self.intercepts)
        )
        _check_finite("nominal parameters", (*self.slopes, *self.intercepts))
        if len(self.slopes) != len(self.intercepts):
            raise DataError("slopes and intercepts must have equal length")
        if len(self.slopes) < 2:
            raise DataError("nominal item needs at least two categories")
        if self.slopes[0] != 0.0 or self.intercepts[0] != 0.0:
            raise DataError("category 0 must be anchored at slope 0, intercept 0")

    @property
    def n_categories(self) -> int:
        return len(self.slopes)

    def log_probs(self, theta) -> np.ndarray:
        return self.kernel.log_probs(np.asarray(self.slopes),
                                     np.asarray(self.intercepts),
                                     np.asarray(theta, dtype=np.float64))

    @property
    def natural(self) -> tuple:
        return self.slopes, self.intercepts

    def with_natural(self, slopes, intercepts) -> NominalItem:
        return NominalItem(slopes, intercepts, column=self.column)

    def vector(self) -> np.ndarray:
        return np.array([*self.slopes[1:], *self.intercepts[1:]])

    # nominal parameters are unconstrained: x-space is the flat vector
    def with_vector(self, vector: np.ndarray) -> NominalItem:
        return NominalItem(*self.kernel.natural(np.asarray(vector)),
                           column=self.column)

    def bound_events(self) -> list[str]:
        return _bound_events(self.column, None, self.vector())

    def describe(self) -> str:
        sl = " ".join(f"{v:.6f}" for v in self.slopes)
        ic = " ".join(f"{v:.6f}" for v in self.intercepts)
        return f"a=[{sl}] c=[{ic}]"


_CLASS_BY_FAMILY = {cls.family: cls for cls in (Binary2PL, GradedItem,
                                                NominalItem)}


# ---------------------------------------------------------------------------
# Probability functions
# ---------------------------------------------------------------------------

def prob_2pl(theta, a: float, b: float):
    """P(u = 1 | theta) for a binary two-parameter logistic item."""
    theta = np.asarray(theta, dtype=np.float64)
    out = _expit(a * (theta - b))
    return float(out) if out.ndim == 0 else out


def category_probs(theta, item: ItemModel):
    """Probability of every category at ``theta``; shape ``(..., m)``.

    The exponential of :func:`log_category_probs`, the values the fit uses.
    """
    return np.exp(item.log_probs(theta))


def log_category_probs(theta, item: ItemModel):
    """``log`` of :func:`category_probs`, evaluated directly in log space.

    A category whose probability underflows to zero yields ``-inf`` rather
    than a spurious finite value.
    """
    return item.log_probs(theta)


# ---------------------------------------------------------------------------
# Pattern likelihood and analytic score
# ---------------------------------------------------------------------------

def _check_code(code, item: ItemModel) -> int:
    """``code`` as an int: -1 (missing) or one of ``item``'s categories.

    A non-integral or non-finite code is out of range too, the rule
    :class:`~irtimpute.data.CategoricalDataset` applies to its cells.
    """
    value = float(code)
    if not (value.is_integer() and -1 <= value < item.n_categories):
        raise CodeOutOfRange(
            f"code {code} out of range for column {item.column!r} with "
            f"{item.n_categories} categories"
        )
    return int(value)


def pattern_loglik(pattern, items: tuple[ItemModel, ...], theta: float) -> float:
    """Log-likelihood of one response pattern at a fixed trait value.

    ``pattern`` is a code vector aligned with ``items``; missing cells
    (code -1) contribute nothing — they are marginalized out.
    """
    total = 0.0
    for code, item in zip(pattern, items, strict=True):
        code = _check_code(code, item)
        if code == -1:
            continue
        total += float(item.log_probs(theta)[code])
    return total


def grad_log_probs(
    item: ItemModel, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of the log category probabilities at each theta.

    Returns ``(d_theta, d_params)`` with shapes ``(T, m)`` and ``(T, m, P)``
    where ``P`` is the free-parameter count: the gradient of
    ``log P(category k | theta_t)`` with respect to theta and to the item's
    parameter vector (layout of the family's ``vector``).
    """
    return item.grad(theta)


@dataclass(frozen=True)
class PatternScore:
    """Analytic gradient of a pattern's log-likelihood.

    ``theta`` is the derivative with respect to the trait; ``items`` holds
    one gradient vector per item (parameter layout of the family's
    ``vector``), zero for items with a missing response.
    """

    theta: float
    items: tuple[np.ndarray, ...]


def pattern_score(
    pattern, items: tuple[ItemModel, ...], theta: float
) -> PatternScore:
    """Gradient of :func:`pattern_loglik` in theta and all item parameters."""
    theta_arr = np.array([float(theta)])
    total_dtheta = 0.0
    grads: list[np.ndarray] = []
    for code, item in zip(pattern, items, strict=True):
        code = _check_code(code, item)
        if code == -1:
            grads.append(np.zeros_like(item.vector()))
            continue
        d_theta, d_params = grad_log_probs(item, theta_arr)
        total_dtheta += float(d_theta[0, code])
        grads.append(d_params[0, code].copy())
    return PatternScore(total_dtheta, tuple(grads))

