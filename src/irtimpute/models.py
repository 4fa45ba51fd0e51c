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

Each family is one frozen parameter class that owns every rule differing
by family: ``family``/``kind``/``n_categories``; ``log_probs`` and their
analytic derivatives ``grad``; the flat ``vector``/``with_vector``; the
M-step's unconstrained coordinates ``to_x``/``from_x``; ``bound_events``
for parameters resting on a box edge; and ``describe``.  A binary item is a
graded item with one boundary, so those two share one body for all but
``describe``, through a ``bounds`` view and ``from_bounds(a, bounds)``.
The families share ``probs``, the exponential of ``log_probs``: the E-step,
EAP scoring, the M-step and the imputed cells' probability vectors all read
one likelihood.  :func:`category_probs` and :func:`log_category_probs` are
one-line calls to these methods; :func:`prob_2pl` is the plain binary curve.

Each family also names its ``kernel``, the M-step's rules on stacked arrays
(items on the leading axes, x-space coordinates on the last): ``natural``
parameters; ``derivatives(*natural, theta)``, the log-probabilities
(n, T, m) of ``n`` items at ``T`` points with their derivatives in theta,
(n, T, m), and in the flat parameters, (n, T, m, P); ``chain``, which
carries those to x-space; and ``clamp``, the projection onto the parameter
boxes.  Binary and graded items share the cumulative kernel, nominal items
use the softmax one.

Log-probabilities are computed directly in log space (``log_expit``, a
max-subtracted log-softmax), so they cannot overflow and tail categories
stay accurate far into the extremes.  A graded category's probability is
not the difference of two boundary curves, which loses every digit once
both curves round to 1.

``scipy.special`` is imported inside the functions that call it, here and
in :mod:`irtimpute.estimation` and :mod:`irtimpute.missingness`, so a
command that computes no probability (``evaluate``) never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

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


def _cumulative_log_probs(z: np.ndarray) -> np.ndarray:
    """Log category probabilities from boundary logits ``z`` (..., m - 1)."""
    from scipy.special import log_expit
    m = z.shape[-1] + 1
    out = np.empty(z.shape[:-1] + (m,))
    out[..., 0] = log_expit(-z[..., 0])
    out[..., m - 1] = log_expit(z[..., m - 2])
    if m > 2:
        # log(sigmoid(x) - sigmoid(y)) for x > y, rearranged so each
        # factor is evaluated in log space:
        #   sigmoid(x) - sigmoid(y) = sigmoid(x) sigmoid(-y) (1 - e^(y-x))
        x = z[..., :-1]
        y = z[..., 1:]
        with np.errstate(divide="ignore"):
            out[..., 1:-1] = (
                log_expit(x) + log_expit(-y) + np.log1p(-np.exp(y - x))
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
    def derivatives(a: np.ndarray, bs: np.ndarray, theta: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        from scipy.special import expit
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
        s[..., 1:-1] = expit(z) * expit(-z)
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
        bs = np.clip(cls.boundaries(X), -LOCATION_BOUND, LOCATION_BOUND)
        # clipping can collapse neighbors; restore a strict minimal gap
        for j in range(1, bs.shape[-1]):
            bs[..., j] = np.maximum(bs[..., j], bs[..., j - 1] + _GAP_MIN)
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
    def derivatives(slopes: np.ndarray, intercepts: np.ndarray,
                    theta: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        slopes = slopes[:, None, :]
        log_pi = _log_softmax(theta[None, :, None] * slopes
                              + intercepts[:, None, :])
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


def _grad(kernel, natural: tuple, theta
          ) -> tuple[np.ndarray, np.ndarray]:
    """One item's ``grad``: a one-row call of its kernel's derivatives."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    _, d_theta, d_params = kernel.derivatives(
        *(np.asarray(v, dtype=np.float64)[None] for v in natural), theta)
    return d_theta[0], d_params[0]


def _as_json(value):
    """``value`` in model-file form: an item by its ``to_dict``, any other
    dataclass as a dict of its fields, a tuple as a list."""
    if isinstance(value, ItemModel):
        return value.to_dict()
    if is_dataclass(value):
        return {f.name: _as_json(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, tuple):
        return [_as_json(v) for v in value]
    return value


class _Family:
    """Rules every family shares: probabilities from ``log_probs`` and the
    model-file form."""

    def probs(self, theta) -> np.ndarray:
        """Category probabilities at ``theta``; shape ``(..., m)``."""
        return np.exp(self.log_probs(theta))

    def to_dict(self) -> dict:
        return _as_json(self)

    @classmethod
    def from_dict(cls, entry: dict):
        return cls(*(entry[f.name] for f in fields(cls)))


class _CumulativeFamily(_Family):
    """Rules of the binary and graded families, read through ``a`` and the
    ``bounds`` view: a binary item is a graded item with one boundary."""

    kernel = _Cumulative

    @property
    def n_categories(self) -> int:
        return len(self.bounds) + 1

    def log_probs(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        bs = np.asarray(self.bounds)
        return _cumulative_log_probs(self.a * (theta[..., None] - bs))

    def grad(self, theta) -> tuple[np.ndarray, np.ndarray]:
        return _grad(self.kernel, (self.a, self.bounds), theta)

    def vector(self) -> np.ndarray:
        return np.array([self.a, *self.bounds])

    def with_vector(self, vector: np.ndarray):
        return self.from_bounds(float(vector[0]), vector[1:])

    def to_x(self) -> np.ndarray:
        bs = np.asarray(self.bounds)
        return np.concatenate([[np.log(self.a), bs[0]], np.log(np.diff(bs))])

    def from_x(self, x: np.ndarray):
        return self.from_bounds(float(np.exp(x[0])), self.kernel.boundaries(x))

    def bound_events(self, column: str) -> list[str]:
        return _bound_events(column, self.a, self.bounds)


@dataclass(frozen=True)
class Binary2PL(_CumulativeFamily):
    """Slope ``a > 0`` and location ``b`` of a binary item."""

    a: float
    b: float

    family = "2pl"
    kind = "binary"

    def __post_init__(self) -> None:
        _check_finite("2PL parameters", [self.a, self.b])
        if self.a <= 0:
            raise DataError(f"2PL slope must be positive, got {self.a}")

    @property
    def bounds(self) -> tuple[float]:
        return (self.b,)

    @classmethod
    def from_bounds(cls, a: float, bounds) -> Binary2PL:
        (b,) = bounds
        return cls(a, float(b))

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

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "boundaries", tuple(float(b) for b in self.boundaries)
        )
        _check_finite("graded parameters", (self.a, *self.boundaries))
        if self.a <= 0:
            raise DataError(f"graded slope must be positive, got {self.a}")
        if len(self.boundaries) < 1:
            raise DataError("graded item needs at least one boundary")
        if np.any(np.diff(self.boundaries) <= 0):
            raise DataError(
                f"boundaries must be strictly increasing, got "
                f"{self.boundaries}"
            )

    @property
    def bounds(self) -> tuple[float, ...]:
        return self.boundaries

    @classmethod
    def from_bounds(cls, a: float, bounds) -> GradedItem:
        return cls(a, tuple(bounds))

    def describe(self) -> str:
        bs = " ".join(f"{b:.6f}" for b in self.boundaries)
        return f"a={self.a:.6f} b=[{bs}]"


@dataclass(frozen=True)
class NominalItem(_Family):
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
        theta = np.asarray(theta, dtype=np.float64)
        return _log_softmax(theta[..., None] * np.asarray(self.slopes)
                            + np.asarray(self.intercepts))

    def grad(self, theta) -> tuple[np.ndarray, np.ndarray]:
        return _grad(self.kernel, (self.slopes, self.intercepts), theta)

    def vector(self) -> np.ndarray:
        return np.array([*self.slopes[1:], *self.intercepts[1:]])

    def with_vector(self, vector: np.ndarray) -> NominalItem:
        m = len(self.slopes)
        return NominalItem((0.0, *vector[: m - 1]), (0.0, *vector[m - 1:]))

    # nominal parameters are unconstrained: x-space is the flat vector
    to_x = vector
    from_x = with_vector

    def bound_events(self, column: str) -> list[str]:
        return _bound_events(column, None, self.vector())

    def describe(self) -> str:
        sl = " ".join(f"{v:.6f}" for v in self.slopes)
        ic = " ".join(f"{v:.6f}" for v in self.intercepts)
        return f"a=[{sl}] c=[{ic}]"


ItemParams = Binary2PL | GradedItem | NominalItem

_CLASS_BY_FAMILY = {cls.family: cls for cls in (Binary2PL, GradedItem,
                                                NominalItem)}


@dataclass(frozen=True)
class ItemModel:
    """A fitted (or hand-set) item: a column name plus family parameters."""

    column: str
    params: ItemParams

    @property
    def family(self) -> str:
        return self.params.family

    @property
    def n_categories(self) -> int:
        return self.params.n_categories

    def to_dict(self) -> dict:
        """Model-file entry: column and family keys plus the parameters."""
        return {"column": self.column, "family": self.family,
                **self.params.to_dict()}

    @classmethod
    def from_dict(cls, entry: dict) -> ItemModel:
        try:
            family, column = entry["family"], entry["column"]
            if not isinstance(column, str):
                raise DataError(f"item column {column!r} is not a string")
            if family not in _CLASS_BY_FAMILY:
                raise DataError(f"unknown item family {family!r}")
            params = _CLASS_BY_FAMILY[family].from_dict(entry)
        except KeyError as exc:
            raise DataError(f"item entry missing key {exc}") from None
        return cls(column, params)


def _params(item: ItemModel | ItemParams) -> ItemParams:
    return item.params if isinstance(item, ItemModel) else item


# ---------------------------------------------------------------------------
# Probability functions
# ---------------------------------------------------------------------------

def prob_2pl(theta, a: float, b: float):
    """P(u = 1 | theta) for a binary two-parameter logistic item."""
    from scipy.special import expit
    theta = np.asarray(theta, dtype=np.float64)
    out = expit(a * (theta - b))
    return float(out) if out.ndim == 0 else out


def category_probs(theta, item: ItemModel | ItemParams):
    """Probability of every category at ``theta``; shape ``(..., m)``.

    The exponential of :func:`log_category_probs`, the values the fit uses.
    """
    return _params(item).probs(theta)


def log_category_probs(theta, item: ItemModel | ItemParams):
    """``log`` of :func:`category_probs`, evaluated directly in log space.

    A category whose probability underflows to zero yields ``-inf`` rather
    than a spurious finite value.
    """
    return _params(item).log_probs(theta)


# ---------------------------------------------------------------------------
# Pattern likelihood and analytic score
# ---------------------------------------------------------------------------

def _check_code(code: int, item: ItemModel) -> None:
    if code < -1 or code >= item.n_categories:
        raise CodeOutOfRange(
            f"code {code} out of range for column {item.column!r} with "
            f"{item.n_categories} categories"
        )


def pattern_loglik(pattern, items: tuple[ItemModel, ...], theta: float) -> float:
    """Log-likelihood of one response pattern at a fixed trait value.

    ``pattern`` is a code vector aligned with ``items``; missing cells
    (code -1) contribute nothing — they are marginalized out.
    """
    total = 0.0
    for code, item in zip(pattern, items, strict=True):
        code = int(code)
        _check_code(code, item)
        if code == -1:
            continue
        total += float(log_category_probs(theta, item)[code])
    return total


def grad_log_probs(
    params: ItemParams, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of the log category probabilities at each theta.

    Returns ``(d_theta, d_params)`` with shapes ``(T, m)`` and ``(T, m, P)``
    where ``P`` is the free-parameter count: the gradient of
    ``log P(category k | theta_t)`` with respect to theta and to the item's
    parameter vector (layout of the family's ``vector``).
    """
    return params.grad(theta)


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
        code = int(code)
        _check_code(code, item)
        if code == -1:
            grads.append(np.zeros_like(item.params.vector()))
            continue
        d_theta, d_params = grad_log_probs(item.params, theta_arr)
        total_dtheta += float(d_theta[0, code])
        grads.append(d_params[0, code].copy())
    return PatternScore(total_dtheta, tuple(grads))

