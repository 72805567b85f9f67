"""Scalar/vector primitives for Holder-continuous finite-time-stable feedback.

All observers, controllers and filters in this package share a single sigmoid
gain shape: for an error vector e and parameters (exponent, scale, weight),

    gain(e) = (x - scale) / (x + scale),   x = (e^T W e)^(1 - 1/exponent),

which takes values in [-1, 1) and equals -1 at e = 0 and, in floating point, on a
small ball around it (holder_gain gives the radii).  This module provides that gain
on pairs of floats and the expansion-side and contraction-side ultimate-bound radius
factors.  The Lyapunov tools that work on arrays (LyapunovTrace, the decrement
function gamma_of_V, the clamped decrement recursion fts_recursion and the verifiers
of the finite-time-stability and Holder-continuity conditions) live in ftsmfc.verify,
which imports NumPy.  Its suites call the four functions through this module, where
they resolve on first use, so that perfbench's traced fts_core labels see the calls.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence, Tuple, Union


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def from_verify(namespace: dict, names: Sequence[str]):
    """A PEP 562 __getattr__ for the module whose globals() is namespace: each of names is
    bound there from ftsmfc.verify, the module that imports NumPy, on first lookup."""
    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        from . import verify
        value = namespace[name] = getattr(verify, name)
        return value
    return __getattr__


__getattr__ = from_verify(globals(), ("gamma_of_V", "fts_recursion", "verify_fts_condition",
                                      "verify_holder_continuity"))


WeightLike = Union[float, Sequence[Sequence[float]], None]
# A two-channel signal: the package's kernel passes every vector as a pair of floats.
Pair = Tuple[float, float]


def float_rows(m, what: str) -> Tuple[Pair, Pair]:
    """A 2 x 2 matrix, given as any two-level sequence, as two rows of floats."""
    try:
        (a, b), (c, d) = m
        return (float(a), float(b)), (float(c), float(d))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be 2 x 2") from exc


class Record:
    """An immutable record, in place of a frozen dataclass.

    __init__ takes exactly the _fields by keyword (a record with defaults writes
    its own) and sets each once through _set, into the instance dict, the
    quickest attribute to read.  Equality, the hash and the repr read the
    attributes named in _fields, in order, and two records are equal only if
    they are of the same class; derived attributes are left out of all three.
    """

    _fields: Tuple[str, ...] = ()

    def __init__(self, **values) -> None:
        if values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {', '.join(self._fields)}")
        self._set(**values)

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class HolderGainParams(Record):
    """Parameters of the sigmoid gain: exponent in ]1,2[, scale > 0, SPD weight.

    The weight may be None (identity), a positive scalar (scalar times
    identity) or a 2 x 2 SPD matrix.  The derived Holder power 1 - 1/exponent
    lies in ]0, 1/2[; it and the weight entries w00, w01, w11 are computed once
    here, so the gain reads them without touching the weight.  Equality and
    the hash read exponent, scale and weight only.
    """

    _fields = ("exponent", "scale", "weight")

    def __init__(self, exponent: float, scale: float, weight: WeightLike = None) -> None:
        if not 1.0 < exponent < 2.0:
            raise DomainError(f"exponent must lie strictly in ]1,2[, got {exponent}")
        if not (math.isfinite(scale) and scale > 0.0):
            raise DomainError(f"scale must be positive, got {scale}")
        w00, w01, w11 = 1.0, 0.0, 1.0
        w = weight
        if isinstance(w, numbers.Real):
            w00 = w11 = w = float(w)
            if not (math.isfinite(w) and w > 0.0):
                raise DomainError(f"scalar weight must be positive, got {w}")
        elif w is not None:
            w = (w00, w01), (w10, w11) = float_rows(w, "weight matrix")
            # the tolerance of allclose(w, w.T, rtol=1e-12, atol=1e-12), taken both ways
            if not (abs(w01 - w10) <= 1e-12 + 1e-12 * min(abs(w01), abs(w10))):
                raise DomainError("weight matrix must be symmetric")
            # Sylvester's criterion, scaled against under- and overflow; non-finite entries fail it
            s = max(abs(w00), abs(w11))
            if not (w00 > 0.0 and (w00 / s) * (w11 / s) - (w01 / s) * (w10 / s) > 0.0):
                raise DomainError("weight matrix must be positive definite")
        self._set(exponent=exponent, scale=scale, weight=w, holder_power=1.0 - 1.0 / exponent,
                  w00=w00, w01=w01, w11=w11)


def holder_gain(e: Pair, params: HolderGainParams) -> float:
    """Sigmoid feedback gain (x - scale)/(x + scale), x = (e^T W e)^holder_power.

    e is a pair (e0, e1) and e^T W e = w00*e0^2 + 2*w01*e0*e1 + w11*e1^2.  The power
    is exp(a*log(q)), with a zero branch so that the origin is no 0/0 limit.  Returns
    a value in [-1, 1): exactly -1 at e = 0 and wherever x is lost against scale, which
    on either axis is |e| <= 1.26e-36 at OBS_PARAMS, 2.94e-46 at CTRL_PARAMS and
    8.28e-29 at _FILTER_PARAMS.  Raises DomainError when e^T W e is not finite: e has a
    non-finite component, or a finite e overflows the form.
    """
    e0, e1 = e
    q = params.w00 * e0 * e0 + 2.0 * params.w01 * e0 * e1 + params.w11 * e1 * e1
    if not math.isfinite(q):
        raise DomainError(f"holder_gain: non-finite quadratic form e^T W e = {q}")
    x = math.exp(params.holder_power * math.log(q)) if q > 0.0 else 0.0
    return (x - params.scale) / (x + params.scale)


def gamma_zero_crossing(params: HolderGainParams) -> float:
    """The V at which gamma_of_V(V) == scale, i.e. scale^(1/holder_power)."""
    return params.scale ** (1.0 / params.holder_power)


def robustness_radius(gain_value: float) -> float:
    """Ultimate-bound radius factor zeta/(1 - sqrt(1-zeta)) with zeta = 1 - gain^2.

    Evaluated as the algebraically equal 1 + sqrt(1 - zeta) = 1 + |gain|: the
    quotient form is ill-conditioned as zeta -> 0.  Result lies in [1, 2].
    """
    if not -1.0 <= gain_value < 1.0:
        raise DomainError(f"gain_value must lie in [-1, 1), got {gain_value}")
    return 1.0 + abs(gain_value)


def decrease_radius(gain_value: float) -> float:
    """Contraction-side factor zeta/(1 + sqrt(1-zeta)) = 1 - |gain|, in [0, 1].

    This is the other root of the quadratic in ||e|| that bounds the one-step
    Lyapunov change under drift of norm at most B: the Lyapunov value is
    guaranteed to decrease whenever decrease_radius(gain)*||e|| > B.  Used by
    the verification suites as the factor that actually certifies decrease.
    """
    if not -1.0 <= gain_value < 1.0:
        raise DomainError(f"gain_value must lie in [-1, 1), got {gain_value}")
    return 1.0 - abs(gain_value)
