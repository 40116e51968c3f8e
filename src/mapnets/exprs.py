"""Registered closed-form expression families for nets and maps.

JSON descriptions reference these by name; arbitrary expression parsing is
out of scope.  Every family returns an eps-indexed factory whose expressions
evaluate on floats and on jets alike, so derivative oracles are exact.  A
factory also takes an eps column, an (N,) array with one eps per row of the
array jet it meets, and gives each row the float path's bits: eps-dependent
scalars that are no IEEE basic operation go entry by entry through ``**``
and ``math`` (``jets._entrywise``).
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .errors import SpecError, expect_object
from .jets import _entrywise, bump, cos, exp, sin, tanh


class EpsFamily(functools.partial):
    """A factory from ``build_expr``: ``family(eps)`` takes a float or an eps column."""


def smoothed_step(eps: float) -> Callable:
    """Profile of the moving-jump family: (1+eps)/2 * (tanh t + tanh(t/eps)).

    Converges to a unit step; the slope at 0 is (1+eps)(1+1/eps)/2.
    """
    return lambda t: 0.5 * (1.0 + eps) * (tanh(t) + tanh(t / eps))


def step_slope_sup(eps: float) -> float:
    """Closed-form sup of |d/dt smoothed_step| (attained at t = 0)."""
    return 0.5 * (1.0 + eps) * (1.0 + 1.0 / eps)


# -- family builders ------------------------------------------------------


def _param(params: dict, key: str, default):
    """The numeric parameter ``key``: a float, or a nonempty tuple of floats
    where ``default`` is a list.  Anything else is a SpecError at
    ``expr.params.<key>``."""
    value = params.get(key, default)
    many = isinstance(default, list)
    try:
        if not many:
            return float(value)
        if isinstance(value, list) and value:
            return tuple(float(c) for c in value)
    except (TypeError, ValueError):
        pass
    raise SpecError(f"expected {'a nonempty list of numbers' if many else 'a number'}, "
                    f"got {value!r}", f"expr.params.{key}")


def _shape_fn(params: dict) -> Callable:
    shape = params.get("shape", "const")
    if shape == "const":
        return lambda t: 1.0 + 0.0 * t
    if shape == "bump":
        c = _param(params, "center", 0.0)
        w = _param(params, "width", 0.5)
        return lambda t: bump(t, center=c, width=w)
    if shape == "cos":
        return lambda t: cos(t)
    raise SpecError(f"unknown shape {shape!r}", "expr.shape")


_BASE_FNS = {
    "identity": lambda t: t,
    "sin": sin,
    "cos": cos,
    "tanh": tanh,
}


def build_expr(spec) -> EpsFamily:
    """Build an eps-indexed expression factory from a JSON spec.

    Spec is either a registered base name (string) or
    {"name": ..., "params": {...}}; additive-perturbation families nest a
    "base" spec.
    """
    return EpsFamily(_build(spec))


def _build(spec) -> Callable:
    if isinstance(spec, str):
        spec = {"name": spec, "params": {}}
    if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
        raise SpecError("expression spec needs a 'name'", "expr")
    name = spec["name"]
    params = expect_object(spec.get("params", {}), "expr.params")
    if name in _BASE_FNS:
        fn = _BASE_FNS[name]
        return lambda eps: fn
    if name == "poly":
        coeffs = _param(params, "coeffs", [0.0])

        def horner(t, cs=coeffs):
            acc = 0.0 * t + cs[-1]
            for c in reversed(cs[:-1]):
                acc = acc * t + c
            return acc

        return lambda eps: horner
    if name == "affine":
        a = _param(params, "a", 1.0)
        b = _param(params, "b", 0.0)
        return lambda eps: (lambda t: a * t + b)
    if name == "bump":
        c = _param(params, "center", 0.0)
        w = _param(params, "width", 0.5)
        h = _param(params, "height", 1.0)
        return lambda eps: (lambda t: h * bump(t, center=c, width=w))
    if name == "smoothed_step":
        return smoothed_step
    if name == "scaled_step_angle":
        # angle profile of the circle-valued jump: pi * smoothed_step
        return lambda eps: (lambda t, e=eps: math.pi * smoothed_step(e)(t))
    if name == "winding":
        rate = _param(params, "rate", 1.0)
        return lambda eps: (lambda t, e=eps: rate * t / e)
    if name == "eps_const":
        return lambda eps: (lambda t, e=eps: 0.0 * t + e)
    if name == "exp_recip":
        # the range-space diffeomorphism y -> e^(1/y)
        return lambda eps: (lambda t: exp(1.0 / t))
    if name == "plus_power":
        base = _build(params.get("base", "identity"))
        order = _param(params, "order", 1.0)
        coeff = _param(params, "coeff", 1.0)
        shape = _shape_fn(params)

        def factory(eps: float, base=base, order=order, coeff=coeff, shape=shape):
            b = base(eps)
            amp = coeff * _entrywise(lambda e: e**order, eps)
            return lambda t: b(t) + amp * shape(t)

        return factory
    if name == "plus_flat":
        # additive defect decaying faster than every power: c * e^(-rate/eps)
        base = _build(params.get("base", "identity"))
        rate = _param(params, "rate", 1.0)
        coeff = _param(params, "coeff", 1.0)
        shape = _shape_fn(params)

        def factory(eps: float, base=base, rate=rate, coeff=coeff, shape=shape):
            b = base(eps)
            amp = _entrywise(lambda e: coeff * math.exp(-rate / e) if rate / e < 709.0 else 0.0,
                             eps)
            return lambda t: b(t) + amp * shape(t)

        return factory
    raise SpecError(f"unknown expression family {name!r}", "expr.name")


EXPRESSION_FAMILIES = sorted(
    list(_BASE_FNS) + ["poly", "affine", "bump", "smoothed_step",
                       "scaled_step_angle", "winding", "eps_const", "exp_recip",
                       "plus_power", "plus_flat"])
