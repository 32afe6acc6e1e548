"""Adaptive quadrature for piecewise-smooth integrands.

Thin wrapper around Gauss-Kronrod adaptive integration that accepts
explicit breakpoints (kink locations), since the densities handled here
are only piecewise smooth and naive adaptivity converges slowly across
kinks. Two callers use it: :mod:`jitterkit.oracle`, whose response
slices integrate by it, and :func:`~jitterkit.noise.verify_membership`.
:mod:`jitterkit.regression` does not import it: every slice brings its
own integrals, and a KDE's are closed-form kernel sums.
``scipy.integrate`` loads on the first call (``jitterkit verify``, or a
functional over an oracle slice), not when this module is imported.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from . import _scipy
from .errors import InvalidParameterError, NumericalError


def adaptive_integral(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    breakpoints: Iterable[float] = (),
    max_subdivisions: int = 200,
) -> float:
    """Integrate ``f`` over ``[a, b]`` to absolute accuracy ``tol``.

    ``breakpoints`` are locations where the integrand is non-smooth;
    points outside ``(a, b)`` are ignored. Raises :class:`NumericalError`
    (carrying the best estimate) if the subdivision budget is exhausted
    before the tolerance is met.
    """
    a = float(a)
    b = float(b)
    if not a <= b:
        raise InvalidParameterError(f"integration bounds out of order: a={a} > b={b}")
    if a == b:
        return 0.0
    pts = sorted({float(p) for p in breakpoints if a < float(p) < b})
    out = _scipy.quad(
        f,
        a,
        b,
        points=pts if pts else None,
        epsabs=tol,
        epsrel=1.49e-12,
        limit=max(int(max_subdivisions), 10 * len(pts) + 50),
        full_output=1,
    )
    value, abserr = out[0], out[1]
    if len(out) >= 4 or abserr > 10.0 * max(tol, 1e-300):
        raise NumericalError(
            f"quadrature did not reach tol={tol} on [{a}, {b}] "
            f"(estimate {value}, reported error {abserr})",
            best_estimate=float(value),
        )
    return float(value)
