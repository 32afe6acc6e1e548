"""Jitter noise: the uniform-plus-scaled-beta family.

A jitter draw is ``U + theta * (B - 0.5)`` with ``U ~ Uniform(-0.5, 0.5)``
and ``B ~ Beta(nu, nu)``, applied independently to each jittered
coordinate. Its density ``eta`` has three pieces:

* a plateau: ``eta(x) = 1`` for ``|x| <= gamma1 = (1 - theta) / 2``,
* compact support: ``eta(x) = 0`` for ``|x| >= gamma2 = (1 + theta) / 2``,
* a smooth shoulder in between, built from the Beta(nu, nu) CDF.

The plateau and support conditions are exactly what makes adding this
noise to integer-valued data harmless: the density of the noisy variable
agrees with the original probability mass function at every integer, and
its derivatives vanish there. ``verify_membership`` checks those
conditions numerically for any candidate density.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _scipy
from .errors import InvalidParameterError
from .quadrature import adaptive_integral


def _whole(value, what: str, least: int, float_range: bool = False) -> int:
    """``value`` as an int of at least ``least``. An integer is checked as
    an integer, so one too large for a float is no ``OverflowError``; with
    ``float_range`` it must also fit in a float64."""
    try:
        whole = operator.index(value)  # an int, bool or numpy integer
    except TypeError:
        if not float(value).is_integer():
            raise InvalidParameterError(f"{what} must be an integer, got {value}") from None
        whole = int(float(value))
    if whole < least:
        raise InvalidParameterError(f"{what} must be an integer >= {least}, got {value}")
    if float_range:
        try:
            float(whole)
        except OverflowError:
            raise InvalidParameterError(
                f"{what} must fit in a float64, got an integer of {whole.bit_length()} bits"
            ) from None
    return whole


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of the jitter noise applied to discrete columns.

    ``theta`` in [0, 1) controls the shoulder width (theta = 0 is plain
    uniform noise), ``nu`` the smoothness of the shoulder (the density is
    nu - 1 times continuously differentiable), and ``dims`` the number of
    discrete coordinates jittered. ``dims = 0`` is allowed and makes
    jittering a no-op for purely continuous data.
    """

    theta: float
    nu: int
    dims: int = 1

    def __post_init__(self):
        try:
            theta = float(self.theta)
        except OverflowError:
            theta = math.inf  # an integer beyond the float range
        if not 0.0 <= theta < 1.0 or not math.isfinite(theta):
            raise InvalidParameterError(f"theta must lie in [0, 1), got {self.theta}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "nu", _whole(self.nu, "nu", 1, float_range=True))
        object.__setattr__(self, "dims", _whole(self.dims, "dims", 0, float_range=True))

    @property
    def gamma1(self) -> float:
        """Plateau radius: the density equals 1 on [-gamma1, gamma1]."""
        return (1.0 - self.theta) / 2.0

    @property
    def gamma2(self) -> float:
        """Support radius: the density vanishes outside (-gamma2, gamma2)."""
        return (1.0 + self.theta) / 2.0


@dataclass(frozen=True)
class NoiseReport:
    """Numerical check of the plateau/support/mass conditions."""

    value_at_zero: float
    plateau_ok: bool
    support_ok: bool
    mass: float
    max_abs_plateau_deviation: float
    max_abs_outside_support: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.value_at_zero == 1.0
            and self.plateau_ok
            and self.support_ok
            and abs(self.mass - 1.0) <= max(self.tol, 1e-8)
        )

    def to_text(self) -> str:
        """Plain key-value block, one field per line."""
        lines = [
            f"value_at_zero = {self.value_at_zero!r}",
            f"plateau_ok = {self.plateau_ok}",
            f"support_ok = {self.support_ok}",
            f"mass = {self.mass!r}",
            f"max_abs_plateau_deviation = {self.max_abs_plateau_deviation!r}",
            f"max_abs_outside_support = {self.max_abs_outside_support!r}",
            f"tol = {self.tol!r}",
            f"passed = {self.passed}",
        ]
        return "\n".join(lines)


def beta_cdf(nu: int, x: float) -> float:
    """CDF of Beta(nu, nu) at ``x``: the regularized incomplete beta I_x(nu, nu).

    Inputs outside [0, 1] clamp to 0 and 1 (so ``x = inf`` gives 1); the
    interior is ``scipy.special.betainc``. ``x = nan`` is rejected rather
    than passed on as a nan CDF.
    """
    a = float(_whole(nu, "nu", 1, float_range=True))
    x = float(x)
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if math.isnan(x):
        raise InvalidParameterError("beta_cdf needs a number, got nan")
    return float(_scipy.betainc(a, a, x))


def eta_density(spec: NoiseSpec, x: float) -> float:
    """Density of a single noise coordinate at ``x``.

    Equals 1 on the plateau [-gamma1, gamma1] and 0 for |x| >= gamma2,
    both enforced exactly; in between it is the Beta(nu, nu) CDF
    ``F((0.5 - |x|)/theta + 0.5)``. (The increment
    ``F((|x| + 0.5)/theta + 0.5) - F((|x| - 0.5)/theta + 0.5)`` reduces to
    it: off the plateau the first term is 1, and ``1 - F(y) = F(1 - y)``.)
    Evaluation is on |x|, so symmetry holds bitwise.
    """
    ax = abs(float(x))
    if ax <= spec.gamma1:
        return 1.0
    if ax >= spec.gamma2:
        return 0.0
    # only nan gets here when theta = 0 (gamma1 = gamma2 = 0.5)
    if math.isnan(ax):
        raise InvalidParameterError("eta_density needs a number, got nan")
    return beta_cdf(spec.nu, (0.5 - ax) / spec.theta + 0.5)


def noise_stream(seed: int, replicate_index: int = 0) -> np.random.Generator:
    """Counter-based generator for one jitter replicate.

    Streams for different ``replicate_index`` values are derived from the
    same master ``seed`` via spawn keys, so replicates are independent yet
    reproducible.
    """
    ss = np.random.SeedSequence(entropy=_whole(seed, "seed", 0),
                                spawn_key=(_whole(replicate_index, "replicate_index", 0),))
    return np.random.Generator(np.random.Philox(ss))


def sample_noise(
    spec: NoiseSpec,
    seed: int,
    count: int,
    replicate_index: int = 0,
) -> np.ndarray:
    """Draw a ``count x dims`` matrix of independent noise values.

    Rows are independent draws, coordinates within a row are independent,
    and every entry lies strictly inside (-gamma2, gamma2). Identical
    ``(spec, seed, count, replicate_index)`` yields bit-identical output.
    """
    if count < 0:
        raise InvalidParameterError(f"count must be nonnegative, got {count}")
    rng = noise_stream(seed, replicate_index)
    shape = (int(count), spec.dims)
    # in place, so no more than the two draws are alive at once
    u = rng.random(shape)
    u -= 0.5
    # rng.random() can return exactly 0.0; keep draws strictly inside the support
    u[u == -0.5] = 0.0
    if spec.theta == 0.0:
        return u
    b = rng.beta(float(spec.nu), float(spec.nu), size=shape)
    b -= 0.5
    b *= spec.theta
    u += b
    return u


def verify_membership(
    spec: NoiseSpec,
    grid_points: int = 201,
    tol: float = 1e-8,
    density: Callable[[float], float] | None = None,
) -> NoiseReport:
    """Check the plateau/support/mass conditions for a noise density.

    Evaluates the density on a symmetric grid over [-1, 1] plus the
    plateau endpoints, and integrates it by adaptive quadrature with
    breakpoints at the kink locations. ``density`` defaults to the
    spec's own ``eta``; passing another callable lets callers audit an
    arbitrary candidate against the same conditions. ``tol`` must be
    positive and finite.
    """
    if grid_points < 3:
        raise InvalidParameterError(f"grid_points must be >= 3, got {grid_points}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameterError(f"tol must be positive and finite, got {tol}")
    f = density if density is not None else (lambda x: eta_density(spec, x))
    g1, g2 = spec.gamma1, spec.gamma2
    grid = np.linspace(-1.0, 1.0, int(grid_points))

    value_at_zero = float(f(0.0))
    plateau_x = np.concatenate([grid[np.abs(grid) <= g1], [-g1, 0.0, g1]])
    plateau_dev = max(abs(float(f(x)) - 1.0) for x in plateau_x)
    outside_x = grid[np.abs(grid) > g2]
    max_outside = max((abs(float(f(x))) for x in outside_x), default=0.0)
    mass = adaptive_integral(f, -1.0, 1.0, tol=min(tol, 1e-8), breakpoints=(-g2, -g1, g1, g2))

    return NoiseReport(
        value_at_zero=value_at_zero,
        plateau_ok=plateau_dev <= tol,
        support_ok=max_outside <= tol,
        mass=float(mass),
        max_abs_plateau_deviation=float(plateau_dev),
        max_abs_outside_support=float(max_outside),
        tol=float(tol),
    )
