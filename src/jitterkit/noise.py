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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .errors import InvalidParameterError
from .quadrature import adaptive_integral


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
        theta = float(self.theta)
        if not 0.0 <= theta < 1.0 or not math.isfinite(theta):
            raise InvalidParameterError(f"theta must lie in [0, 1), got {self.theta}")
        if not float(self.nu).is_integer() or self.nu < 1:
            raise InvalidParameterError(f"nu must be a positive integer, got {self.nu}")
        if not float(self.dims).is_integer() or self.dims < 0:
            raise InvalidParameterError(f"dims must be a nonnegative integer, got {self.dims}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "nu", int(self.nu))
        object.__setattr__(self, "dims", int(self.dims))

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
    if not float(nu).is_integer() or nu < 1:
        raise InvalidParameterError(f"nu must be a positive integer, got {nu}")
    x = float(x)
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if math.isnan(x):
        raise InvalidParameterError("beta_cdf needs a number, got nan")
    a = float(nu)
    return float(betainc(a, a, x))


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
    if not float(seed).is_integer() or seed < 0:
        raise InvalidParameterError(f"seed must be a nonnegative integer, got {seed}")
    if not float(replicate_index).is_integer() or replicate_index < 0:
        raise InvalidParameterError(
            f"replicate_index must be a nonnegative integer, got {replicate_index}"
        )
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replicate_index),))
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
    u = rng.random(shape) - 0.5
    # rng.random() can return exactly 0.0; keep draws strictly inside the support
    u[u == -0.5] = 0.0
    if spec.theta == 0.0:
        return u
    b = rng.beta(float(spec.nu), float(spec.nu), size=shape)
    return u + spec.theta * (b - 0.5)


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
    arbitrary candidate against the same conditions.
    """
    if grid_points < 3:
        raise InvalidParameterError(f"grid_points must be >= 3, got {grid_points}")
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
