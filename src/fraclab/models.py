"""Model layer: flux, diffusion, and noise triples.

A model couples a scalar flux, a nondecreasing diffusion nonlinearity
applied under the fractional Laplacian, and a truncated family of noise
coefficient functions h_k(x, u).  Structural assumptions (Lipschitz
bounds, monotonicity, quadratic noise growth) are checked by quasi-random
sampling, not symbolically: the building blocks are opaque callables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import qmc

from .fields import GridSpec

__all__ = [
    "ConfigurationError",
    "FluxSpec",
    "DiffusionSpec",
    "NoiseSpec",
    "ModelSpec",
    "AssumptionCheck",
    "ValidationReport",
    "validate_model",
    "noise_tables",
    "noise_pairing",
    "linearize_model",
    "linear_advection",
    "burgers_clamped",
    "cubic_smoothed",
    "linear_diffusion",
    "diagonal_decay_noise",
    "additive_noise",
    "paired_harmonic_noise",
    "FLUX_FAMILIES",
    "DIFFUSION_FAMILIES",
    "NOISE_FAMILIES",
    "build_model",
]


class ConfigurationError(ValueError):
    """A model or run configuration is structurally invalid."""


@dataclass(frozen=True)
class FluxSpec:
    """Scalar flux with its derivative and a declared global Lipschitz bound."""

    eval: Callable
    deriv: Callable
    lipschitz_bound: float
    second_deriv_bound: float | None = None
    name: str = "custom"


@dataclass(frozen=True)
class DiffusionSpec:
    """Nondecreasing nonlinearity under the fractional Laplacian of order theta."""

    eval: Callable
    deriv: Callable
    theta: float
    lipschitz_bound: float
    name: str = "custom"

    def __post_init__(self):
        # theta = 1 is tolerated for plain-Laplacian comparisons; validation
        # of a full model enforces the strict fractional range (0, 1)
        if not 0.0 < self.theta <= 1.0:
            raise ConfigurationError(f"theta must lie in (0, 1], got {self.theta}")


@dataclass(frozen=True)
class NoiseSpec:
    """Truncated family of noise coefficient functions h_k(x, u), k = 1..K.

    Each callable must be numpy-vectorized in both arguments.  Families that
    are affine in the state (h_k(x, u) = A_k(x) + B_k(x) u) declare
    affine_in_state so solvers can precompute nodal tables.
    """

    truncation: int
    coefficient_fns: tuple
    decay_exponent: float
    growth_const: float
    affine_in_state: bool = False
    name: str = "custom"

    def __post_init__(self):
        if len(self.coefficient_fns) != self.truncation:
            raise ConfigurationError(
                f"{len(self.coefficient_fns)} coefficient functions for K={self.truncation}"
            )
        if self.decay_exponent <= 0.5:
            raise ConfigurationError(
                f"decay exponent must exceed 1/2, got {self.decay_exponent}"
            )


@dataclass(frozen=True)
class ModelSpec:
    flux: FluxSpec
    diffusion: DiffusionSpec
    noise: NoiseSpec


# ---------------------------------------------------------------------------
# builtin families


def linear_advection(speed: float = 1.0) -> FluxSpec:
    s = float(speed)

    def f(u):
        return s * np.asarray(u, dtype=float)

    def fp(u):
        return np.full_like(np.asarray(u, dtype=float), s)

    return FluxSpec(eval=f, deriv=fp, lipschitz_bound=abs(s),
                    second_deriv_bound=0.0, name="advection")


def burgers_clamped(clamp: float = 4.0) -> FluxSpec:
    """u^2/2 with derivative clamped to [-clamp, clamp]; linear growth outside.

    Clamping is what makes the flux globally Lipschitz.
    """
    if clamp <= 0:
        raise ConfigurationError("clamp must be positive")
    m = float(clamp)

    def f(u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) <= m, 0.5 * u * u, m * np.abs(u) - 0.5 * m * m)

    def fp(u):
        return np.clip(np.asarray(u, dtype=float), -m, m)

    return FluxSpec(eval=f, deriv=fp, lipschitz_bound=m,
                    second_deriv_bound=1.0, name="burgers")


def cubic_smoothed(clamp: float = 4.0) -> FluxSpec:
    """u^3/3 with derivative u^2 capped at clamp; linear growth outside the cap."""
    if clamp <= 0:
        raise ConfigurationError("clamp must be positive")
    m = float(clamp)
    r = float(np.sqrt(m))

    def f(u):
        u = np.asarray(u, dtype=float)
        outer = np.sign(u) * (r ** 3 / 3.0 + m * (np.abs(u) - r))
        return np.where(np.abs(u) <= r, u ** 3 / 3.0, outer)

    def fp(u):
        u = np.asarray(u, dtype=float)
        return np.minimum(u * u, m)

    return FluxSpec(eval=f, deriv=fp, lipschitz_bound=m,
                    second_deriv_bound=2.0 * r, name="cubic")


def linear_diffusion(slope: float = 1.0, theta: float = 0.5) -> DiffusionSpec:
    if slope < 0:
        raise ConfigurationError("diffusion slope must be nonnegative")
    s = float(slope)

    def f(u):
        return s * np.asarray(u, dtype=float)

    def fp(u):
        return np.full_like(np.asarray(u, dtype=float), s)

    return DiffusionSpec(eval=f, deriv=fp, theta=theta, lipschitz_bound=s,
                         name="linear")


def _mode_weights(count: int, q: float) -> np.ndarray:
    return np.arange(1, count + 1, dtype=float) ** (-q)


def diagonal_decay_noise(truncation: int = 16, q: float = 1.0,
                         a: float = 1.0, b: float = 1.0) -> NoiseSpec:
    """h_k(x, u) = k^-q (a sin(2 pi k x) + b u)."""
    if truncation < 1:
        raise ConfigurationError("need at least one noise mode")
    fns = []
    for k in range(1, truncation + 1):
        w = float(k) ** (-q)

        def h(x, u, w=w, k=k):
            x = np.asarray(x, dtype=float)
            return w * (a * np.sin(2.0 * np.pi * k * x) + b * np.asarray(u, dtype=float))

        fns.append(h)
    growth = 2.0 * max(a * a, b * b) * float(np.sum(_mode_weights(truncation, q) ** 2))
    return NoiseSpec(truncation=truncation, coefficient_fns=tuple(fns),
                     decay_exponent=q, growth_const=growth,
                     affine_in_state=True, name="diagonal-decay")


def additive_noise(truncation: int = 16, q: float = 1.0, offset: float = 0.0) -> NoiseSpec:
    """State-independent family h_k(x) = k^-q (cos(2 pi k x) + offset)."""
    if truncation < 1:
        raise ConfigurationError("need at least one noise mode")
    fns = []
    for k in range(1, truncation + 1):
        w = float(k) ** (-q)

        def h(x, u, w=w, k=k):
            x = np.asarray(x, dtype=float)
            return w * (np.cos(2.0 * np.pi * k * x) + offset) + 0.0 * np.asarray(u, dtype=float)

        fns.append(h)
    growth = (1.0 + abs(offset)) ** 2 * float(np.sum(_mode_weights(truncation, q) ** 2))
    return NoiseSpec(truncation=truncation, coefficient_fns=tuple(fns),
                     decay_exponent=q, growth_const=growth,
                     affine_in_state=True, name="additive")


def paired_harmonic_noise(pairs: int = 8, q: float = 1.0) -> NoiseSpec:
    """Additive family with equal-weight cosine/sine pairs per spatial frequency.

    Mode 2m-1 is m^-q cos(2 pi m x) and mode 2m is m^-q sin(2 pi m x), so each
    frequency is driven isotropically in the complex plane.
    """
    if pairs < 1:
        raise ConfigurationError("need at least one pair")
    fns = []
    for m in range(1, pairs + 1):
        w = float(m) ** (-q)

        def hc(x, u, w=w, m=m):
            x = np.asarray(x, dtype=float)
            return w * np.cos(2.0 * np.pi * m * x) + 0.0 * np.asarray(u, dtype=float)

        def hs(x, u, w=w, m=m):
            x = np.asarray(x, dtype=float)
            return w * np.sin(2.0 * np.pi * m * x) + 0.0 * np.asarray(u, dtype=float)

        fns.append(hc)
        fns.append(hs)
    growth = float(np.sum(_mode_weights(pairs, q) ** 2))
    return NoiseSpec(truncation=2 * pairs, coefficient_fns=tuple(fns),
                     decay_exponent=q, growth_const=growth,
                     affine_in_state=True, name="paired-harmonic")


FLUX_FAMILIES = {
    "advection": linear_advection,
    "burgers": burgers_clamped,
    "cubic": cubic_smoothed,
}

DIFFUSION_FAMILIES = {
    "linear": linear_diffusion,
}

NOISE_FAMILIES = {
    "diagonal-decay": diagonal_decay_noise,
    "additive": additive_noise,
    "paired-harmonic": paired_harmonic_noise,
}


def _build_block(block, families, label):
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigurationError(f"{label} block needs a 'kind' entry")
    kind = block["kind"]
    params = {key: value for key, value in block.items() if key != "kind"}
    try:
        factory = families[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown {label} kind {kind!r}; choices: {sorted(families)}"
        ) from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for {label} {kind!r}: {exc}") from None


def build_model(recipe) -> ModelSpec:
    """Build a model from a plain description of the form

        {"flux": {"kind": ..., <params>},
         "diffusion": {"kind": ..., <params>},
         "noise": {"kind": ..., <params>}}

    Descriptions hold only primitives, so they serialize and cross process
    boundaries; the callable specs do not.
    """
    for key in ("flux", "diffusion", "noise"):
        if key not in recipe:
            raise ConfigurationError(f"model description is missing the {key!r} block")
    return ModelSpec(
        flux=_build_block(recipe["flux"], FLUX_FAMILIES, "flux"),
        diffusion=_build_block(recipe["diffusion"], DIFFUSION_FAMILIES, "diffusion"),
        noise=_build_block(recipe["noise"], NOISE_FAMILIES, "noise"),
    )


def linearize_model(model: ModelSpec, state: float = 1.0) -> ModelSpec:
    """Constant-coefficient model: flux F'(s)*xi, diffusion Phi'(s)*xi, and the
    noise family frozen at u = s (purely additive)."""
    fslope = float(model.flux.deriv(state))
    pslope = float(model.diffusion.deriv(state))
    if pslope < 0:
        raise ConfigurationError("diffusion derivative negative at the base state")

    def freeze(h):
        def frozen(x, u, h=h):
            x = np.asarray(x, dtype=float)
            return np.asarray(h(x, np.full_like(x, float(state))), dtype=float) \
                + 0.0 * np.asarray(u, dtype=float)

        return frozen

    frozen_fns = tuple(freeze(h) for h in model.noise.coefficient_fns)
    noise = NoiseSpec(truncation=model.noise.truncation,
                      coefficient_fns=frozen_fns,
                      decay_exponent=model.noise.decay_exponent,
                      growth_const=model.noise.growth_const * (1.0 + state * state),
                      affine_in_state=True,
                      name=f"{model.noise.name}-frozen")
    return ModelSpec(flux=linear_advection(fslope),
                     diffusion=linear_diffusion(pslope, model.diffusion.theta),
                     noise=noise)


# ---------------------------------------------------------------------------
# noise evaluation


def noise_tables(noise: NoiseSpec, grid: GridSpec):
    """Nodal tables (A, B) with h_k(x, u) = A_k(x) + B_k(x) u, shape (K, N).

    Only valid for families declared affine in the state.
    """
    if not noise.affine_in_state:
        raise ValueError("noise spec is not affine in the state")
    x = grid.nodes()
    zero = np.zeros_like(x)
    one = np.ones_like(x)
    a = np.stack([np.asarray(h(x, zero), dtype=float) for h in noise.coefficient_fns])
    b = np.stack([np.asarray(h(x, one), dtype=float) for h in noise.coefficient_fns]) - a
    return a, b


def noise_pairing(noise: NoiseSpec, grid: GridSpec):
    """The pairing sum_k c_k h_k(x, u(x)) on the grid's nodes, as a function
    pair(values, coeffs) of the nodal state and the K coefficients.

    The solver pairs the Wiener increments and the skeleton pairs the control
    through this routine.  Families affine in the state use the nodal tables
    of noise_tables; any other family is evaluated term by term.
    """
    if noise.affine_in_state:
        a, b = noise_tables(noise, grid)

        def pair(values, coeffs):
            return coeffs @ a + values * (coeffs @ b)

        return pair
    x = grid.nodes()

    def pair(values, coeffs):
        total = np.zeros_like(values)
        for c, h in zip(coeffs, noise.coefficient_fns):
            if c != 0.0:
                total += c * np.asarray(h(x, values), dtype=float)
        return total

    return pair


# ---------------------------------------------------------------------------
# sampled validation


@dataclass(frozen=True)
class AssumptionCheck:
    """One sampled structural check.

    `worst` is the largest sampled ratio for bound-type checks (pass needs
    <= 1 + slack) and the largest sampled violation for order-type checks
    (pass needs <= slack); the noise Lipschitz ratio is report-only and
    passes whenever finite.
    """

    name: str
    passed: bool
    worst: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    sample_count: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _derivative_check(name, f, fp, u, step=1e-5, tol=1e-6):
    fd = (np.asarray(f(u + step), dtype=float)
          - np.asarray(f(u - step), dtype=float)) / (2.0 * step)
    exact = np.asarray(fp(u), dtype=float)
    rel = np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))
    worst = float(np.max(rel))
    return AssumptionCheck(name, bool(worst <= tol), worst)


def validate_model(model: ModelSpec, sample_count: int = 256,
                   box_radius: float = 8.0) -> ValidationReport:
    """Sampled check of the structural assumptions behind a model triple.

    Deterministic Halton points in [0,1) x [-box_radius, box_radius] probe
    flux Lipschitz continuity and derivative consistency, diffusion
    monotonicity and coercivity, and noise growth plus joint Lipschitz
    behaviour.  Violations beyond 1e-9 slack fail the report.
    """
    if sample_count < 100:
        raise ValueError("sample_count must be at least 100")
    if model.noise.truncation == 0:
        raise ConfigurationError("noise truncation K must be positive")
    if not 0.0 < model.diffusion.theta < 1.0:
        raise ConfigurationError(
            f"theta must lie in (0, 1) for a full model, got {model.diffusion.theta}"
        )

    slack = 1e-9
    pts = qmc.Halton(d=2, scramble=False).random(sample_count)
    x = pts[:, 0]
    u = box_radius * (2.0 * pts[:, 1] - 1.0)
    a, b = u[:-1], u[1:]
    checks = []

    f, fp, lip_f = model.flux.eval, model.flux.deriv, model.flux.lipschitz_bound
    fa = np.asarray(f(a), dtype=float)
    fb = np.asarray(f(b), dtype=float)
    dist = np.abs(a - b)
    sel = dist > 0
    if lip_f > 0:
        ratio = float(np.max(np.abs(fa - fb)[sel] / (lip_f * dist[sel])))
    else:
        ratio = float(np.max(np.abs(fa - fb)))
    checks.append(AssumptionCheck("flux-lipschitz", bool(ratio <= 1.0 + slack), ratio))
    checks.append(_derivative_check("flux-derivative", f, fp, u))

    phi, phip, lip_p = (model.diffusion.eval, model.diffusion.deriv,
                        model.diffusion.lipschitz_bound)
    pa = np.asarray(phi(a), dtype=float)
    pb = np.asarray(phi(b), dtype=float)
    mono = float(np.max((pa - pb) * np.sign(b - a)))
    checks.append(AssumptionCheck("diffusion-monotone", bool(mono <= slack), mono))
    if lip_p > 0:
        coercive = float(np.max((pa - pb) ** 2 / lip_p - (pa - pb) * (a - b)))
    else:
        coercive = float(np.max((pa - pb) ** 2))
    checks.append(AssumptionCheck("diffusion-coercive", bool(coercive <= slack), coercive))
    checks.append(_derivative_check("diffusion-derivative", phi, phip, u))

    sq_sum = np.zeros_like(u)
    for h in model.noise.coefficient_fns:
        sq_sum += np.asarray(h(x, u), dtype=float) ** 2
    growth_ratio = float(np.max(sq_sum / ((1.0 + u * u) * model.noise.growth_const)))
    checks.append(AssumptionCheck("noise-growth",
                                  bool(growth_ratio <= 1.0 + slack), growth_ratio))

    # joint Lipschitz ratio: consecutive pairs plus near-diagonal probes
    x2 = np.concatenate([x[1:], (x + 1e-3) % 1.0])
    u2 = np.concatenate([u[1:], u + 1e-3])
    x1 = np.concatenate([x[:-1], x])
    u1 = np.concatenate([a, u])
    num = np.zeros_like(u1)
    for h in model.noise.coefficient_fns:
        num += (np.asarray(h(x1, u1), dtype=float)
                - np.asarray(h(x2, u2), dtype=float)) ** 2
    den = (x1 - x2) ** 2 + (u1 - u2) ** 2
    good = den > 0
    lip_ratio = float(np.max(num[good] / den[good]))
    checks.append(AssumptionCheck("noise-lipschitz", bool(np.isfinite(lip_ratio)),
                                  lip_ratio))

    return ValidationReport(checks=tuple(checks), sample_count=sample_count)
