"""Model layer: flux, diffusion, and noise triples.

A model couples a scalar flux, a nondecreasing diffusion nonlinearity
applied under the fractional Laplacian, and a truncated family of noise
coefficients h_k(x, u) = A_k(x) + B_k(x) u, affine in the state.
Structural assumptions (Lipschitz bounds, monotonicity, quadratic noise
growth) are checked by quasi-random sampling, not symbolically: the building
blocks are opaque callables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    """Scalar flux with its first two derivatives and a declared global
    Lipschitz bound.

    deriv2 is the derivative of deriv; where deriv has a kink, it takes the
    value of one side, which each family names."""

    eval: Callable
    deriv: Callable
    deriv2: Callable
    lipschitz_bound: float
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
    """Truncated noise family h_k(x, u) = A_k(x) + B_k(x) u, k = 1..K.

    tables(x) returns the tables (A, B) at the points x, a float array,
    each of shape (K, len(x)); noise_tables checks the shapes.
    """

    truncation: int
    tables: Callable
    growth_const: float
    name: str = "custom"

    def __post_init__(self):
        if self.truncation < 1:
            raise ConfigurationError(
                f"need at least one noise mode, got K={self.truncation}")


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

    def fpp(u):
        return np.zeros_like(np.asarray(u, dtype=float))

    return FluxSpec(eval=f, deriv=fp, deriv2=fpp, lipschitz_bound=abs(s),
                    name="advection")


def burgers_clamped(clamp: float = 4.0) -> FluxSpec:
    """u^2/2 with derivative clamped to [-clamp, clamp]; linear growth outside.

    Clamping is what makes the flux globally Lipschitz.  At |u| = clamp the
    second derivative takes the outer side's value 0.
    """
    if clamp <= 0:
        raise ConfigurationError("clamp must be positive")
    m = float(clamp)

    def f(u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) <= m, 0.5 * u * u, m * np.abs(u) - 0.5 * m * m)

    def fp(u):
        return np.clip(np.asarray(u, dtype=float), -m, m)

    def fpp(u):
        return np.where(np.abs(np.asarray(u, dtype=float)) < m, 1.0, 0.0)

    return FluxSpec(eval=f, deriv=fp, deriv2=fpp, lipschitz_bound=m, name="burgers")


def cubic_smoothed(clamp: float = 4.0) -> FluxSpec:
    """u^3/3 with derivative u^2 capped at clamp; linear growth outside the cap.

    At u^2 = clamp the second derivative takes the outer side's value 0.
    """
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

    def fpp(u):
        u = np.asarray(u, dtype=float)
        return np.where(u * u < m, 2.0 * u, 0.0)

    return FluxSpec(eval=f, deriv=fp, deriv2=fpp, lipschitz_bound=m, name="cubic")


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


def _weights(count: int, q: float) -> list:
    """k^-q for k = 1..count, each rounded as the scalar float(k) ** -q."""
    if not q > 0.5:
        raise ConfigurationError(f"decay exponent must exceed 1/2, got {q}")
    return [float(k) ** (-q) for k in range(1, count + 1)]


def diagonal_decay_noise(truncation: int = 16, q: float = 1.0,
                         a: float = 1.0, b: float = 1.0) -> NoiseSpec:
    """h_k(x, u) = k^-q (a sin(2 pi k x) + b u)."""
    weights = _weights(truncation, q)

    def tables(x):
        return (np.stack([w * (a * np.sin(2.0 * np.pi * k * x))
                          for k, w in enumerate(weights, 1)]),
                np.stack([np.full_like(x, w * b) for w in weights]))

    growth = 2.0 * max(a * a, b * b) * float(np.sum(np.square(weights)))
    return NoiseSpec(truncation=truncation, tables=tables, growth_const=growth,
                     name="diagonal-decay")


def additive_noise(truncation: int = 16, q: float = 1.0, offset: float = 0.0) -> NoiseSpec:
    """State-independent family h_k(x) = k^-q (cos(2 pi k x) + offset)."""
    weights = _weights(truncation, q)

    def tables(x):
        a = np.stack([w * (np.cos(2.0 * np.pi * k * x) + offset)
                      for k, w in enumerate(weights, 1)])
        return a, np.zeros_like(a)

    growth = (1.0 + abs(offset)) ** 2 * float(np.sum(np.square(weights)))
    return NoiseSpec(truncation=truncation, tables=tables, growth_const=growth,
                     name="additive")


def paired_harmonic_noise(pairs: int = 8, q: float = 1.0) -> NoiseSpec:
    """Additive family with equal-weight cosine/sine pairs per spatial frequency.

    Mode 2m-1 is m^-q cos(2 pi m x) and mode 2m is m^-q sin(2 pi m x), so each
    frequency is driven isotropically in the complex plane.
    """
    weights = _weights(pairs, q)

    def tables(x):
        rows = []
        for m, w in enumerate(weights, 1):
            rows.append(w * np.cos(2.0 * np.pi * m * x))
            rows.append(w * np.sin(2.0 * np.pi * m * x))
        a = np.stack(rows)
        return a, np.zeros_like(a)

    growth = float(np.sum(np.square(weights)))
    return NoiseSpec(truncation=2 * pairs, tables=tables, growth_const=growth,
                     name="paired-harmonic")


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

    def tables(x):
        a, b = noise_tables(model.noise, x)
        frozen = a + b * float(state)
        return frozen, np.zeros_like(frozen)

    noise = NoiseSpec(truncation=model.noise.truncation, tables=tables,
                      growth_const=model.noise.growth_const * (1.0 + state * state),
                      name=f"{model.noise.name}-frozen")
    return ModelSpec(flux=linear_advection(fslope),
                     diffusion=linear_diffusion(pslope, model.diffusion.theta),
                     noise=noise)


# ---------------------------------------------------------------------------
# noise evaluation


def noise_tables(noise: NoiseSpec, x):
    """Tables (A, B) with h_k(x, u) = A_k(x) + B_k(x) u at the points x,
    each of shape (K, len(x))."""
    x = np.asarray(x, dtype=float)
    a, b = noise.tables(x)
    shape = (noise.truncation, len(x))
    if a.shape != shape or b.shape != shape:
        raise ConfigurationError(
            f"noise tables of shapes {a.shape} and {b.shape}, expected {shape}")
    return a, b


def _row_products(coeffs, table):
    """coeffs @ table row by row: one (M, K) @ (K, N) product would round
    each row differently as M changes, and from the row fed alone."""
    if coeffs.ndim == 1:
        return coeffs @ table
    return np.matmul(coeffs[:, None, :], table)[:, 0, :]


def noise_pairing(noise: NoiseSpec, grid: GridSpec):
    """The pairing sum_k c_k h_k(x, u(x)) on the grid's nodes, as a function
    pair(values, coeffs) of the nodal state and the K coefficients.

    The solver pairs the Wiener increments and the skeleton pairs the control
    through this routine.  coeffs is one vector (K,) for every row of values,
    or a batch (M, K) with row m for row m of values (..., M, N).
    pair.split(coeffs) pairs the coefficients with the tables once, giving
    (A c, B c), and pair.at(values, split) = A c + values * B c is
    pair(values, coeffs) bit for bit: a control constant over many steps is
    split once.

    The adjoint gradient takes two derivatives from the same tables:
    pair.slope(coeffs) = sum_k c_k B_k, the derivative of the pairing in
    the state, and pair.transpose(values, cotangents) = the K sums
    sum_x h_k(x, u(x)) w(x), its transpose in the coefficients, row by row:
    cotangents (..., N), and values that broadcast to them, give (..., K),
    each row the bits of that row fed alone.
    """
    a, b = noise_tables(noise, grid.nodes())

    def split(coeffs):
        return _row_products(coeffs, a), _row_products(coeffs, b)

    def at(values, paired):
        ac, bc = paired
        return ac + values * bc

    def pair(values, coeffs):
        return at(values, split(coeffs))

    def slope(coeffs):
        return _row_products(coeffs, b)

    def transpose(values, cotangents):
        rows = cotangents.reshape(-1, cotangents.shape[-1])
        weighted = (values * cotangents).reshape(rows.shape)
        return (_row_products(rows, a.T) + _row_products(weighted, b.T)).reshape(
            cotangents.shape[:-1] + (-1,))

    pair.split = split
    pair.at = at
    pair.slope = slope
    pair.transpose = transpose
    return pair


# ---------------------------------------------------------------------------
# sampled validation


@dataclass(frozen=True)
class AssumptionCheck:
    """One sampled structural check.

    `worst` is the largest sampled ratio for bound-type checks (pass needs
    <= 1 + slack) and the largest sampled violation for order-type checks
    (pass needs <= slack).
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


def _halton(n: int) -> np.ndarray:
    """First n points of the unscrambled Halton sequence in bases 2 and 3:
    the radical inverses of 0 .. n-1, summed from the lowest digit."""
    points = np.zeros((n, 2))
    for col, base in enumerate((2, 3)):
        index = np.arange(n)
        scale = 1.0
        while np.any(index):
            scale /= base
            index, digit = np.divmod(index, base)
            points[:, col] += digit * scale
    return points


def _derivative_check(name, f, fp, u, step=1e-5, tol=1e-6):
    """Each central difference quotient of f against the range fp spans at
    u - step, u and u + step, relative to max(1, |fp(u)|): the quotient
    across a kink of fp lies between its one-sided values."""
    fd = (np.asarray(f(u + step), dtype=float)
          - np.asarray(f(u - step), dtype=float)) / (2.0 * step)
    slopes = np.stack([np.asarray(fp(v), dtype=float) for v in (u - step, u, u + step)])
    outside = np.maximum(fd - np.max(slopes, axis=0), np.min(slopes, axis=0) - fd)
    rel = np.maximum(outside, 0.0) / np.maximum(1.0, np.abs(slopes[1]))
    worst = float(np.max(rel))
    return AssumptionCheck(name, bool(worst <= tol), worst)


@np.errstate(all="ignore")  # a non-finite value fails its check, silently
def validate_model(model: ModelSpec, sample_count: int = 256) -> ValidationReport:
    """Sampled check of the structural assumptions behind a model triple.

    Deterministic Halton points in [0,1) x [-8, 8] probe flux Lipschitz
    continuity and the consistency of both flux derivatives, diffusion
    monotonicity and coercivity, and the quadratic growth of the noise,
    which also catches non-finite noise tables.  Violations beyond 1e-9
    slack fail the report, coercivity's relative to its larger term.
    """
    if sample_count < 100:
        raise ValueError("sample_count must be at least 100")
    if not 0.0 < model.diffusion.theta < 1.0:
        raise ConfigurationError(
            f"theta must lie in (0, 1) for a full model, got {model.diffusion.theta}"
        )

    slack = 1e-9
    pts = _halton(sample_count)
    x = pts[:, 0]
    u = 8.0 * (2.0 * pts[:, 1] - 1.0)
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
    checks.append(_derivative_check("flux-second-derivative", fp, model.flux.deriv2, u))

    phi, phip, lip_p = (model.diffusion.eval, model.diffusion.deriv,
                        model.diffusion.lipschitz_bound)
    pa = np.asarray(phi(a), dtype=float)
    pb = np.asarray(phi(b), dtype=float)
    mono = float(np.max((pa - pb) * np.sign(b - a)))
    checks.append(AssumptionCheck("diffusion-monotone", bool(mono <= slack), mono))
    if lip_p > 0:
        lhs, rhs = (pa - pb) ** 2 / lip_p, (pa - pb) * (a - b)
    else:
        lhs, rhs = (pa - pb) ** 2, np.zeros_like(pa)
    coercive = float(np.max((lhs - rhs) / np.maximum(1.0, np.maximum(lhs, np.abs(rhs)))))
    checks.append(AssumptionCheck("diffusion-coercive", bool(coercive <= slack), coercive))
    checks.append(_derivative_check("diffusion-derivative", phi, phip, u))

    a_table, b_table = noise_tables(model.noise, x)
    sq_sum = np.sum((a_table + b_table * u) ** 2, axis=0)
    growth_ratio = float(np.max(sq_sum / ((1.0 + u * u) * model.noise.growth_const)))
    checks.append(AssumptionCheck("noise-growth",
                                  bool(growth_ratio <= 1.0 + slack), growth_ratio))

    return ValidationReport(checks=tuple(checks), sample_count=sample_count)
