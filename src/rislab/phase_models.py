"""Circular models of the per-reflector phase error.

Each model describes the random deviation of a reflector phase from its
ideal setting as a zero-mean, symmetric distribution on [-pi, pi).  The
quantities the analytics consume are the trigonometric moments
E[exp(j p Theta)], which are real for every supported model because of
the symmetry; the Monte Carlo engine additionally needs exact sampling,
which every model delivers as unit phasors exp(j Theta), the form the
engine consumes.

Supported variants:

* :class:`NoError`        the degenerate ideal setting, Theta = 0
* :class:`VonMises`       estimation error with concentration kappa
* :class:`Quantizer`      q-bit phase quantization, uniform on
                          [-pi/2^q, pi/2^q]
* :class:`UniformCircle`  no phase knowledge at all
* :class:`Product`        independent composition of the above (moments
                          and sampled phasors multiply)
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from . import numerics

__all__ = [
    "NoError",
    "PhaseErrorModel",
    "Product",
    "Quantizer",
    "UniformCircle",
    "VonMises",
    "from_config",
    "moment_by_integration",
]

_TWO_PI = 2.0 * math.pi

# numerical-integration oracle is limited to moderately oscillatory orders
MAX_INTEGRATION_ORDER = 16
_MOMENT_QUAD = numerics.QuadratureSpec(tolerance=1e-12, max_subdivisions=4000)


def _check_order(p: int) -> int:
    if p != int(p) or p < 0:
        raise numerics.DomainError(f"moment order must be a non-negative integer, got {p!r}")
    return int(p)


class PhaseErrorModel(abc.ABC):
    """Common surface of all phase-error models.

    Models are immutable; sampling draws from a caller-owned
    ``numpy.random.Generator`` so there is no hidden global state.
    """

    @abc.abstractmethod
    def trig_moment(self, p: int) -> float:
        """Closed-form trigonometric moment E[exp(j p Theta)], real valued."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size):
        """Draw unit phasors exp(j Theta), a complex array of shape ``size``.

        The simulator needs only cos Theta and sin Theta, so a sampler
        that finds them without the angle (the von Mises one) skips the
        round trip through arccos and back."""

    def pdf(self, theta):
        """Density on [-pi, pi); raises for models without one."""
        raise numerics.DomainError(f"{type(self).__name__} has no density")

    @abc.abstractmethod
    def to_config(self) -> dict:
        """JSON-serializable description of the model."""


@dataclass(frozen=True)
class NoError(PhaseErrorModel):
    """Perfectly estimated and configured phases: Theta = 0."""

    def trig_moment(self, p: int) -> float:
        _check_order(p)
        return 1.0

    def sample(self, rng, size):
        return np.ones(size, dtype=complex)

    def to_config(self) -> dict:
        return {"type": "none"}


@dataclass(frozen=True)
class VonMises(PhaseErrorModel):
    """Zero-mean von Mises error with concentration ``kappa`` >= 0.

    kappa = 0 coincides with the uniform distribution on the circle, the
    consistent limit of the Bessel-ratio moments.
    """

    kappa: float

    def __post_init__(self):
        if not (self.kappa >= 0.0 and math.isfinite(self.kappa)):
            raise numerics.DomainError(f"kappa must be finite and >= 0, got {self.kappa!r}")

    def trig_moment(self, p: int) -> float:
        p = _check_order(p)
        if p == 0:
            return 1.0
        if self.kappa == 0.0:
            return 0.0
        # scaled ratio survives arbitrarily large concentrations
        i0 = numerics.bessel_i_scaled(0, self.kappa)
        if i0 == 0.0:
            # above kappa ~ 2.86e307 the scaled Bessel functions underflow;
            # their ratio is 1 - p^2 / (2 kappa) there, 1.0 in double precision
            return 1.0 - p * p / (2.0 * self.kappa)
        return numerics.bessel_i_scaled(p, self.kappa) / i0

    def pdf(self, theta):
        theta = np.asarray(theta, dtype=float)
        i0e = numerics.bessel_i_scaled(0, self.kappa)
        return np.exp(self.kappa * (np.cos(theta) - 1.0)) / (_TWO_PI * i0e)

    def sample(self, rng, size):
        return _sample_von_mises(self.kappa, rng, int(np.prod(size))).reshape(size)

    def to_config(self) -> dict:
        return {"type": "von_mises", "kappa": self.kappa}


@dataclass(frozen=True)
class Quantizer(PhaseErrorModel):
    """Quantization error of a phase set with 2**bits levels.

    The error is uniform on [-w, w] with half-width w = pi / 2**bits, so
    the p-th moment is sin(p w) / (p w).
    """

    bits: int

    def __post_init__(self):
        if self.bits != int(self.bits) or self.bits < 1:
            raise numerics.DomainError(f"bits must be a positive integer, got {self.bits!r}")
        object.__setattr__(self, "bits", int(self.bits))

    @property
    def half_width(self) -> float:
        return math.pi / (2 ** self.bits)

    def trig_moment(self, p: int) -> float:
        p = _check_order(p)
        if p == 0:
            return 1.0
        if p % (2 ** self.bits) == 0:
            return 0.0  # sin(k*pi) is exactly zero
        x = p * self.half_width
        return math.sin(x) / x

    def pdf(self, theta):
        theta = np.asarray(theta, dtype=float)
        w = self.half_width
        return np.where(np.abs(theta) <= w, 1.0 / (2.0 * w), 0.0)

    def sample(self, rng, size):
        w = self.half_width
        return _phasors(rng.uniform(-w, w, size))

    def to_config(self) -> dict:
        return {"type": "quantizer", "bits": self.bits}


@dataclass(frozen=True)
class UniformCircle(PhaseErrorModel):
    """Complete phase uncertainty: uniform on [-pi, pi)."""

    def trig_moment(self, p: int) -> float:
        p = _check_order(p)
        return 1.0 if p == 0 else 0.0

    def pdf(self, theta):
        theta = np.asarray(theta, dtype=float)
        return np.full_like(theta, 1.0 / _TWO_PI)

    def sample(self, rng, size):
        return _phasors(rng.uniform(-math.pi, math.pi, size))

    def to_config(self) -> dict:
        return {"type": "uniform"}


@dataclass(frozen=True)
class Product(PhaseErrorModel):
    """Sum of independent errors, e.g. estimation plus quantization.

    The trigonometric moments of a sum of independent angles are the
    products of the component moments; sampling draws the components in
    order and multiplies their phasors, exp(j(T1 + T2)) = exp(j T1) exp(j T2).
    """

    components: tuple[PhaseErrorModel, ...]

    def __post_init__(self):
        if not self.components:
            raise numerics.DomainError("Product requires at least one component")
        object.__setattr__(self, "components", tuple(self.components))

    def trig_moment(self, p: int) -> float:
        p = _check_order(p)
        out = 1.0
        for comp in self.components:
            out *= comp.trig_moment(p)
        return out

    def sample(self, rng, size):
        total = self.components[0].sample(rng, size)
        for comp in self.components[1:]:
            total *= comp.sample(rng, size)
        return total

    def to_config(self) -> dict:
        return {"type": "product", "components": [c.to_config() for c in self.components]}


# ---------------------------------------------------------------------------
# sampling: unit phasors, and Best-Fisher rejection for von Mises
# ---------------------------------------------------------------------------


def _phasors(theta: np.ndarray) -> np.ndarray:
    """exp(j theta), its cos and sin written straight into the parts."""
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


# above this r - 1 ~ 1/(2 kappa) is kept apart from r: in r itself it
# loses every digit from kappa ~ 1e16 on, and no proposal is accepted
_LARGE_KAPPA = 1e4
# proposals per tile: the acceptance tests run on cache-sized pieces
_TILE = 1 << 13


def _sample_von_mises(kappa: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` phasors exp(j Theta) by Best-Fisher rejection (Best & Fisher
    1979, wrapped-Cauchy envelope): a proposal is f = cos Theta; an
    accepted one gives Re = f and Im = +-sqrt((1 - f)(1 + f)).

    The loop works with d = r - 1 and kc = kappa (r - 1)(r + 1) of the
    envelope parameter r, so that f = (1 + r z) / (r + z) is never formed:
    c = kappa (r - f) = kc / (r + z) and 1 - f = d (1 - z) / (r + z).

    Each pass draws u1 and u2 for every missing phasor, then tests the
    proposals in tiles of ``_TILE``, drawing each tile's u3 in turn, and
    writes the accepted phasors straight into the result: the stream is
    read in the same order whatever the tile size."""
    # below ~5.6e-309 1/kappa overflows, no proposal could be accepted,
    # and the law differs from uniform by less than kappa anyway
    if kappa == 0.0 or math.isinf(1.0 / kappa):
        return _phasors(rng.uniform(-math.pi, math.pi, n))
    if kappa > _LARGE_KAPPA:
        # with t = tau / (2 kappa): rho = t - sqrt(t / kappa), and
        # sqrt(kappa) (1 - rho) = sqrt(t) - sqrt(kappa) (t - 1) has no cancellation
        h = 0.5 / kappa
        t1 = h + h * h / (math.sqrt(1.0 + h * h) + 1.0)  # t - 1
        e = math.sqrt(1.0 + t1) - math.sqrt(kappa) * t1
        kd = e * e / (2.0 - 2.0 * e / math.sqrt(kappa))  # kappa (r - 1)
        d = kd / kappa
    else:
        if kappa < 1e-5:
            r = 1.0 / kappa + kappa  # Taylor form, avoids cancellation
        else:
            tau = 1.0 + math.sqrt(1.0 + 4.0 * kappa * kappa)
            rho = (tau - math.sqrt(2.0 * tau)) / (2.0 * kappa)
            r = (1.0 + rho * rho) / (2.0 * rho)
        d = r - 1.0
        kd = kappa * d
    kc = kd * (2.0 + d)

    out = np.empty(n, dtype=complex)
    filled = 0
    while filled < n:
        todo = n - filled
        u1 = rng.random(todo)
        u2 = rng.random(todo)
        for start in range(0, todo, _TILE):
            tile = slice(start, min(start + _TILE, todo))
            z = u1[tile]
            np.cos(np.multiply(z, np.pi, out=z), out=z)
            u3 = rng.random(z.size)
            # r + z as (1 + z) + (r - 1): r rounds to 1 from kappa ~ 5e15 on,
            # and z = -1 would leave a zero denominator
            den = z + 1.0
            den += d
            with np.errstate(over="ignore"):
                c = np.divide(kc, den)
            # squeeze test c (2 - c) > u2 first; the log test only where it fails
            v = u2[tile]
            squeeze = np.subtract(2.0, c)
            squeeze *= c
            accept = squeeze > v
            rejected = np.flatnonzero(~accept)
            c_rej = c[rejected]
            with np.errstate(divide="ignore", invalid="ignore"):
                accept[rejected] = np.log(c_rej / v[rejected]) + 1.0 - c_rej >= 0.0
            idx = np.flatnonzero(accept)
            # d <= r + z, so 1 - f lies in [0, 2] without clipping, and
            # dividing first keeps d (1 - z) from overflowing at tiny kappa
            one_minus_f = np.divide(d, den[idx])
            one_minus_f *= np.subtract(1.0, z[idx])
            part = slice(filled, filled + idx.size)
            np.subtract(1.0, one_minus_f, out=out.real[part])
            im = np.subtract(2.0, one_minus_f)
            im *= one_minus_f
            np.sqrt(im, out=im)
            # copysign, not sign(): u3 == 0.5 still yields a unit phasor
            np.copysign(im, u3[idx] - 0.5, out=out.imag[part])
            filled += idx.size
        del u1, u2, z, v  # z and v view u1 and u2: free them before the next pass
    return out


# ---------------------------------------------------------------------------
# integration oracle for the closed-form moments
# ---------------------------------------------------------------------------


def moment_by_integration(model: PhaseErrorModel, p: int) -> float:
    """p-th trigonometric moment by direct quadrature of cos(p theta) pdf.

    Independent of the closed forms in :meth:`PhaseErrorModel.trig_moment`;
    the degenerate :class:`NoError` has every moment exactly 1, and products
    recurse over their components (expectations of independent factors
    multiply).  Any other model without a density raises
    :class:`DomainError` from its ``pdf``.
    """
    p = _check_order(p)
    if p > MAX_INTEGRATION_ORDER:
        raise numerics.RangeError(
            f"integration oracle capped at order {MAX_INTEGRATION_ORDER}, got {p}"
        )
    if isinstance(model, NoError):
        return 1.0
    if isinstance(model, Product):
        out = 1.0
        for comp in model.components:
            out *= moment_by_integration(comp, p)
        return out
    # symmetric densities: the sine part vanishes and the cosine part doubles
    value = numerics.integrate(
        lambda th: np.cos(p * th) * model.pdf(th), 0.0, math.pi, _MOMENT_QUAD
    )
    return 2.0 * value


# ---------------------------------------------------------------------------
# config (de)serialization
# ---------------------------------------------------------------------------


def from_config(cfg: dict) -> PhaseErrorModel:
    """Build a model from its JSON form, e.g. {"type": "von_mises", "kappa": 8}."""
    try:
        kind = cfg["type"]
    except (TypeError, KeyError) as exc:
        raise numerics.DomainError(f"phase-error config needs a 'type': {cfg!r}") from exc
    if kind == "none":
        return NoError()
    if kind == "von_mises":
        return VonMises(kappa=float(cfg["kappa"]))
    if kind == "quantizer":
        return Quantizer(bits=cfg["bits"])
    if kind == "uniform":
        return UniformCircle()
    if kind == "product":
        return Product(components=tuple(from_config(c) for c in cfg["components"]))
    raise numerics.DomainError(f"unknown phase-error type {kind!r}")
