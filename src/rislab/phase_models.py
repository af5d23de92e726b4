"""Circular models of the per-reflector phase error.

Each model describes the random deviation of a reflector phase from its
ideal setting as a zero-mean, symmetric distribution on [-pi, pi).  The
quantities the analytics consume are the trigonometric moments
E[exp(j p Theta)], which are real for every supported model because of
the symmetry; the Monte Carlo engine additionally needs exact sampling,
which every model delivers as unit phasors exp(j Theta), the form the
engine consumes, in arrays of the shape the caller asks for.  A product
draws its components in turn from the one generator.  Every model but
:class:`Product` also carries a fixed quadrature rule of its law,
``nodes()``, from which :func:`moment_by_integration` checks the closed
forms without using them.

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
import functools
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

# the quadrature rules are checked to 1e-13 up to this order
MAX_INTEGRATION_ORDER = 16
# nodes of the midpoint rules of the von Mises and uniform laws
_MIDPOINTS = 64


def _shape(size) -> tuple[int, ...]:
    """``size`` of a ``sample`` call as a shape of non-negative integers,
    where numpy would return an empty array for a negative count."""
    return tuple(numerics.check_count(s, "size") for s in (size if isinstance(size, (tuple, list)) else (size,)))


class PhaseErrorModel(abc.ABC):
    """Common surface of all phase-error models.

    Models are immutable; sampling draws from a caller-owned
    ``numpy.random.Generator`` so there is no hidden global state.
    """

    @abc.abstractmethod
    def trig_moment(self, p: int) -> float:
        """Closed-form trigonometric moment E[exp(j p Theta)], real valued."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw unit phasors exp(j Theta), a complex array of shape
        ``size`` (a non-negative integer or a tuple of them), from ``rng``.

        The simulator needs only cos Theta and sin Theta, so a sampler
        that finds them without the angle (the von Mises one) skips the
        round trip through arccos and back."""

    @abc.abstractmethod
    def to_config(self) -> dict:
        """JSON-serializable description of the model."""


@dataclass(frozen=True)
class NoError(PhaseErrorModel):
    """Perfectly estimated and configured phases: Theta = 0."""

    def trig_moment(self, p: int) -> float:
        numerics.check_count(p, "moment order")
        return 1.0

    def sample(self, rng, size):
        return np.ones(_shape(size), dtype=complex)

    def nodes(self):
        return np.zeros(1), np.ones(1)

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
        object.__setattr__(self, "kappa", numerics.check_real(self.kappa, "kappa"))

    def trig_moment(self, p: int) -> float:
        p = numerics.check_count(p, "moment order")
        # scaled ratio survives arbitrarily large concentrations, and is
        # exactly 1 at p = 0 and 0 at kappa = 0
        return numerics.bessel_i_scaled(p, self.kappa) / numerics.bessel_i_scaled(0, self.kappa)

    def pdf(self, theta):
        theta = np.asarray(theta, dtype=float)
        i0e = numerics.bessel_i_scaled(0, self.kappa)
        # kappa (cos theta - 1) <= 0 may overflow to -inf, whose exp is the right 0
        with np.errstate(over="ignore"):
            return np.exp(self.kappa * (np.cos(theta) - 1.0)) / (_TWO_PI * i0e)

    def nodes(self):
        """Midpoints of [-w, w], w = min(pi, 14 / sqrt(kappa)), weighted by
        the density and scaled to sum 1, not by I_0, so the rule does not
        lean on the closed form.  Beyond 14 widths 1 / sqrt(kappa) the
        density has fallen below exp(-98) of its peak."""
        w = min(math.pi, 14.0 / math.sqrt(self.kappa)) if self.kappa else math.pi
        theta = _midpoints(w)
        weights = self.pdf(theta)
        return theta, weights / weights.sum()

    def sample(self, rng, size):
        return _sample_von_mises(self.kappa, rng, _shape(size))

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
        # from 1024 bits on, 2**bits overflows a double
        object.__setattr__(self, "bits", numerics.check_count(self.bits, "bits", 1, 1023))

    @property
    def half_width(self) -> float:
        return math.pi / (2 ** self.bits)

    def trig_moment(self, p: int) -> float:
        p = numerics.check_count(p, "moment order")
        if p == 0:
            return 1.0
        if p % (2 ** self.bits) == 0:
            return 0.0  # sin(k*pi) is exactly zero
        x = p * self.half_width
        return math.sin(x) / x

    def nodes(self):
        """32-point Gauss-Legendre rule on [-w, w], its weights halved."""
        x, weights = numerics.gauss_legendre(32)
        return self.half_width * x, 0.5 * weights

    def sample(self, rng, size):
        return _phasors(rng.uniform(-self.half_width, self.half_width, _shape(size)))

    def to_config(self) -> dict:
        return {"type": "quantizer", "bits": self.bits}


@dataclass(frozen=True)
class UniformCircle(PhaseErrorModel):
    """Complete phase uncertainty: uniform on [-pi, pi)."""

    def trig_moment(self, p: int) -> float:
        p = numerics.check_count(p, "moment order")
        return 1.0 if p == 0 else 0.0

    def nodes(self):
        return _midpoints(math.pi), np.full(_MIDPOINTS, 1.0 / _MIDPOINTS)

    def sample(self, rng, size):
        return _phasors(rng.uniform(-math.pi, math.pi, _shape(size)))

    def to_config(self) -> dict:
        return {"type": "uniform"}


@dataclass(frozen=True)
class Product(PhaseErrorModel):
    """Sum of independent errors, e.g. estimation plus quantization.

    The trigonometric moments of a sum of independent angles are the
    products of the component moments; sampling multiplies the component
    phasors, exp(j(T1 + T2)) = exp(j T1) exp(j T2).
    """

    components: tuple[PhaseErrorModel, ...]

    def __post_init__(self):
        comps = tuple(self.components) if isinstance(self.components, (tuple, list)) else ()
        if not comps or not all(isinstance(c, PhaseErrorModel) for c in comps):
            raise numerics.DomainError(
                f"Product requires a non-empty tuple of phase-error models, got {self.components!r}"
            )
        object.__setattr__(self, "components", comps)

    def trig_moment(self, p: int) -> float:
        p = numerics.check_count(p, "moment order")
        out = 1.0
        for comp in self.components:
            out *= comp.trig_moment(p)
        return out

    def sample(self, rng, size):
        """The components draw in turn from ``rng``; ``np.multiply`` keeps
        the product out of place, where numpy's in-place complex loop
        rounds otherwise (``a * b`` may reuse a temporary from 256 kB on)."""
        shape = _shape(size)
        z = self.components[0].sample(rng, shape)
        for comp in self.components[1:]:
            z = np.multiply(z, comp.sample(rng, shape))
        return z

    def to_config(self) -> dict:
        return {"type": "product", "components": [c.to_config() for c in self.components]}


# ---------------------------------------------------------------------------
# sampling: unit phasors, and Best-Fisher rejection for von Mises
# ---------------------------------------------------------------------------


def _phasors(theta: np.ndarray) -> np.ndarray:
    """exp(j theta) from t = tan(theta / 2): cos theta = 2 / (1 + t^2) - 1
    and sin theta = 2 t / (1 + t^2), written straight into the parts.
    numpy's float64 tan has a SIMD loop on AVX512 machines, where cos and
    sin run scalar libm; at theta = +-pi, t ~ 1.6e16 and t^2 stays far
    from overflow."""
    t = np.multiply(theta, 0.5)
    np.tan(t, out=t)
    g = np.multiply(t, t)
    g += 1.0
    np.divide(2.0, g, out=g)
    out = np.empty(theta.shape, dtype=complex)
    np.subtract(g, 1.0, out=out.real)
    np.multiply(g, t, out=out.imag)
    return out


# most proposals per von Mises rejection round: part of the definition
# of the stream, like montecarlo.BLOCK_TRIALS
_ROUND = 1 << 13


def _proposal(u: np.ndarray, plus=None, s=None) -> tuple[np.ndarray, np.ndarray]:
    """1 + z and 1 - z of the Best-Fisher proposal z = cos(pi u), u in
    [0, 1), without a cosine: with t = tan((u - 1/2) pi/2) in [-1, 1),
    1 + z = (1 - t)^2 / (1 + t^2) and 1 - z = (1 + t)^2 / (1 + t^2), which
    have no cancellation at z = +-1.  Overwrites ``u`` with 1 - z, and
    writes 1 + z and 1 + t^2 into ``plus`` and ``s`` where given."""
    t = u
    t -= 0.5
    t *= 0.5 * np.pi
    np.tan(t, out=t)
    s = np.multiply(t, t, out=s)
    s += 1.0
    plus = np.subtract(1.0, t, out=plus)
    plus *= plus
    plus /= s
    t += 1.0
    t *= t
    t /= s
    return plus, t


def _envelope(kappa: float) -> tuple[float, float]:
    """d = r - 1 and kc = kappa (r - 1)(r + 1) of the Best-Fisher
    envelope parameter r = (1 + rho^2) / (2 rho), for kappa > 0 with
    1 / kappa finite.  With h = sqrt(1/4 + kappa^2), t = 1/2 + h and
    q = sqrt(t), the textbook rho = (t - q) / kappa is kappa / (t + q), so
    1 - rho = (1/2 + 1 / (4 (h + kappa)) + q) / (t + q), as h - kappa =
    1 / (4 (h + kappa)), and kappa (r - 1) = (1 - rho)^2 (t + q) / 2: all
    terms are positive, so nothing cancels or overflows at any kappa.
    The rounding of r moves only the acceptance rate, not the law, as
    the test accepts with c exp(1 - c), proportional to target over
    envelope for any r > 1."""
    h = math.hypot(0.5, kappa)
    t = 0.5 + h
    q = math.sqrt(t)
    one_minus_rho = (0.5 + 0.25 / (h + kappa) + q) / (t + q)
    kd = 0.5 * one_minus_rho * one_minus_rho * (t + q)  # kappa (r - 1)
    d = kd / kappa
    return d, kd * (2.0 + d)


@functools.cache
def _round_scratch(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch arrays of a rejection round of up to ``size`` proposals,
    made once per process and reused by every call: eight rows of
    doubles and two of flags.  Arrays made and freed in every round let
    glibc trim the heap top and fault the pages in again."""
    return np.empty((8, size)), np.empty((2, size), dtype=bool)


def _sample_von_mises(kappa: float, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Phasors exp(j Theta) of shape ``shape``, by Best-Fisher rejection
    (Best & Fisher 1979, wrapped-Cauchy envelope): a proposal is
    f = cos Theta; an accepted one gives Re = f and Im = +-sqrt((1 - f)(1 + f)).

    The loop works with d = r - 1 and kc = kappa (r - 1)(r + 1) of the
    envelope parameter r, so that f = (1 + r z) / (r + z) is never formed:
    c = kappa (r - f) = kc / (r + z) and 1 - f = d (1 - z) / (r + z).
    z = cos(pi u1) is not formed either: ``_proposal`` gives 1 + z and
    1 - z in tangent form.

    A round takes size = min(_ROUND, missing * 3 // 2 + 16) proposals: it
    reads size doubles each of u1, u2 and u3, in that order, straight
    from ``rng``, so every bit generator is read the same way.  Its
    accepted phasors fill the output in order, and those past ``missing``
    are dropped.  As no kappa accepts fewer than 0.657 of the proposals,
    the margin over ``missing`` ends most calls for 8192 values in two
    rounds; a round of ``missing`` alone would take seven to nine.  The
    round's draws, intermediates, flags and gathers live in the scratch
    arrays of ``_round_scratch``; only the index arrays are made anew."""
    # below ~5.6e-309 1/kappa overflows, no proposal could be accepted,
    # and the law differs from uniform by less than kappa anyway
    if kappa == 0.0 or math.isinf(1.0 / kappa):
        return _phasors(rng.uniform(-math.pi, math.pi, shape))
    d, kc = _envelope(kappa)
    (u_all, v_all, sign_all, plus_all, s_all, c_all, g_all, h_all), (accept_all, flag_all) = _round_scratch(_ROUND)

    out = np.empty(shape, dtype=complex)
    flat = out.reshape(-1)
    filled = 0
    while filled < flat.size:
        missing = flat.size - filled
        size = min(_ROUND, missing * 3 // 2 + 16)
        u, v, sign = rng.random(out=u_all[:size]), rng.random(out=v_all[:size]), rng.random(out=sign_all[:size])
        # r + z as (1 + z) + (r - 1): r rounds to 1 from kappa ~ 5e15 on
        den, one_minus_z = _proposal(u, plus_all[:size], s_all[:size])
        den += d
        with np.errstate(over="ignore"):
            c = np.divide(kc, den, out=c_all[:size])
        # squeeze test c (2 - c) > u2 first; the log test only where it fails
        squeeze = np.subtract(2.0, c, out=s_all[:size])
        squeeze *= c
        accept = np.greater(squeeze, v, out=accept_all[:size])
        rejected = np.flatnonzero(np.logical_not(accept, out=flag_all[:size]))
        k = rejected.size
        # gathers with mode="clip" (the indices are in range): numpy
        # buffers ``out`` under the default "raise"
        c_rej = np.take(c, rejected, out=g_all[:k], mode="clip")
        test = np.take(v, rejected, out=h_all[:k], mode="clip")
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(c_rej, test, out=test)
            np.log(test, out=test)
        test += 1.0
        test -= c_rej
        accept[rejected] = np.greater_equal(test, 0.0, out=flag_all[:k])
        idx = np.flatnonzero(accept)[:missing]
        k = idx.size
        # d <= r + z, so 1 - f lies in [0, 2] without clipping, and
        # dividing first keeps d (1 - z) from overflowing at tiny kappa
        one_minus_f = np.take(den, idx, out=g_all[:k], mode="clip")
        np.divide(d, one_minus_f, out=one_minus_f)
        one_minus_f *= np.take(one_minus_z, idx, out=h_all[:k], mode="clip")
        im = np.subtract(2.0, one_minus_f, out=h_all[:k])
        im *= one_minus_f
        np.sqrt(im, out=im)
        part = slice(filled, filled + k)
        np.subtract(1.0, one_minus_f, out=flat.real[part])
        # copysign, not sign(): u3 == 0.5 still yields a unit phasor
        half = np.take(sign, idx, out=s_all[:k], mode="clip")
        half -= 0.5
        np.copysign(im, half, out=flat.imag[part])
        filled += k
    return out


# ---------------------------------------------------------------------------
# quadrature oracle for the closed-form moments
# ---------------------------------------------------------------------------


def _midpoints(w: float) -> np.ndarray:
    """Midpoints of ``_MIDPOINTS`` equal cells of [-w, w], symmetric bit for bit."""
    return w * ((2.0 * np.arange(_MIDPOINTS) + 1.0) / _MIDPOINTS - 1.0)


def moment_by_integration(model: PhaseErrorModel, p: int) -> float:
    """p-th trigonometric moment as sum_k w_k cos(p theta_k) over the
    model's quadrature rule ``nodes()``.

    Independent of the closed forms in :meth:`PhaseErrorModel.trig_moment`;
    products recurse over their components (expectations of independent
    factors multiply).
    """
    p = numerics.check_count(p, "moment order")
    if p > MAX_INTEGRATION_ORDER:
        raise numerics.RangeError(
            f"integration oracle capped at order {MAX_INTEGRATION_ORDER}, got {p}"
        )
    if isinstance(model, Product):
        out = 1.0
        for comp in model.components:
            out *= moment_by_integration(comp, p)
        return out
    theta, weights = model.nodes()
    return float(weights @ np.cos(p * theta))


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
        return VonMises(kappa=cfg["kappa"])
    if kind == "quantizer":
        return Quantizer(bits=cfg["bits"])
    if kind == "uniform":
        return UniformCircle()
    if kind == "product":
        return Product(components=tuple(from_config(c) for c in cfg["components"]))
    raise numerics.DomainError(f"unknown phase-error type {kind!r}")
