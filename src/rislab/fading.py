"""Unit-power fading models for the two constituent hops of each reflector.

Only two statistics of a hop matter to the large-surface analytics: the
power is normalized to E[|H|^2] = 1 and the mean magnitude E[|H|] < 1,
``magnitude_moment(1)``, enters the equivalent-channel parameters.  The
simulator's control variates also read the third and fourth magnitude
moments.  The built-in families are Rayleigh and Rician (any finite K
factor); anything satisfying the same unit-power and moment contract
could be added behind :class:`FadingModel`.

A model reads its stream one magnitude after the other, so the
simulator can draw a hop's magnitudes row tile by row tile from that
hop's own stream and get the values of one whole draw.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from . import numerics

__all__ = ["FadingModel", "Rayleigh", "Rician", "from_config"]

_SQRT_PI_HALF = math.sqrt(math.pi) / 2.0
# E|H|^k = Gamma(1 + k/2) of unit-power Rayleigh fading, k = 0..4
_RAYLEIGH_MOMENTS = (1.0, _SQRT_PI_HALF, 1.0, 1.5 * _SQRT_PI_HALF, 2.0)
_BELOW_ONE = math.nextafter(1.0, 0.0)


class FadingModel(abc.ABC):
    """Immutable description of one hop's fading law."""

    @abc.abstractmethod
    def magnitude_moment(self, k: int) -> float:
        """E[|H|^k] for k = 0..4: 1 at k = 0 and 2, and at k = 1 the mean
        magnitude a, strictly inside (0, 1) for unit-power fading."""

    @abc.abstractmethod
    def sample_magnitude(self, rng: np.random.Generator, size=None):
        """Draws of the magnitude |H| of the fading coefficient, E[|H|^2] = 1,
        read from the stream one magnitude after the other: drawing k then
        m magnitudes gives the values of one draw of k + m."""

    @abc.abstractmethod
    def to_config(self) -> dict:
        """JSON-serializable description."""


@dataclass(frozen=True)
class Rayleigh(FadingModel):
    """Circularly symmetric complex normal with unit power."""

    def magnitude_moment(self, k: int) -> float:
        return _RAYLEIGH_MOMENTS[numerics.check_count(k, "moment order", 0, 4)]

    def sample_magnitude(self, rng, size=None):
        return rng.rayleigh(scale=math.sqrt(0.5), size=size)

    def to_config(self) -> dict:
        return {"type": "rayleigh"}


@dataclass(frozen=True)
class Rician(FadingModel):
    """Line-of-sight plus diffuse fading with Rice factor ``k_factor``.

    The deterministic component carries power K/(K+1) and the diffuse
    part 1/(K+1), keeping the total at unity.  The line-of-sight phase is
    fixed at zero: only the magnitude reaches the equivalent channel, the
    composite phase being absorbed by the reflector configuration.
    """

    k_factor: float

    def __post_init__(self):
        object.__setattr__(self, "k_factor", numerics.check_real(self.k_factor, "k_factor"))

    def magnitude_moment(self, k: int) -> float:
        """E|H|^k = Gamma(1 + k/2) (K+1)^(-k/2) L_{k/2}(-K).  At k = 1 the
        Laguerre form is the stable evaluation of the confluent-
        hypergeometric mean of a Rice magnitude (see
        numerics.laguerre_half); from K ~ 4e15 on it may round to 1.0 or
        above, and is then kept just below 1.  With x = 1/(K+1), L_2(-K)
        = (K^2 + 4K + 2)/2 gives 1 + x (2 - x) at k = 4; at k = 3 the
        recurrence 1.5 L_{3/2}(-K) = (2 + K) L_{1/2}(-K) - L_{-1/2}(-K)/2,
        with L_{-1/2}(-K) = exp(-K/2) I_0(K/2), is grouped so that no
        factor overflows or underflows at any finite K."""
        k = numerics.check_count(k, "moment order", 0, 4)
        if k == 1:
            a = math.sqrt(math.pi / (4.0 * (self.k_factor + 1.0))) * numerics.laguerre_half(self.k_factor)
            return min(a, _BELOW_ONE)
        x = 1.0 / (self.k_factor + 1.0)
        if k == 4:
            return 1.0 + x * (2.0 - x)
        if k == 3:
            root = math.sqrt(x)
            lag = numerics.laguerre_half(self.k_factor)
            i0 = numerics.bessel_i_scaled(0, 0.5 * self.k_factor)
            return _SQRT_PI_HALF * ((2.0 + self.k_factor) * x * (lag * root) - 0.5 * i0 * x * root)
        return 1.0

    def _parts(self) -> tuple[float, float]:
        k = self.k_factor
        los = math.sqrt(k / (k + 1.0))
        diffuse = math.sqrt(1.0 / (k + 1.0))
        return los, diffuse

    def sample_magnitude(self, rng, size=None):
        """|los + s (X + jY)| with s = diffuse / sqrt(2), each magnitude
        from its own pair (X, Y) of consecutive normal draws."""
        los, diffuse = self._parts()
        shape = () if size is None else tuple(np.atleast_1d(size))
        z = rng.standard_normal(shape + (2,)).view(complex)[..., 0]
        z *= diffuse / math.sqrt(2.0)
        z += los
        return np.abs(z)

    def to_config(self) -> dict:
        return {"type": "rician", "k_factor": self.k_factor}


def from_config(cfg: dict) -> FadingModel:
    """Build a model from its JSON form, e.g. {"type": "rician", "k_factor": 1.0}."""
    try:
        kind = cfg["type"]
    except (TypeError, KeyError) as exc:
        raise numerics.DomainError(f"fading config needs a 'type': {cfg!r}") from exc
    if kind == "rayleigh":
        return Rayleigh()
    if kind == "rician":
        return Rician(k_factor=cfg["k_factor"])
    raise numerics.DomainError(f"unknown fading type {kind!r}")
