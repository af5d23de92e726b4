"""Shared test stubs: models with pinned moments / mean magnitudes, a
generator that records the draws asked of it, and a reference Q."""

import math

import numpy as np

from rislab import fading as fd
from rislab import numerics as nx
from rislab import phase_models as pm


class FixedMoments(pm.PhaseErrorModel):
    """Phase-error stub with prescribed first two circular moments."""

    def __init__(self, phi1, phi2):
        self.phi1 = phi1
        self.phi2 = phi2

    def trig_moment(self, p):
        return {0: 1.0, 1: self.phi1, 2: self.phi2}[p]

    def sample(self, rng, size):
        raise NotImplementedError

    def to_config(self):
        return {"type": "fixed", "phi1": self.phi1, "phi2": self.phi2}


class RecordingGenerator:
    """Passes ``random`` and ``uniform`` through to ``rng`` and records
    each size asked for (that of ``out`` where ``random`` fills one)."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def random(self, size=None, out=None):
        self.sizes.append(size if out is None else out.size)
        return self.rng.random(size, out=out)

    def uniform(self, low, high, size):
        self.sizes.append(size)
        return self.rng.uniform(low, high, size)


class FixedMeanMagnitude(fd.FadingModel):
    """Fading stub pinning the hop mean magnitude."""

    def __init__(self, a):
        self.a = a

    def magnitude_moment(self, k):
        if k != 1:
            raise NotImplementedError
        return self.a

    def sample_magnitude(self, rng, size=None):
        raise NotImplementedError

    def to_config(self):
        return {"type": "fixed", "a": self.a}


def masked_gauss_q(x):
    """Q(x) for x >= 0 in any order, the three Cody ranges evaluated under
    boolean masks on gathered copies: the reference for the bytes of
    ``nx.gauss_q``, which takes ascending x and evaluates contiguous
    slices in place instead."""
    y = np.asarray(x, dtype=float) * math.sqrt(0.5)
    out = np.empty_like(y)
    small = y <= 0.46875
    ys = y[small]
    z = ys * ys
    xnum, xden = nx._CODY_A[4] * z, z
    for i in range(3):
        xnum = (xnum + nx._CODY_A[i]) * z
        xden = (xden + nx._CODY_B[i]) * z
    out[small] = 1.0 - ys * (xnum + nx._CODY_A[3]) / (xden + nx._CODY_B[3])
    mid = (y > 0.46875) & (y <= 4.0)
    ym = y[mid]
    xnum, xden = nx._CODY_C[8] * ym, ym
    for i in range(7):
        xnum = (xnum + nx._CODY_C[i]) * ym
        xden = (xden + nx._CODY_D[i]) * ym
    res = (xnum + nx._CODY_C[7]) / (xden + nx._CODY_D[7])
    ysq = np.trunc(ym * 16.0) / 16.0
    out[mid] = np.exp(-ysq * ysq) * np.exp(-(ym - ysq) * (ym + ysq)) * res
    big = y > 4.0
    yb = y[big]
    with np.errstate(over="ignore", under="ignore"):
        z = 1.0 / (yb * yb)
        xnum, xden = nx._CODY_P[5] * z, z
        for i in range(4):
            xnum = (xnum + nx._CODY_P[i]) * z
            xden = (xden + nx._CODY_Q[i]) * z
        res = z * (xnum + nx._CODY_P[4]) / (xden + nx._CODY_Q[4])
        res = (1.0 / math.sqrt(math.pi) - res) / yb
        ysq = np.trunc(yb * 16.0) / 16.0
        out[big] = np.exp(-ysq * ysq) * np.exp(-(yb - ysq) * (yb + ysq)) * res
    return 0.5 * out
