"""Shared test stubs: models with pinned moments / mean magnitudes, and
a generator that records the draws asked of it."""

from rislab import fading as fd
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
