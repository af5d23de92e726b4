"""Shared test stubs: models with pinned moments / mean magnitudes."""

from rislab import fading as fd
from rislab import phase_models as pm


class FixedMoments(pm.PhaseErrorModel):
    """Phase-error stub with prescribed first two circular moments."""

    def __init__(self, phi1, phi2):
        self.phi1 = phi1
        self.phi2 = phi2

    def trig_moment(self, p):
        return {0: 1.0, 1: self.phi1, 2: self.phi2}[p]

    def phasor_tiles(self, rng, count, tile):
        raise NotImplementedError

    def to_config(self):
        return {"type": "fixed", "phi1": self.phi1, "phi2": self.phi2}


class FixedMeanMagnitude(fd.FadingModel):
    """Fading stub pinning the hop mean magnitude."""

    def __init__(self, a):
        self.a = a

    def mean_magnitude(self):
        return self.a

    def sample_magnitude(self, rng, size=None):
        raise NotImplementedError

    def to_config(self):
        return {"type": "fixed", "a": self.a}
