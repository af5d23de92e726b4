"""Phase-error models: closed-form moments, sampling, serialization."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rislab import numerics as nx
from rislab import phase_models as pm

ALL_VARIANTS = [
    pm.NoError(),
    pm.VonMises(0.5),
    pm.VonMises(8.0),
    pm.Quantizer(1),
    pm.Quantizer(3),
    pm.UniformCircle(),
    pm.Product((pm.VonMises(2.0), pm.Quantizer(1))),
]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_quantizer_one_bit_moments():
    q1 = pm.Quantizer(1)
    assert q1.trig_moment(1) == pytest.approx(2.0 / math.pi, rel=1e-14)
    assert q1.trig_moment(2) == 0.0  # sin(pi)/pi, exactly zero by construction
    assert q1.trig_moment(4) == 0.0


def test_quantizer_three_bit_first_moment():
    q3 = pm.Quantizer(3)
    w = math.pi / 8.0
    assert q3.trig_moment(1) == pytest.approx(math.sin(w) / w, rel=1e-14)


def test_von_mises_moment_is_bessel_ratio():
    # frozen from the factorial-series oracle: I_1(2)/I_0(2)
    assert pm.VonMises(2.0).trig_moment(1) == pytest.approx(0.697774657964008, rel=1e-10)


def test_uniform_circle_moments_vanish():
    u = pm.UniformCircle()
    assert u.trig_moment(0) == 1.0
    for p in (1, 2, 5):
        assert u.trig_moment(p) == 0.0


def test_zero_concentration_matches_uniform():
    vm0 = pm.VonMises(0.0)
    for p in (1, 2, 3):
        assert vm0.trig_moment(p) == pm.UniformCircle().trig_moment(p)


def test_moment_order_zero_is_one_and_bounded():
    for model in ALL_VARIANTS:
        assert model.trig_moment(0) == 1.0
        for p in (1, 2, 3):
            assert abs(model.trig_moment(p)) <= 1.0


def test_von_mises_moments_increase_with_concentration():
    kappas = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 50.0]
    for p in (1, 2, 3):
        vals = [pm.VonMises(k).trig_moment(p) for k in kappas]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    # degenerate limit
    assert pm.VonMises(1e6).trig_moment(1) > 1.0 - 1e-5


def test_product_single_component_is_identity():
    vm = pm.VonMises(3.0)
    prod = pm.Product((vm,))
    for p in (0, 1, 2, 3):
        assert prod.trig_moment(p) == vm.trig_moment(p)


def test_product_moments_multiply():
    vm, qz = pm.VonMises(2.0), pm.Quantizer(2)
    prod = pm.Product((vm, qz))
    for p in (1, 2, 3):
        assert prod.trig_moment(p) == pytest.approx(
            vm.trig_moment(p) * qz.trig_moment(p), rel=1e-14
        )


def test_negative_order_rejected():
    with pytest.raises(nx.DomainError):
        pm.VonMises(1.0).trig_moment(-1)


def test_bad_parameters_rejected():
    with pytest.raises(nx.DomainError):
        pm.VonMises(-0.5)
    with pytest.raises(nx.DomainError):
        pm.VonMises(math.inf)
    with pytest.raises(nx.DomainError):
        pm.Quantizer(0)
    with pytest.raises(nx.DomainError):
        pm.Product(())


# ---------------------------------------------------------------------------
# integration oracle
# ---------------------------------------------------------------------------


def test_von_mises_moments_match_integration():
    for kappa in (0.5, 2.0, 8.0):
        model = pm.VonMises(kappa)
        for p in (1, 2):
            closed = model.trig_moment(p)
            integ = pm.moment_by_integration(model, p)
            assert abs(closed - integ) < 1e-8


def test_quantizer_moments_match_integration():
    for bits in (1, 2, 3):
        model = pm.Quantizer(bits)
        for p in (1, 2):
            assert abs(model.trig_moment(p) - pm.moment_by_integration(model, p)) < 1e-8


def test_uniform_integration_moment_is_zero():
    assert abs(pm.moment_by_integration(pm.UniformCircle(), 2)) < 1e-10


def test_product_integration_moment_composes():
    prod = pm.Product((pm.VonMises(2.0), pm.Quantizer(1), pm.NoError()))
    assert pm.moment_by_integration(prod, 1) == pytest.approx(
        prod.trig_moment(1), abs=1e-8
    )


def test_integration_oracle_guards():
    assert pm.moment_by_integration(pm.NoError(), 1) == 1.0
    with pytest.raises(nx.RangeError):
        pm.moment_by_integration(pm.VonMises(1.0), 17)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_no_error_samples_are_zero():
    # the angle is zero, so every phasor is exactly one
    rng = np.random.default_rng(1)
    assert np.all(pm.NoError().sample(rng, 1000) == 1.0)


def test_quantizer_sample_support():
    rng = np.random.default_rng(2)
    th = np.angle(pm.Quantizer(1).sample(rng, 10**5))
    assert np.all(np.abs(th) <= math.pi / 2.0)
    th3 = np.angle(pm.Quantizer(3).sample(rng, 10**5))
    assert np.all(np.abs(th3) <= math.pi / 8.0)


def test_samples_lie_on_circle_interval():
    rng = np.random.default_rng(3)
    for model in ALL_VARIANTS:
        z = model.sample(rng, 5000)
        assert z.dtype == complex
        assert np.all(np.isfinite(z))
        np.testing.assert_allclose(np.abs(z), 1.0, rtol=0.0, atol=1e-15)


def test_von_mises_sampler_matches_bessel_ratio():
    # empirical first circular moment within 4 standard errors at 1e6 draws
    rng = np.random.default_rng(44)
    model = pm.VonMises(8.0)
    z = model.sample(rng, 10**6)
    c = z.real
    se = c.std(ddof=1) / 1000.0
    assert abs(c.mean() - model.trig_moment(1)) < 4.0 * se
    assert np.abs(z.imag.mean()) < 4.0 / 1000.0  # symmetry: zero mean direction


@pytest.mark.parametrize(
    "model",
    [
        pm.VonMises(0.5),
        pm.VonMises(8.0),
        pm.Quantizer(2),
        pm.UniformCircle(),
        pm.Product((pm.VonMises(2.0), pm.Quantizer(1))),
    ],
    ids=lambda m: str(m.to_config()),
)
def test_sampling_consistent_with_moments(model):
    rng = np.random.default_rng(7007)
    z = model.sample(rng, 10**6)
    for p in (1, 2, 3):
        c = (z**p).real  # cos(p Theta)
        se = max(c.std(ddof=1), 1e-12) / 1000.0
        assert abs(c.mean() - model.trig_moment(p)) < 5.0 * se


def test_tiny_concentration_sampling_is_near_uniform():
    rng = np.random.default_rng(5)
    z = pm.VonMises(1e-9).sample(rng, 10**5)
    assert abs(z.real.mean()) < 5.0 / math.sqrt(2.0 * 10**5)


def test_subnormal_concentration_samples_uniformly():
    # 1/kappa overflows here; the rejection sampler could accept nothing
    z = pm.VonMises(1e-310).sample(np.random.default_rng(7), (10,))
    th = np.random.default_rng(7).uniform(-math.pi, math.pi, 10)
    np.testing.assert_array_equal(z.real, np.cos(th))
    np.testing.assert_array_equal(z.imag, np.sin(th))


_LARGE_KAPPA_SPREAD = """
import math, numpy as np
from rislab import phase_models as pm
for kappa in (1e8, 1e16, 1e20, 1e300):
    s = pm.VonMises(kappa).sample(np.random.default_rng(11), 10**5).imag ** 2 * kappa
    # kappa E[sin^2 Theta] = I1(kappa) / I0(kappa), 1 to within 1/(2 kappa)
    assert abs(s.mean() - 1.0) < 5.0 * s.std(ddof=1) / math.sqrt(s.size), (kappa, s.mean())
"""


def test_large_concentration_terminates_with_the_right_spread():
    # r - 1 ~ 1/(2 kappa) has to be kept apart from r, in which it
    # vanishes from kappa ~ 1e16 on; a subprocess turns a hang into a failure
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", _LARGE_KAPPA_SPREAD], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_largest_concentrations_have_unit_moments_and_phasors():
    # above kappa ~ 2.86e307 the scaled Bessel functions underflow to 0;
    # the moments take their limit 1 - p^2/(2 kappa), which rounds to 1
    for kappa in (2.87e307, 1.7e308, np.finfo(float).max):
        model = pm.VonMises(float(kappa))
        assert [model.trig_moment(p) for p in (1, 2, 16)] == [1.0, 1.0, 1.0]
        z = model.sample(np.random.default_rng(12), 10**4)
        assert np.all(np.abs(np.abs(z) - 1.0) <= 4.0 * np.finfo(float).eps)
        assert np.all(z.real == 1.0)


class RecordingGenerator:
    """A generator that records the size of every uniform draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


def test_rejection_pass_with_a_partial_last_tile_keeps_the_phasors(monkeypatch):
    monkeypatch.setattr(pm, "_TILE", 10**9)
    whole = RecordingGenerator(3)
    want = pm._sample_von_mises(8.0, whole, 1000)
    passes = whole.sizes[::3]  # u1, u2 and u3 of each pass
    assert len(passes) >= 2 and passes[0] % 7 and passes[1] % 7
    monkeypatch.setattr(pm, "_TILE", 7)
    tiled = RecordingGenerator(3)
    assert pm._sample_von_mises(8.0, tiled, 1000).tobytes() == want.tobytes()
    assert sum(tiled.sizes) == sum(whole.sizes)


def test_sample_returns_the_requested_shape():
    rng = np.random.default_rng(6)
    for model in ALL_VARIANTS:
        assert model.sample(rng, (3, 4)).shape == (3, 4)
        with pytest.raises(TypeError):
            model.sample(rng)


# ---------------------------------------------------------------------------
# densities and serialization
# ---------------------------------------------------------------------------


def test_pdfs_normalize():
    grid_spec = nx.QuadratureSpec(tolerance=1e-10, max_subdivisions=4000)
    for model in (pm.VonMises(2.0), pm.Quantizer(2), pm.UniformCircle()):
        total = nx.integrate(model.pdf, -math.pi, math.pi, grid_spec)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_no_error_has_no_density():
    with pytest.raises(nx.DomainError):
        pm.NoError().pdf(0.0)


def test_config_round_trip():
    for model in ALL_VARIANTS:
        again = pm.from_config(model.to_config())
        assert again == model


def test_config_examples():
    assert pm.from_config({"type": "von_mises", "kappa": 8}) == pm.VonMises(8.0)
    assert pm.from_config({"type": "quantizer", "bits": 2}) == pm.Quantizer(2)
    assert pm.from_config({"type": "none"}) == pm.NoError()
    assert pm.from_config({"type": "uniform"}) == pm.UniformCircle()
    nested = {"type": "product", "components": [{"type": "uniform"}, {"type": "none"}]}
    assert pm.from_config(nested) == pm.Product((pm.UniformCircle(), pm.NoError()))
    with pytest.raises(nx.DomainError):
        pm.from_config({"type": "wrapped_cauchy"})
