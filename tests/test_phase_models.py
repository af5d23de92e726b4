"""Phase-error models: closed-form moments, sampling, serialization."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from _stubs import RecordingGenerator

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
    for p in (0, 1, 2, 3):
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
    # 2**1024 overflows a double, so the half-width would not exist
    assert pm.Quantizer(1023).trig_moment(1) == 1.0
    for bits in (1024, 2000):
        with pytest.raises(nx.DomainError, match="1023"):
            pm.Quantizer(bits)
    for components in ((), (1,), (pm.NoError(), "none"), pm.NoError()):
        with pytest.raises(nx.DomainError):
            pm.Product(components)


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


@pytest.mark.parametrize(
    "model",
    [pm.VonMises(1e7), pm.VonMises(1e8), pm.Quantizer(60)],
    ids=["kappa-1e7", "kappa-1e8", "bits-60"],
)
def test_oracle_resolves_concentrated_errors(model):
    # the law is 1/sqrt(kappa) or pi/2^bits wide, far inside [-pi, pi]
    for p in range(pm.MAX_INTEGRATION_ORDER + 1):
        assert abs(pm.moment_by_integration(model, p) - model.trig_moment(p)) <= 1e-13


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
    rng, uniform = np.random.default_rng(7), np.random.default_rng(7)
    z = pm.VonMises(1e-310).sample(rng, (10,))
    assert z.tobytes() == pm.UniformCircle().sample(uniform, (10,)).tobytes()
    np.testing.assert_array_equal(rng.random(3), uniform.random(3))


EPS = np.finfo(float).eps


@pytest.mark.parametrize(
    "model", [*(pm.Quantizer(b) for b in range(1, 9)), pm.UniformCircle()], ids=lambda m: str(m.to_config())
)
def test_uniform_phasors_are_the_cos_and_sin_of_the_drawn_angle(model):
    # the tangent form against numpy's cos and sin, at the angles read
    # from a copy of the same stream and at the ends of the support
    w = model.half_width if isinstance(model, pm.Quantizer) else math.pi
    z = model.sample(np.random.default_rng(17), 10**5)
    theta = np.random.default_rng(17).uniform(-w, w, 10**5)
    ends = np.array([-math.pi, -w, w, math.pi])
    for got, th in ((z, theta), (pm._phasors(ends), ends)):
        assert np.all(np.abs(got.real - np.cos(th)) <= 2.0 * EPS)
        assert np.all(np.abs(got.imag - np.sin(th)) <= 2.0 * EPS)


def test_von_mises_proposal_in_tangent_form_is_one_plus_and_minus_the_cosine():
    # (1 -+ t)^2 / (1 + t^2) against 1 +- cos(pi u) in 40 digits, at the
    # ends and the middle of [0, 1) and at random u; both lie in [0, 2]
    mp = pytest.importorskip("mpmath")
    u = np.concatenate([[0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53], np.random.default_rng(19).random(2000)])
    plus, minus = pm._proposal(u.copy())
    with mp.workdps(40):
        cos = [mp.cos(mp.pi * mp.mpf(float(x))) for x in u]
        want_plus = np.array([float(1 + c) for c in cos])
        want_minus = np.array([float(1 - c) for c in cos])
    assert np.all(np.abs(plus - want_plus) <= 4.0 * EPS)
    assert np.all(np.abs(minus - want_minus) <= 4.0 * EPS)


@pytest.mark.parametrize(
    "kappa", [*np.logspace(-300, 308, 61), np.finfo(float).max, 1e-5, 0.5, 8.0, 30.0, 1e3]
)
def test_envelope_parameter_is_within_8_ulps_for_every_concentration(kappa):
    # d = r - 1 and kc = kappa (r - 1)(r + 1) against the textbook tau,
    # rho, r in 800 digits, enough for the 600 that tau - sqrt(2 tau)
    # cancels at kappa = 1e-300
    mp = pytest.importorskip("mpmath")
    d, kc = pm._envelope(float(kappa))
    with mp.workdps(800):
        k = mp.mpf(float(kappa))
        tau = 1 + mp.sqrt(1 + 4 * k * k)
        rho = (tau - mp.sqrt(2 * tau)) / (2 * k)
        r = (1 + rho * rho) / (2 * rho)
        want_d, want_kc = float(r - 1), float(k * (r - 1) * (r + 1))
    assert math.isfinite(d) and math.isfinite(kc)
    assert abs(d - want_d) <= 8 * math.ulp(want_d)
    assert abs(kc - want_kc) <= 8 * math.ulp(want_kc)


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


def test_von_mises_density_is_finite_and_silent_at_the_largest_concentrations():
    # kappa (cos theta - 1) overflows to -inf away from 0; the peak is
    # 1 / (2 pi exp(-kappa) I_0(kappa)) = sqrt(kappa / (2 pi))
    kappa = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = pm.VonMises(kappa).pdf([0.0, 0.1, 3.0])
    assert np.all(np.isfinite(f))
    assert f[0] == pytest.approx(math.sqrt(kappa) / math.sqrt(2.0 * math.pi), rel=1e-14)
    assert f[1] == 0.0 and f[2] == 0.0


class StreamGenerator:
    """Serves ``random`` from consecutive values of ``values`` and counts
    them; ``random`` fills ``out`` where one is given, as numpy's does."""

    def __init__(self, values):
        self.values, self.used = values, 0

    def random(self, size=None, out=None):
        size = size if out is None else out.size
        served = self.values[self.used : self.used + size]
        assert served.size == size
        self.used += size
        if out is None:
            return served.copy()
        out[...] = served
        return out


@pytest.mark.parametrize("drawn", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.PCG64, np.random.SFC64])
def test_rounds_read_the_stream_at_any_offset(bitgen, drawn):
    # after 0-5 doubles every position of Philox's 4-word buffer is seen;
    # the phasors depend only on the doubles that follow, read with
    # nothing but ``random``, and the generator is left just after them
    count = pm._ROUND + 500
    rng = np.random.Generator(bitgen(21))
    rng.random(drawn)
    got = pm.VonMises(2.0).sample(rng, count)
    served = StreamGenerator(np.random.Generator(bitgen(21)).random(drawn + 6 * count)[drawn:])
    assert got.tobytes() == pm.VonMises(2.0).sample(served, count).tobytes()
    after = np.random.Generator(bitgen(21))
    after.random(drawn + served.used)
    np.testing.assert_array_equal(rng.random(5), after.random(5))


@pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.PCG64, np.random.SFC64])
def test_sampler_keeps_the_half_word_of_a_32_bit_draw(bitgen):
    # a 32-bit draw leaves half a 64-bit word behind; doubles do not use
    # it, so the next 32-bit draw after the sampler is that half word
    rngs = [np.random.Generator(bitgen(4)) for _ in range(2)]
    for rng in rngs:
        rng.integers(0, 2**32, 1, dtype=np.uint32)
    pm.VonMises(2.0).sample(rngs[0], 5000)
    rngs[1].vonmises(0.0, 2.0, 1)  # any double draw keeps the half word too
    assert rngs[0].bit_generator.state["has_uint32"] == 1
    assert rngs[0].integers(0, 2**32, 1, dtype=np.uint32) == rngs[1].integers(0, 2**32, 1, dtype=np.uint32)


@pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.PCG64])
def test_rejection_sampler_leaves_the_stream_after_its_rounds(bitgen):
    # a round of size proposals reads u1, u2 and u3, 3 size doubles in all
    count = 20000
    rng = np.random.Generator(bitgen(5))
    rng.random(3)  # start inside Philox's 4-word buffer
    recording = RecordingGenerator(rng)
    assert pm._sample_von_mises(2.0, recording, (count,)).shape == (count,)
    rounds = recording.sizes[::3]
    assert recording.sizes == [size for size in rounds for _ in range(3)]
    # the first two rounds are whole, since 3/2 of what is missing
    # exceeds _ROUND until fewer than 5451 phasors are missing
    assert rounds[:2] == [pm._ROUND, pm._ROUND] and len(rounds) >= 3
    assert all(0 < later <= earlier for earlier, later in zip(rounds[1:], rounds[2:]))
    whole = np.random.Generator(bitgen(5))
    whole.random(3 + 3 * sum(rounds))
    np.testing.assert_array_equal(rng.random(5), whole.random(5))


@pytest.mark.parametrize(
    "kappa, rounds",
    [(2.0, [2] * 20), (8.0, [2] * 20), (1e3, [2, 2, 3, 3, 3, 3, 2, 3, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 3])],
)
def test_a_row_tile_of_8192_phasors_takes_two_or_three_rounds(kappa, rounds):
    # a round proposes min(_ROUND, 3/2 of the missing phasors + 16); the
    # acceptance is 0.765 at kappa = 2, 0.679 at 8 and 0.657 at 1e3, so
    # only there does the second round often fall short; seeds 0-19
    got = []
    for seed in range(20):
        rng = np.random.Generator(np.random.SFC64(seed))
        recording = RecordingGenerator(rng)
        assert pm.VonMises(kappa).sample(recording, (256, 32)).shape == (256, 32)
        sizes = recording.sizes[::3]
        assert recording.sizes == [size for size in sizes for _ in range(3)]
        assert sizes[0] == pm._ROUND
        got.append(len(sizes))
        # the generator is left just after the last round
        after = np.random.Generator(np.random.SFC64(seed))
        after.random(3 * sum(sizes))
        np.testing.assert_array_equal(rng.random(4), after.random(4))
    assert got == rounds


@pytest.mark.parametrize("count", [1, 20000])
def test_product_phasors_are_the_whole_components_multiplied_in_order(count):
    # each component draws its whole array from rng in turn, and the
    # arrays multiply out of place: numpy multiplies in place with other
    # rounding (a one-phasor array, or ``want * temporary`` from 256 kB
    # on, where numpy reuses the temporary), so np.multiply here
    components = (pm.VonMises(2.0), pm.Quantizer(2), pm.UniformCircle())
    rng = np.random.Generator(np.random.SFC64(9))
    want = components[0].sample(rng, count)
    for comp in components[1:]:
        want = np.multiply(want, comp.sample(rng, count))
    end = rng.random(4)
    rng = np.random.Generator(np.random.SFC64(9))
    assert pm.Product(components).sample(rng, count).tobytes() == want.tobytes()
    np.testing.assert_array_equal(rng.random(4), end)


def test_sample_returns_the_requested_shape():
    rng = np.random.default_rng(6)
    for model in ALL_VARIANTS:
        assert model.sample(rng, (3, 4)).shape == (3, 4)
        with pytest.raises(TypeError):
            model.sample(rng)


EVERY_SAMPLER = [*ALL_VARIANTS, pm.VonMises(0.0)]


@pytest.mark.parametrize("size", [-1, (2, -3), 2.5, (2, 2.5), "3", None])
@pytest.mark.parametrize("model", EVERY_SAMPLER, ids=lambda m: str(m.to_config()))
def test_sample_rejects_a_size_that_is_no_shape(model, size):
    # numpy alone returns an empty array for -1 and (2, -3)
    with pytest.raises(nx.DomainError):
        model.sample(np.random.default_rng(6), size)


@pytest.mark.parametrize("size", [0, (2, 0), (0, 3), [2, 0]])
@pytest.mark.parametrize("model", EVERY_SAMPLER, ids=lambda m: str(m.to_config()))
def test_sample_of_no_phasors_is_an_empty_array_of_that_shape(model, size):
    z = model.sample(np.random.default_rng(6), size)
    assert z.shape == np.empty(size).shape and z.dtype == complex


# ---------------------------------------------------------------------------
# densities and serialization
# ---------------------------------------------------------------------------


def test_von_mises_pdf_normalizes():
    total = nx.integrate(pm.VonMises(2.0).pdf, -math.pi, math.pi)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_quadrature_rules_are_symmetric_probability_weights_on_the_support():
    for model in ALL_VARIANTS:
        if isinstance(model, pm.Product):
            continue
        theta, weights = model.nodes()
        assert theta.shape == weights.shape
        assert np.all(weights >= 0.0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_array_equal(theta, -theta[::-1])
        np.testing.assert_array_equal(weights, weights[::-1])
        assert np.all(np.abs(theta) <= math.pi)
    q = pm.Quantizer(3)
    assert np.all(np.abs(q.nodes()[0]) < q.half_width)
    theta, weights = pm.NoError().nodes()
    assert theta.tolist() == [0.0] and weights.tolist() == [1.0]


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
