"""Validation-suite helpers: the dB bisection and the override routing."""

from dataclasses import replace

import pytest

from rislab import performance
from rislab import validate
from rislab.config import ConfigError
from rislab.equiv_channel import LrsScenario, derive
from rislab.fading import Rayleigh, Rician

LEVELS = (1e-2, 1e-3, 1e-4, 1e-5)


def bisect_80_steps(ber_at, level, lo, hi):
    """The crossing search as a fixed 80-step bisection."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if ber_at(mid) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crossings():
    """float.hex of the 20 crossings that ``check_ber_agreement`` simulates."""
    return [
        validate._gamma0_db_at_level(pe, level, 32).hex()
        for pe in validate._error_models().values()
        for level in LEVELS
    ]


def test_bisection_stops_early_with_the_bits_of_80_steps(monkeypatch):
    calls = []
    ber_bpsk = performance.ber_bpsk

    def counted(m, gamma_bar):
        calls.append(1)
        return ber_bpsk(m, gamma_bar)

    monkeypatch.setattr(performance, "ber_bpsk", counted)
    got = crossings()
    assert len(got) == 20 and len(calls) <= 1100
    monkeypatch.setattr(validate, "_db_at_level", bisect_80_steps)
    assert crossings() == got


def test_crossings_read_the_moments_once_with_the_bits_of_derive(monkeypatch):
    # the bisection takes a^2, phi_1 and phi_2 once per model; which of the
    # 20 points ber-agreement checks depends on the last bits of each
    # crossing, so every step must give what deriving the scenario gives
    def via_derive(pe, level, n):
        def ber_at(gdb):
            ch = derive(LrsScenario(n, 10.0 ** (gdb / 10.0), Rician(1.0), Rayleigh(), pe))
            return performance.ber_bpsk(ch.m, ch.gamma_bar)

        return validate._db_at_level(ber_at, level, -45.0, 15.0)

    got = crossings()
    monkeypatch.setattr(validate, "_gamma0_db_at_level", via_derive)
    assert crossings() == got


# float.hex of the crossings of ``crossings()``, by model, from BER 1e-2 to 1e-5
PINNED_CROSSINGS = {
    "von_mises_k2": ("-0x1.3c5b65b7faad2p+4", "-0x1.0a2ab9b7fedecp+4", "-0x1.c9b671d7bba74p+3", "-0x1.8b231be9a5be6p+3"),
    "von_mises_k8": ("-0x1.6cabee73349fcp+4", "-0x1.3fd63b8034074p+4", "-0x1.2067d53b4df9ep+4", "-0x1.0771619ac0640p+4"),
    "quantizer_q1": ("-0x1.320d56f93e04ap+4", "-0x1.019be7ce65a78p+4", "-0x1.bc781b17065d8p+3", "-0x1.82173f3e017ecp+3"),
    "quantizer_q2": ("-0x1.6762a62364e72p+4", "-0x1.3a8d4ddacc11cp+4", "-0x1.1b1f499650abcp+4", "-0x1.02293e04ebf2ep+4"),
    "quantizer_q3": ("-0x1.7297bf883e4cap+4", "-0x1.45e6484b1fbacp+4", "-0x1.269f0795ea192p+4", "-0x1.0dd2208755144p+4"),
}
FROZEN = (
    "the analytic path moved: ber-agreement now simulates other points than the 19 that "
    "bench/references/ber-agreement.json pins; change both together (ROADMAP, open item 1)"
)


def test_ber_agreement_points_are_frozen():
    # ber-agreement skips a point whose analytic BER is below 1e-5, and
    # its 1e-5 points are bisected to that level, so the last bits of
    # derive, ber_bpsk, trig_moment, magnitude_moment(1) and ln_gamma
    # decide which points count: today one, at 9.999999999999982e-06
    got = dict(zip(validate._error_models(), zip(*[iter(crossings())] * 4)))
    assert got == PINNED_CROSSINGS, FROZEN
    skipped = []
    for name, pe in validate._error_models().items():
        for gdb in got[name]:
            sc = replace(validate.reference_scenario(32), gamma0=10.0 ** (float.fromhex(gdb) / 10.0), phase_error=pe)
            ch = derive(sc)
            ana = performance.ber_bpsk(ch.m, ch.gamma_bar)
            if ana < 1e-5:
                skipped.append((name, ana))
    assert skipped == [("quantizer_q1", 9.999999999999982e-06)], FROZEN


def test_unknown_suite_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown suite 'no-such-suite'"):
        validate.run_suite("no-such-suite")


def test_overrides_reach_only_the_checks_that_take_them(monkeypatch):
    calls = []

    def sampled(trials=10, seed=1):
        calls.append(("sampled", trials, seed))
        return validate.CheckResult("sampled", True)

    def seeded(seed=2):
        calls.append(("seeded", seed))
        return validate.CheckResult("seeded", True)

    monkeypatch.setattr(validate, "SUITES", {"sampled": sampled, "seeded": seeded})
    validate.run_suite("all", trials=5, seed=7)
    assert calls == [("sampled", 5, 7), ("seeded", 7)]
    calls.clear()
    validate.run_suite("seeded", seed=3)
    assert calls == [("seeded", 3)]
    with pytest.raises(ConfigError, match="takes no trials"):
        validate.run_suite("seeded", trials=5, seed=3)
    assert calls == [("seeded", 3)]
