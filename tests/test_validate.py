"""Validation-suite helpers: the dB bisection and the override routing."""

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
