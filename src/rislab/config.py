"""Scenario configuration: one JSON document per link.

Schema::

    {
      "n": 32,
      "gamma0_db": -16.0,
      "fading_sr": {"type": "rician", "k_factor": 1.0},
      "fading_rd": {"type": "rayleigh"},
      "phase_error": {"type": "von_mises", "kappa": 8.0},
      "sweep": {"start_db": -24.0, "stop_db": -10.0, "step_db": 1.0}
    }

``gamma0_db`` is the single-reflector SNR in dB and its one spelling;
``sweep`` is only needed by curve commands; planners read ``target_gd``
or ``target_gc`` instead of (or next to) ``n``.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from . import fading, numerics, phase_models
from .equiv_channel import LrsScenario

__all__ = [
    "ConfigError",
    "config_errors",
    "db_to_linear",
    "linear_to_db",
    "load_config",
    "scenario_from_config",
    "scenario_to_config",
    "sweep_from_config",
]


class ConfigError(ValueError):
    """A configuration document is missing keys or holds bad values."""


@contextmanager
def config_errors():
    """Report a missing key or a bad value met while parsing a config
    document as a :class:`ConfigError`."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"config is missing {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config document must be a JSON object")
    return cfg


def scenario_from_config(cfg: dict) -> LrsScenario:
    if "gamma0_db" not in cfg:
        raise ConfigError("config needs 'gamma0_db'")
    with config_errors():
        return LrsScenario(
            n=cfg["n"],
            gamma0=db_to_linear(numerics.check_real(cfg["gamma0_db"], "gamma0_db", -math.inf)),
            fading_sr=fading.from_config(cfg["fading_sr"]),
            fading_rd=fading.from_config(cfg["fading_rd"]),
            phase_error=phase_models.from_config(cfg["phase_error"]),
        )


def scenario_to_config(scenario: LrsScenario) -> dict:
    return {
        "n": scenario.n,
        "gamma0_db": linear_to_db(scenario.gamma0),
        "fading_sr": scenario.fading_sr.to_config(),
        "fading_rd": scenario.fading_rd.to_config(),
        "phase_error": scenario.phase_error.to_config(),
    }


def sweep_from_config(cfg: dict) -> np.ndarray:
    """Single-reflector SNR sweep in dB, inclusive of the stop value."""
    with config_errors():
        sweep = cfg["sweep"]
        start, stop = (numerics.check_real(sweep[key], key, -math.inf) for key in ("start_db", "stop_db"))
        step = numerics.check_real(sweep["step_db"], "step_db", strict=True)
    if stop < start:
        raise ConfigError("sweep needs stop_db >= start_db")
    try:
        grid = start + step * np.arange(int(round((stop - start) / step)) + 1)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise ConfigError(f"sweep has too many points for step_db {step!r}: {exc}") from exc
    grid = grid[grid <= stop + 1e-9]
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(10.0 ** (grid / 10.0))):
            raise ConfigError("sweep reaches an SNR beyond the floating-point range")
    return grid
