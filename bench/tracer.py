"""Outside-in span tracing of the ``rislab`` layers.

A :class:`Tracer` replaces each traced callable with a wrapper at every
place the program looks the name up: the attribute of the defining
module, every ``rislab`` module that imported the name with ``from ...
import``, and, for sampler methods, the class dictionary.  Each call then
records one span: ``[name, parent index, start, end, values]`` where
``values`` is the number of elements returned.  :meth:`Tracer.uninstall`
puts every original object back, so an untraced run executes the
unmodified program.

Nothing here imports ``rislab``; the modules are looked up in
``sys.modules`` when :meth:`Tracer.install` runs.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer name, defining module, attribute path within that module)
TARGETS = (
    ("cli.main", "rislab.cli", "main"),
    ("montecarlo.simulate_ber", "rislab.montecarlo", "simulate_ber"),
    ("montecarlo.sample_snr", "rislab.montecarlo", "sample_snr"),
    ("phase_models.von_mises.sample", "rislab.phase_models", "VonMises.sample"),
    ("phase_models.quantizer.sample", "rislab.phase_models", "Quantizer.sample"),
    ("fading.rician.sample_magnitude", "rislab.fading", "Rician.sample_magnitude"),
    ("fading.rayleigh.sample_magnitude", "rislab.fading", "Rayleigh.sample_magnitude"),
    ("numerics.gauss_q", "rislab.numerics", "gauss_q"),
    ("numerics.regularized_gamma_p", "rislab.numerics", "regularized_gamma_p"),
    ("numerics.integrate", "rislab.numerics", "integrate"),
    ("equiv_channel.derive", "rislab.equiv_channel", "derive"),
    ("equiv_channel.snr_cdf", "rislab.equiv_channel", "snr_cdf"),
    ("stats.ks_test", "rislab.stats", "ks_test"),
    ("performance.ber_bpsk", "rislab.performance", "ber_bpsk"),
)

NAME, PARENT, START, END, VALUES = range(5)


def _values(result) -> int:
    size = getattr(result, "size", None)
    return int(size) if isinstance(size, int) else 1


class Tracer:
    """Records nested spans around the :data:`TARGETS` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        open_ = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, 0.0, 0.0, 0]
            open_.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            span[VALUES] = _values(result)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "rislab"]
        try:
            for name, module_name, path in TARGETS:
                module = sys.modules[module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(name, original)
                for site in modules:
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            self._patch(site, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer name: ``calls``, ``total_s``, ``self_s`` and ``values``.

    Self time is a span's duration minus the durations of its direct
    child spans.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict[str, float]] = {}
    for span, inner in zip(spans, child_s):
        agg = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "values": 0})
        duration = span[END] - span[START]
        agg["calls"] += 1
        agg["total_s"] += duration
        agg["self_s"] += duration - inner
        agg["values"] += span[VALUES]
    return out
