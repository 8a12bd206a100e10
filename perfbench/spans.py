"""Span tracing installed from outside the program.

Tracer.install() replaces the public functions the benchmark watches with
wrappers that open a span per call, plus a few exact counters read from
the call's arguments and result.  The functions are replaced on the
PiecewisePoly class and in every renyiconv module that binds them (cli,
solver, entropy and euler_lagrange import them by name), so no call path
escapes.  Nothing under src/ is edited.

Self time of a span is its duration minus the durations of its direct
child spans.  Each span adds its duration to its parent when it closes,
so only the open spans are kept and memory stays flat over long runs.
"""
from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

# (metric prefix, module, attribute); "Class.method" patches the class
WATCHED = (
    ("piecewise.convolve", "renyiconv.piecewise", "PiecewisePoly.convolve"),
    ("piecewise.eval", "renyiconv.piecewise", "PiecewisePoly.eval"),
    ("piecewise.assert_nonnegative", "renyiconv.piecewise", "PiecewisePoly.assert_nonnegative"),
    ("grid.convolve_grid", "renyiconv.grid", "convolve_grid"),
    ("grid.sample", "renyiconv.grid", "sample"),
    ("grid.power_real", "renyiconv.grid", "power_real"),
    ("grid.read_csv", "renyiconv.grid", "read_csv"),
    ("solver.run_fixed_point", "renyiconv.solver", "run_fixed_point"),
    ("solver.iterate_once", "renyiconv.solver", "iterate_once"),
    ("entropy.objective_I", "renyiconv.entropy", "objective_I"),
    ("entropy.scale_to_feasible", "renyiconv.entropy", "scale_to_feasible"),
    ("euler_lagrange.counterexample_check", "renyiconv.euler_lagrange", "counterexample_check"),
    ("euler_lagrange.estimate_x6_grid", "renyiconv.euler_lagrange", "estimate_x6_grid"),
    ("euler_lagrange.el_residual", "renyiconv.euler_lagrange", "el_residual"),
)

# bytes_computed is derived from argument sizes, not measured.  On this
# class of machine a 300 MiB shared L3 holds every buffer of the largest
# transform, so a real memory-bandwidth figure cannot be taken from a run.
F8, C16 = 8, 16


def fft_bytes(n_fft: int) -> int:
    """Bytes of the arrays one FFT convolution allocates: two padded real
    inputs, two half spectra, their product and the real inverse."""
    return 3 * F8 * n_fft + 3 * C16 * (n_fft // 2 + 1)


def direct_bytes(n_f: int, n_g: int, n_out: int) -> int:
    return F8 * (n_f + n_g + n_out)


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []  # open spans: [start, time of children and excluded work]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._ffts: list[int] = []  # sizes of inverse transforms seen inside the current call
        self._originals: list = []

    # -- spans ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """fn with a span per call; hook(tracer, args, kwargs, result)
        updates counters after the span closes, outside every self time."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [0.0, 0.0]
            stack.append(span)
            span[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - span[0]
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - span[1]
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                t = perf_counter()
                hook(self, args, kwargs, result)
                self.exclude(perf_counter() - t)
            return result

        return traced

    def exclude(self, seconds: float) -> None:
        """Keep measuring work done inside the open span out of its self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def take(self) -> dict:
        """Totals since the last take(), then start counting afresh."""
        out = {"calls": dict(self.calls), "self_s": dict(self.self_s), "counters": dict(self.counters)}
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()
        return out

    # -- installation --------------------------------------------------

    def install(self) -> None:
        import numpy as np

        modules = [m for k, m in sys.modules.items() if k == "renyiconv" or k.startswith("renyiconv.")]
        for name, modname, attr in WATCHED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig, _HOOKS.get(name))
            self._originals.append(orig)
            for ns in [owner] + modules:
                for key, val in list(vars(ns).items()):
                    if val is orig:  # also PiecewisePoly.__call__, the alias of eval
                        setattr(ns, key, traced)

        # transform sizes are observed, not recomputed from the size rule
        irfft = np.fft.irfft

        def counted_irfft(a, n=None, *args, **kwargs):
            out = irfft(a, n, *args, **kwargs)
            self._ffts.append(out.shape[-1])
            return out

        np.fft.irfft = counted_irfft

    def unpatched(self) -> list[str]:
        """Names under which an original watched function is still bound."""
        from renyiconv.piecewise import PiecewisePoly

        left = []
        spaces = [(k, vars(m)) for k, m in sys.modules.items() if k.startswith("renyiconv")]
        for label, ns in spaces + [("PiecewisePoly", vars(PiecewisePoly))]:
            left += [f"{label}.{key}" for key, val in ns.items() if any(val is o for o in self._originals)]
        return left


# -- counters ------------------------------------------------------------


def _convolve_hook(tr: Tracer, args, kwargs, result) -> None:
    deg = max(len(p.coeffs) - 1 for p in result.pieces)
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for p in result.pieces for c in p.coeffs), default=0)
    tr.counters["piecewise.convolve.max_out_degree"] = max(tr.counters["piecewise.convolve.max_out_degree"], deg)
    tr.counters["piecewise.convolve.max_coeff_bits"] = max(tr.counters["piecewise.convolve.max_coeff_bits"], bits)


def _convolve_grid_hook(tr: Tracer, args, kwargs, result) -> None:
    f, g = args[0], args[1]
    n_out = len(result)
    ffts = tr._ffts[:]
    tr._ffts.clear()
    if ffts:
        n_fft = sum(ffts)
        tr.counters["grid.convolve_grid.fft_points"] += n_fft
        tr.counters["grid.convolve_grid.fft_out_points"] += n_out
        tr.counters["grid.convolve_grid.bytes_computed"] += sum(fft_bytes(n) for n in ffts)
    else:
        tr.counters["grid.convolve_grid.bytes_computed"] += direct_bytes(len(f), len(g), n_out)


def _sample_hook(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["grid.sample.points"] += len(result)


def _read_csv_hook(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["grid.read_csv.bytes"] += os.path.getsize(args[0])


def _run_fixed_point_hook(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["solver.iterations"] += result.iterations


_HOOKS = {
    "piecewise.convolve": _convolve_hook,
    "grid.convolve_grid": _convolve_grid_hook,
    "grid.sample": _sample_hook,
    "grid.read_csv": _read_csv_hook,
    "solver.run_fixed_point": _run_fixed_point_hook,
}
