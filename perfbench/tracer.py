"""In-memory span tracer for the mkdvlab modules, installed from outside.

The layers are the modules.  The tracer wraps the public functions listed in
LAYERS, plus `scipy.linalg.eigh` as reached from `spectral` and `cli`, and
records one span per call: name, start, end, parent.  `cli`, `evolution` and
`spectral` import names with `from ... import`, so a function has a binding
in every module that imports it; the tracer replaces each of them and puts
the originals back on exit.  numpy FFT calls are counted against the
innermost open span, without spans of their own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np
import scipy.linalg

LAYERS = {
    "closed_forms": ("breather_jet_raw", "soliton_jet_raw",
                     "eval_flux_terms"),
    "identities": ("breather_ode_residual", "soliton_ode_residual",
                   "evolution_identity_residual", "lemma21_residual",
                   "lemma23_residual", "corollary_residual", "run_variants"),
    "functionals": ("sample_breather", "sample_soliton", "functional",
                    "sobolev_norm", "energy_reduction"),
    "spectral": ("build_operator", "derivative_matrix", "sobolev_gram",
                 "spectrum", "directions", "b0_relations", "wronskian_check",
                 "coercivity"),
    "evolution": ("evolve", "fit_modulation", "stability_experiment",
                  "perturbation_shape", "functional_drifts"),
    "cli": ("write_report", "dump_json", "dump_csv"),
}
EIGH = "spectral.eigh"
FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")
JETS = ("closed_forms.breather_jet_raw", "closed_forms.soliton_jet_raw")

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items()
                   for fn in fns) + (EIGH,)
# name -> unit of every per-layer metric that Tracer.metrics returns
METRIC_UNITS = {
    **{f"{s}.calls": "count" for s in SPAN_NAMES},
    **{f"{s}.self_s": "s" for s in SPAN_NAMES},
    "closed_forms.jet.points": "count",
    "spectral.build_operator.per_point": "count/point",
    "spectral.eigh.per_point": "count/point",
    "evolution.steps": "count",
    "evolution.step_ms": "ms",
    "evolution.fft_per_step": "count/step",
    "evolution.fit_modulation.jet_calls_per_fit": "count/fit",
}

_NAME, _START, _END, _PARENT, _FFT = range(5)


def package_modules(package: str = "mkdvlab") -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


def rebind(original, replacement, modules) -> list:
    """Point every attribute of `modules` bound to `original` at
    `replacement`; returns (module, attr, original) triples for undoing."""
    undo = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def unbind(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


class Tracer:
    """Context manager: spans are recorded while it is entered."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, fft calls]
        self.jet_points = 0
        self.steps = 0
        self._stack = []
        self._undo = []

    def __enter__(self):
        layers = {layer: importlib.import_module(f"mkdvlab.{layer}")
                  for layer in LAYERS}
        mods = package_modules()
        for layer, fns in LAYERS.items():
            mod = layers[layer]
            for fn in fns:
                original = getattr(mod, fn)
                hook = self._hook(f"{layer}.{fn}", original)
                wrapped = self._span(f"{layer}.{fn}", original, hook)
                self._undo += rebind(original, wrapped, mods)
        eigh = scipy.linalg.eigh
        self._undo += rebind(eigh, self._span(EIGH, eigh),
                             mods + [scipy.linalg])
        for fn in FFT_FUNCS:
            original = getattr(np.fft, fn)
            self._undo += rebind(original, self._fft_counter(original),
                                 [np.fft])
        return self

    def __exit__(self, *exc):
        unbind(self._undo)
        self._undo = []

    def _hook(self, name, fn):
        if name in JETS:
            pos = list(inspect.signature(fn).parameters).index("x")

            def count_points(args, kwargs):
                x = args[pos] if len(args) > pos else kwargs["x"]
                self.jet_points += int(np.size(x))
            return count_points
        if name == "evolution.evolve":
            def count_steps(args, kwargs):
                cfg = args[1] if len(args) > 1 else kwargs["cfg"]
                self.steps += int(round(cfg.t_end / cfg.dt))
            return count_steps
        return None

    def _span(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
        return traced

    def _fft_counter(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                spans[stack[-1]][_FFT] += 1
            return fn(*args, **kwargs)
        return counted

    def _inside(self, i: int, name: str) -> bool:
        while i >= 0:
            if self.spans[i][_NAME] == name:
                return True
            i = self.spans[i][_PARENT]
        return False

    def metrics(self, spectrum_points: int = 0) -> dict:
        """Per-layer metrics of everything recorded so far.  Self time is a
        span's duration minus the durations of its direct children."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child_time[s[_PARENT]] += s[_END] - s[_START]
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, s in enumerate(spans):
            calls[s[_NAME]] += 1
            self_s[s[_NAME]] += s[_END] - s[_START] - child_time[i]
        fft = sum(s[_FFT] for i, s in enumerate(spans)
                  if s[_FFT] and self._inside(i, "evolution.evolve"))
        fit_jets = sum(1 for s in spans
                       if s[_NAME] == "closed_forms.breather_jet_raw"
                       and self._inside(s[_PARENT], "evolution.fit_modulation"))
        fits = calls["evolution.fit_modulation"]
        steps = self.steps

        def per(num, den):
            return num / den if den else 0.0

        out = {f"{s}.calls": calls[s] for s in SPAN_NAMES}
        out.update({f"{s}.self_s": self_s[s] for s in SPAN_NAMES})
        out.update({
            "closed_forms.jet.points": self.jet_points,
            "spectral.build_operator.per_point":
                per(calls["spectral.build_operator"], spectrum_points),
            "spectral.eigh.per_point": per(calls[EIGH], spectrum_points),
            "evolution.steps": steps,
            "evolution.step_ms":
                per(1e3 * self_s["evolution.evolve"], steps),
            "evolution.fft_per_step": per(fft, steps),
            "evolution.fit_modulation.jet_calls_per_fit": per(fit_jets, fits),
        })
        return out
