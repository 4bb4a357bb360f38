"""Spans around calls into gbsim's layers, recorded from outside the package.

`Tracer.install()` rebinds each traced function, in every loaded gbsim
module that holds a reference to it, to a wrapper that records a span;
`uninstall()` puts the originals back.  Nothing inside gbsim changes.

Spans stay in memory.  The benchmark runs single-threaded (workers=1), so
one stack gives every span its parent.  Each span keeps only small facts
about its call (a matrix size, a pattern weight, a histogram size), never
the arguments or results themselves.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np

# Public entry points of each layer.  Small helpers called once per pattern
# or per state (pattern_weight, submatrix_by_pattern, derive_q_params) are
# left out so that the wrapper's own cost stays off the small engine calls.
# `_block_counts` is the sampler's per-block function: timing it directly
# splits `sample_patterns` into block generation and the histogram reduce.
TRACED = {
    "states": ["state_from_descriptor"],
    "interferometer": ["haar_random", "validate_unitary", "decompose"],
    "qform": ["build_qform"],
    "matrixio": ["load_complex_matrix", "matrix_from_json", "dump_complex_matrix"],
    "matrix_functions": ["permanent", "hafnian"],
    "engines": ["prob_general", "prob_thermal", "prob_squeezed"],
    "sampler": ["sample_patterns", "_block_counts"],
    "psd_permanent": ["embed", "estimate_permanent", "exact_permanent_psd"],
    "fock_oracle": ["prepare_input", "apply_network", "pattern_probability"],
    "cli": ["main"],
}


def _matrix_n(args, kwargs, result):
    return {"n": int(np.shape(args[0])[0])}


def _pattern_n(args, kwargs, result):
    return {"n": int(sum(args[1]))}


def _histogram(args, kwargs, result):
    return {"distinct": len(result.histogram), "max_count": max(result.histogram.values())}


def _estimate(args, kwargs, result):
    return {"count": result.count, "estimate": result.estimate, "stderr": result.stderr, "exact": result.exact}


# Facts kept from a call, keyed by (layer, function).
NOTES = {
    ("matrix_functions", "permanent"): _matrix_n,
    ("matrix_functions", "hafnian"): _matrix_n,
    ("engines", "prob_general"): _pattern_n,
    ("engines", "prob_thermal"): _pattern_n,
    ("engines", "prob_squeezed"): _pattern_n,
    ("sampler", "sample_patterns"): _histogram,
    ("psd_permanent", "estimate_permanent"): _estimate,
    ("fock_oracle", "prepare_input"): lambda a, k, r: {"cutoff": r.cutoff},
    ("fock_oracle", "apply_network"): lambda a, k, r: {"leakage": r.leakage},
    ("cli", "main"): lambda a, k, r: {"command": (a[0] if a else k["argv"])[0]},
}


@dataclass(slots=True)
class Span:
    layer: str
    name: str
    section: str
    parent: Span | None
    dur: float = 0.0
    child_s: float = 0.0
    note: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """Records one span per traced call while `enabled` is true.

    `section` labels the spans recorded next, so that metrics can select the
    calls made by one part of a run.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.section = ""
        self._stack: list[Span] = []
        self._patched: list[tuple[dict, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if m is not None and (n == "gbsim" or n.startswith("gbsim."))]
        for layer, names in TRACED.items():
            mod = sys.modules[f"gbsim.{layer}"]
            for name in names:
                orig = getattr(mod, name, None)
                if orig is None:  # renamed or removed by a later change: its metrics read 0
                    continue
                wrapper = self._wrap(layer, name, orig)
                for holder in modules:
                    # module globals, and module-level dicts that map names to functions
                    namespaces = [vars(holder)] + [v for v in vars(holder).values() if isinstance(v, dict)]
                    for ns in namespaces:
                        for key, val in list(ns.items()):
                            if val is orig:
                                self._patched.append((ns, key, orig))
                                ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, orig in reversed(self._patched):
            ns[key] = orig
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn):
        note = NOTES.get((layer, name))
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(layer, name, self.section, stack[-1] if stack else None)
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.dur = time.perf_counter() - t0
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.dur
                self.spans.append(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def select(self, layer: str, name: str, section: str | None = None, parent: str | None = None) -> list[Span]:
        """Spans of one function, optionally within a section or under a parent function."""
        return [
            s
            for s in self.spans
            if s.layer == layer
            and s.name == name
            and (section is None or s.section == section)
            and (parent is None or (s.parent is not None and s.parent.name == parent))
        ]
