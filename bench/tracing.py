"""Spans around the public functions of each ``mocktheta`` module.

``Tracer.install()`` wraps every function listed in ``SPANNED`` and rebinds
it in every ``mocktheta`` module namespace that imported it, so calls made
inside the library are seen too; the character-system methods are wrapped
on their classes.  Each wrapped call records a span (name, start, end,
parent span, op id) in flat in-memory arrays; the wrappers return each
result unchanged.  The two Gaussian-complement helpers sit inside the
ladder terms, so they only count calls and do not split the ladder's self
time.  ``uninstall()`` restores the original bindings.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

SPANNED = {
    "core": ("sum_ladder",),
    "theta": ("eta", "theta_ab", "theta_jm", "theta_jm_signed", "lattice_theta",
              "enumerate_ellipsoid"),
    "mock": ("phi", "phi_shift_residual_a", "phi_elliptic_residual"),
    "modifier": ("r_jm", "r_jm_signed", "phi_add", "phi_tilde"),
    "modular": ("sample_points", "verify_law"),
    "lattice": ("validate_context", "lattice_mock_theta", "build_modification",
                "eval_modified", "mu_class_representatives"),
    "superalg": ("preset", "enumerate_omega", "integrable"),
    "characters": ("ch_tilde", "psi_fn"),
    "smatrix": ("smatrix", "apply_smatrix_check", "apply_tmatrix_check"),
}
# span name -> (class, method) pairs in mocktheta.characters; D(2,1;a)'s
# numerator is its two-term numerator_nu.
METHODS = {
    "characters.denominator": (("CharacterSystem", "denominator"),),
    "characters.numerator": (
        ("Sl21System", "numerator"),
        ("Osp32System", "numerator"),
        ("Osp42System", "numerator"),
        ("D21aSystem", "numerator_nu"),
    ),
}
COUNTED = {"core": ("gauss_E_complement_scaled", "gauss_E_complement")}
# Calls whose arguments are remembered, to measure work a cache would skip.
KEYED = (
    "lattice.build_modification",
    "lattice.mu_class_representatives",
    "superalg.preset",
    "characters.denominator",
)


def _freeze(x):
    try:
        hash(x)
    except TypeError:
        return ("id", id(x))
    return x


def _key(args, kwargs):
    return (
        tuple(_freeze(a) for a in args),
        tuple(sorted((k, _freeze(v)) for k, v in kwargs.items())),
    )


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.terms = array("i")
        self.current = -1
        self.op_id = -1
        self.counts = Counter()
        self.seen = {name: set() for name in KEYED}
        self.repeats = Counter()
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        seen = self.seen.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(self.current)
            self.op.append(self.op_id)
            self.start.append(0)
            self.end.append(0)
            self.terms.append(-1)
            if seen is not None:
                key = _key(args, kwargs)
                if key in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(key)
            prev = self.current
            self.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.current = prev
                self.start[idx] = t0
                self.end[idx] = t1
            terms = getattr(result, "terms_used", None)
            if terms is not None:
                self.terms[idx] = terms
            return result

        return wrapped

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _rebind(self, original, wrapped):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "mocktheta" and not mod_name.startswith("mocktheta."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def install(self):
        for module, fns in SPANNED.items():
            mod = importlib.import_module(f"mocktheta.{module}")
            for fn in fns:
                orig = getattr(mod, fn)
                self._rebind(orig, self._span(f"{module}.{fn}", orig))
        for module, fns in COUNTED.items():
            mod = importlib.import_module(f"mocktheta.{module}")
            for fn in fns:
                orig = getattr(mod, fn)
                self._rebind(orig, self._counter(f"{module}.{fn}", orig))
        chars = importlib.import_module("mocktheta.characters")
        for name, targets in METHODS.items():
            for cls_name, attr in targets:
                cls = getattr(chars, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._span(name, orig))
                self._undo.append((cls, attr, orig))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "terms": np.frombuffer(self.terms, dtype=np.int32),
        }

    def write(self, path):
        """Write the spans and the name table to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self):
        """Per span name: calls, total self time (ns), summed terms_used,
        calls that returned terms, and repeated-argument calls."""
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(np.float64)
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        self_total = np.bincount(a["name"], weights=self_ns, minlength=n)
        with_terms = a["terms"] >= 0
        terms = np.bincount(a["name"][with_terms], weights=a["terms"][with_terms], minlength=n)
        term_calls = np.bincount(a["name"][with_terms], minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            prev = out.get(name, {"calls": 0, "self_ns": 0.0, "terms": 0.0, "term_calls": 0})
            out[name] = {
                "calls": prev["calls"] + int(calls[i]),
                "self_ns": prev["self_ns"] + float(self_total[i]),
                "terms": prev["terms"] + float(terms[i]),
                "term_calls": prev["term_calls"] + int(term_calls[i]),
            }
        for name in out:
            out[name]["repeats"] = self.repeats.get(name, 0)
        for name, count in self.counts.items():
            out[name] = {"calls": count}
        return out
