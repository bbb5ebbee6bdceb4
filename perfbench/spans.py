"""Span tracing of the sepball package from outside it.

``Tracer.install`` replaces every public module-level function of the
package with a wrapper that records one span per call: which function, when
it started and ended, and which span was open when it was called.  The
wrapper is bound under every name that refers to the function, because
``from .matcore import is_psd`` copies the function into the importing
module's namespace; patching only the defining module would miss those
calls.  Spans live in flat arrays in memory and are turned into per-layer
metrics once the traced rounds are over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Functions whose spans carry one number besides their timing, taken from
#: the call's arguments after the call returned: the matrix order of an
#: eigensolve or a simplex problem, or the size of the matrix file.
NOTES: dict[str, Callable[[tuple, dict], float]] = {
    "matcore.eig_hermitian": lambda args, kwargs: float(np.shape(args[0])[0]),
    "schurnorm.simplex_qp_max": lambda args, kwargs: float(np.shape(args[0])[0]),
    "matcore.load_matrix": lambda args, kwargs: float(os.path.getsize(args[0])),
    "matcore.save_matrix": lambda args, kwargs: float(os.path.getsize(args[0])),
}


def package_modules(package) -> list:
    """The package itself followed by all its submodules, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def public_functions(modules) -> dict[int, tuple[str, Callable]]:
    """id -> ("module.name", function) for public functions each module defines."""
    found = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                found[id(obj)] = (f"{short}.{name}", obj)
    return found


@dataclass(frozen=True)
class SpanTable:
    """All spans recorded since the last ``Tracer.clear``, as arrays."""

    names: list[str]          # function label per function id
    fid: np.ndarray           # function id per span
    parent: np.ndarray        # index of the enclosing span, -1 for a root
    request: np.ndarray       # request number the span belongs to
    start: np.ndarray
    end: np.ndarray
    notes: dict[int, float]   # span index -> NOTES value


class Tracer:
    """Records spans for every call into the wrapped package."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.request = 0
        self._fid = array("i")
        self._parent = array("i")
        self._req = array("i")
        self._start = array("d")
        self._end = array("d")
        self._notes: dict[int, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        """Bind a wrapper under every module attribute naming a public function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = package_modules(package)
        self.names = []
        wrappers = {}
        for key, (label, fn) in public_functions(modules).items():
            fid = len(self.names)
            self.names.append(label)
            wrappers[key] = self._wrap(fn, fid, NOTES.get(label))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        """Put every original function back under every name it had."""
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def clear(self) -> None:
        for arr in (self._fid, self._parent, self._req, self._start, self._end):
            del arr[:]
        self._notes.clear()

    def table(self) -> SpanTable:
        return SpanTable(
            names=list(self.names),
            fid=np.frombuffer(self._fid, dtype=np.int32).copy(),
            parent=np.frombuffer(self._parent, dtype=np.int32).copy(),
            request=np.frombuffer(self._req, dtype=np.int32).copy(),
            start=np.frombuffer(self._start, dtype=np.float64).copy(),
            end=np.frombuffer(self._end, dtype=np.float64).copy(),
            notes=dict(self._notes),
        )

    def _wrap(self, fn, fid, note):
        fids, parents, reqs = self._fid, self._parent, self._req
        starts, ends, stack, notes = self._start, self._end, self._stack, self._notes
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            reqs.append(tracer.request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if note is not None:
                    notes[idx] = note(args, kwargs)

        return wrapper


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    out = (end - start).tolist()
    s, e, p = start.tolist(), end.tolist(), parent.tolist()
    covered: dict[int, float] = {}
    for i in np.argsort(start, kind="stable").tolist():
        par = p[i]
        if par < 0:
            continue
        lo = max(s[i], covered.get(par, s[par]))
        hi = min(e[i], e[par])
        if hi > lo:
            out[par] -= hi - lo
            covered[par] = hi
    return np.asarray(out)


def outermost(fid, parent, members) -> np.ndarray:
    """Mask of spans in ``members`` that have no ancestor in ``members``.

    Parents are recorded before their children, so one pass in index order
    sees every ancestor first.
    """
    fid = np.asarray(fid)
    parent = np.asarray(parent).tolist()
    member = np.isin(fid, list(members)).tolist()
    below = [False] * len(member)
    for i, par in enumerate(parent):
        if par >= 0:
            below[i] = below[par] or member[par]
    return np.asarray(member) & ~np.asarray(below, dtype=bool)


#: Per-layer metrics, in report order: name -> unit.  Times are per round.
LAYER_UNITS: dict[str, str] = {
    "matcore.load_s": "s",
    "matcore.load_mb": "MB",
    "matcore.save_s": "s",
    "matcore.save_mb": "MB",
    "matcore.validate_s": "s",
    "matcore.validate_calls": "count",
    "matcore.eig_s": "s",
    "matcore.eig_calls": "count",
    "matcore.eig_work": "d3-computed",
    "matcore.partial_transpose_s": "s",
    "matcore.partial_transpose_calls": "count",
    "matcore.apply_map_calls": "count",
    "matcore.self_s": "s",
    "certify.ppt_s": "s",
    "certify.ppt_cuts": "count",
    "certify.self_s": "s",
    "ballbounds.s": "s",
    "schurnorm.exact_s": "s",
    "schurnorm.exact_s.n12": "s",
    "schurnorm.exact_s.n14": "s",
    "schurnorm.exact_s.n16": "s",
    "schurnorm.exact_calls": "count",
    "schurnorm.oracle_s": "s",
    "schurnorm.oracle_calls": "count",
    "schurnorm.self_s": "s",
    "extremal.ball_probe_s": "s",
    "extremal.ball_probe_calls": "count",
    "extremal.self_s": "s",
    "geometry.witness_s": "s",
    "geometry.self_s": "s",
    "nmr.threshold_s": "s",
    "nmr.self_s": "s",
    "sampling.s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

#: Modules whose summed self time is reported, and the metric naming it.
MODULE_SELF = {
    "matcore": "matcore.self_s",
    "certify": "certify.self_s",
    "ballbounds": "ballbounds.s",
    "schurnorm": "schurnorm.self_s",
    "extremal": "extremal.self_s",
    "geometry": "geometry.self_s",
    "nmr": "nmr.self_s",
    "sampling": "sampling.s",
    "verify": "verify.self_s",
    "cli": "cli.self_s",
}


def layer_metrics(
    measured: SpanTable,
    setup: SpanTable,
    rounds: int,
    traced_wall_s: float,
    untraced_wall_s: float,
) -> dict[str, float]:
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    ``setup`` holds the spans of one set-up (the file writes).  Times and
    counts are per round; ``traced_wall_s`` and ``untraced_wall_s`` are the
    round times with and without tracing.
    """
    out = dict.fromkeys(LAYER_UNITS, 0.0)
    names = measured.names
    n_fn = len(names)
    ids = {label: i for i, label in enumerate(names)}
    fid = measured.fid
    dur = measured.end - measured.start
    own = self_times(measured.start, measured.end, measured.parent)
    calls = np.bincount(fid, minlength=n_fn).astype(float)
    incl = np.bincount(fid, weights=dur, minlength=n_fn)
    excl = np.bincount(fid, weights=own, minlength=n_fn)

    def pick(arr, *labels):
        return float(sum(arr[ids[label]] for label in labels if label in ids))

    def noted(label):
        """(span indices, note values) of one function's spans."""
        idx = [i for i in measured.notes if fid[i] == ids.get(label, -1)]
        return np.asarray(idx, dtype=int), np.asarray([measured.notes[i] for i in idx])

    for label in names:
        module = label.split(".", 1)[0]
        if module in MODULE_SELF:
            out[MODULE_SELF[module]] += float(excl[ids[label]])

    validators = {ids[label] for label in ("matcore.as_matrix", "matcore.hermitian")
                  if label in ids}
    out["matcore.validate_s"] = float(dur[outermost(fid, measured.parent, validators)].sum())
    out["matcore.validate_calls"] = pick(calls, "matcore.as_matrix", "matcore.hermitian")

    out["matcore.load_s"] = pick(incl, "matcore.load_matrix")
    out["matcore.load_mb"] = float(noted("matcore.load_matrix")[1].sum()) / 1e6
    out["matcore.eig_s"] = pick(excl, "matcore.eig_hermitian")
    out["matcore.eig_calls"] = pick(calls, "matcore.eig_hermitian")
    out["matcore.eig_work"] = float((noted("matcore.eig_hermitian")[1] ** 3).sum())
    out["matcore.partial_transpose_s"] = pick(incl, "matcore.partial_transpose")
    out["matcore.partial_transpose_calls"] = pick(calls, "matcore.partial_transpose")
    out["matcore.apply_map_calls"] = pick(calls, "matcore.apply_map")

    out["certify.ppt_s"] = pick(incl, "certify.ppt_all_cuts")
    if "certify.ppt_all_cuts" in ids and "matcore.is_psd" in ids:
        under_ppt = (measured.parent >= 0) & (
            fid[measured.parent.clip(min=0)] == ids["certify.ppt_all_cuts"])
        psd_under_ppt = under_ppt & (fid == ids["matcore.is_psd"])
        # the first is_psd inside ppt_all_cuts checks the input, not a cut
        out["certify.ppt_cuts"] = float(psd_under_ppt.sum()) - pick(calls, "certify.ppt_all_cuts")

    out["schurnorm.exact_s"] = pick(incl, "schurnorm.simplex_qp_max")
    out["schurnorm.exact_calls"] = pick(calls, "schurnorm.simplex_qp_max")
    idx, sizes = noted("schurnorm.simplex_qp_max")
    for n in (12, 14, 16):
        out[f"schurnorm.exact_s.n{n}"] = float(dur[idx[sizes == n]].sum()) if idx.size else 0.0
    out["schurnorm.oracle_s"] = pick(incl, "schurnorm.oracle_two_inf_norm")
    out["schurnorm.oracle_calls"] = pick(calls, "schurnorm.oracle_two_inf_norm")

    out["extremal.ball_probe_s"] = pick(incl, "extremal.ball_positivity_check")
    out["extremal.ball_probe_calls"] = pick(calls, "extremal.ball_positivity_check")
    out["geometry.witness_s"] = pick(
        incl, "geometry.sep_symmetry_witness", "geometry.mes_symmetry_witness"
    )
    out["nmr.threshold_s"] = pick(incl, "nmr.pseudopure_threshold", "nmr.thermal_threshold")

    roots = measured.parent < 0
    out["bench.self_s"] = traced_wall_s * rounds - float(dur[roots].sum())
    out["trace.spans"] = float(len(fid))

    out = {k: v / rounds for k, v in out.items()}

    # set-up writes happen once per run, not per round
    setup_ids = {label: i for i, label in enumerate(setup.names)}
    save = setup_ids.get("matcore.save_matrix", -1)
    save_mask = setup.fid == save
    out["matcore.save_s"] = float((setup.end - setup.start)[save_mask].sum())
    out["matcore.save_mb"] = sum(
        v for i, v in setup.notes.items() if setup.fid[i] == save
    ) / 1e6
    out["trace.wall_s"] = traced_wall_s
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return out
