"""Span tracing of the qqocert layers, installed from outside the package.

`install` rebinds every public function defined in a layer module, in
every qqocert module namespace that binds it (the defining module too,
because the CLI reaches most of them as ``module.function``).  The
functions are found by inspecting the modules, so a renamed or new
function is traced without editing this file.  Two foreign objects are
traced as bound in qqocert: any ``scipy.optimize`` function (the local
refinement) and any QMC engine class of a bound ``qmc`` module (the
low-discrepancy sampler).

Spans live in memory as ``[name, kind, parent, call, start, end, info]``
and are written once, when the run ends.  ``kind`` tags the spans the
per-layer metrics aggregate; it is decided from the module and the words
of the function name, so it survives renames that keep the word.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYER_MODULES = ("pauli", "core", "epsilon", "ks", "dynamics", "files", "sampling")

# (module, word in the function name) -> kind.  "eig" matches inside words
# (eigh, eigvalsh, eigenvalue); the others match whole words.
_KIND_RULES = (
    ("pauli", "eig", "eig"),
    ("sampling", None, "sampling"),
    ("ks", "global", "ks.global_check"),
    ("core", "preservation", "core.preservation"),
    ("core", "positivity", "core.positivity"),
    ("core", "choi", "core.choi"),
    ("epsilon", "positivity", "epsilon.positivity"),
    ("epsilon", "cp", "epsilon.cp"),
    ("dynamics", "fixed", "dynamics.fixed_points"),
    ("dynamics", "iterate", "dynamics.iterate"),
    ("files", "load", "files.load"),
    ("files", "dump", "files.dump"),
    ("files", "csv", "files.csv"),
)


def kind_of(layer: str, name: str):
    words = name.split("_")
    for mod, word, kind in _KIND_RULES:
        if mod != layer:
            continue
        if word is None or (word == "eig" and "eig" in name) or word in words:
            return kind
    return None


def _eig_info(args, kwargs, result, state):
    shape = getattr(args[0], "shape", ()) if args else ()
    return {"matrices": int(shape[0]) if len(shape) >= 3 else 1, "batch": len(shape) >= 3}


def _points_info(args, kwargs, result, state):
    return {"points": int(len(result))}


def _refine_info(args, kwargs, result, state):
    return {"nfev": int(result.nfev), "status": int(result.status), "fun": float(result.fun)}


def _steps_info(args, kwargs, result, state):
    return {"steps": len(result.steps) - 1}


def _rows_info(args, kwargs, result, state):
    return {"rows": len(args[0].steps)}


def _stream(args, kwargs):
    out = args[1] if len(args) > 1 else kwargs.get("out")
    return out if out is not None else sys.stdout


def _tell_before(args, kwargs):
    return _stream(args, kwargs).tell()


def _bytes_info(args, kwargs, result, state):
    return {"bytes": _stream(args, kwargs).tell() - state}


_PROBES = {
    "eig": (None, _eig_info),
    "sampling": (None, _points_info),
    "ks.refine": (None, _refine_info),
    "dynamics.iterate": (None, _steps_info),
    "files.dump": (_tell_before, _bytes_info),
    "files.csv": (None, _rows_info),
}


class Tracer:
    """In-memory span recorder; one tracer per traced run."""

    def __init__(self):
        self.spans = []
        self.call = None
        self._stack = []

    def wrap(self, name: str, kind, fn):
        before, info = _PROBES.get(kind, (None, None))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, kind, stack[-1] if stack else None, self.call, 0.0, 0.0, None]
            state = before(args, kwargs) if before else None
            stack.append(len(spans))
            spans.append(rec)
            rec[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if info:
                rec[6] = info(args, kwargs, result, state)
            return result

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps([sid] + rec) + "\n")


def span_cost_s(calls: int = 20_000) -> float:
    """Measured cost of recording one span: a traced no-op against a plain one."""
    def noop():
        return None

    traced = Tracer().wrap("noop", None, noop)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        traced()
    t2 = perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


class _QmcProxy:
    """Stands in for a bound ``qmc`` module; its engines trace ``random``."""

    def __init__(self, module, tracer: Tracer, prefix: str):
        self._module, self._tracer, self._prefix = module, tracer, prefix

    def __getattr__(self, name):
        obj = getattr(self._module, name)
        engine = getattr(self._module, "QMCEngine", None)
        if not (inspect.isclass(obj) and engine is not None and issubclass(obj, engine)):
            return obj
        tracer, span = self._tracer, f"{self._prefix}.{name}.random"

        def make(*args, **kwargs):
            inst = obj(*args, **kwargs)
            inst.random = tracer.wrap(span, "sampling", inst.random)
            return inst

        return make


def install(tracer: Tracer):
    """Rebind the traced callables in every loaded qqocert module; returns an undo list."""
    mods = {n: m for n, m in list(sys.modules.items()) if n == "qqocert" or n.startswith("qqocert.")}
    wrapped = {}
    for layer in LAYER_MODULES:
        mod = mods[f"qqocert.{layer}"]
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", kind_of(layer, name), obj)
    undo = []
    for modname, mod in mods.items():
        short = modname.rpartition(".")[2]
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                new = wrapped[obj]
            elif inspect.isfunction(obj) and (obj.__module__ or "").startswith("scipy.optimize"):
                new = tracer.wrap(f"{short}.{name}", "ks.refine" if short == "ks" else None, obj)
            elif inspect.ismodule(obj) and obj.__name__.endswith(".qmc"):
                new = _QmcProxy(obj, tracer, f"{short}.{name}")
            else:
                continue
            undo.append((mod, name, obj))
            setattr(mod, name, new)
    return undo


def uninstall(undo) -> None:
    for mod, name, obj in reversed(undo):
        setattr(mod, name, obj)


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer totals per round of the workload, from the recorded spans.

    A layer's time sums its outermost spans (a span inside another of the
    same kind is not counted twice).  Self time is a span's duration minus
    the durations of its direct children; spans are strictly nested since
    the benchmark runs on one thread.
    """
    child_time = defaultdict(float)
    for rec in spans:
        if rec[2] is not None:
            child_time[rec[2]] += rec[5] - rec[4]

    def outer(sid, kind):
        parent = spans[sid][2]
        while parent is not None:
            if spans[parent][1] == kind:
                return False
            parent = spans[parent][2]
        return True

    tot = defaultdict(float)
    refine_groups = defaultdict(list)
    for sid, (name, kind, parent, _call, t0, t1, info) in enumerate(spans):
        dur = t1 - t0
        if name == "cli.main":
            tot["cli.calls"] += 1
            tot["cli.self_s"] += dur - child_time[sid]
        if kind is None or not outer(sid, kind):
            continue
        if kind == "eig":
            key = "pauli.eig_batch" if info["batch"] else "pauli.eig_single"
            tot[f"{key}.calls"] += 1
            tot[f"{key}.s"] += dur
            if info["batch"]:
                tot["pauli.eig_batch.matrices"] += info["matrices"]
        elif kind == "sampling":
            tot["sampling.points"] += info["points"]
            tot["sampling.s"] += dur
        elif kind == "ks.refine":
            tot["ks.refine.calls"] += 1
            tot["ks.refine.s"] += dur
            tot["ks.refine.nfev"] += info["nfev"]
            tot["ks.refine.hit_cap"] += info["status"] != 0
            refine_groups[parent].append(info["fun"])
        else:
            tot[f"{kind}.s"] += dur
            if kind in ("ks.global_check", "dynamics.fixed_points"):
                tot[f"{kind}.calls"] += 1
            if kind == "ks.global_check":
                tot["ks.global_check.self_s"] += dur - child_time[sid]
            elif kind == "dynamics.iterate":
                tot["dynamics.iterate.steps"] += info["steps"]
            elif kind == "files.dump":
                tot["files.dump.bytes"] += info["bytes"]
            elif kind == "files.csv":
                tot["files.csv.rows"] += info["rows"]

    starts = sum(len(v) for v in refine_groups.values())
    useful = sum(sum(f <= min(v) + 1e-9 for f in v) for v in refine_groups.values())
    out = {k: v / rounds for k, v in tot.items()}
    out["ks.refine.useful_ratio"] = useful / starts if starts else 0.0
    return out
