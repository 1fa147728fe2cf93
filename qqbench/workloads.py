"""The benchmark's workloads: one round of CLI calls each, with their checks.

A round is the fixed list of calls a workload repeats; every input comes
from the benchmark seed.  Each call carries the check of its output,
built from the references in refcheck.py.  Why each workload exists is
recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

import refcheck

WORKLOADS = ("family", "general", "dynamics")

FAMILY_EPS = (0.1, 0.3333333333, 0.5)
SWEEP_COUNT = 2
CRITICAL = 0.5773502692  # 1/sqrt(3) to ten digits, the CLI's accepted spelling
# (symmetric in the first two indices, scale) of the certify tensors; the
# scale is the family coupling of equal Frobenius norm, 3*|eps|.  certify
# sees a CP map, a positive map that is not CP, and one that is neither
# positive nor state-preserving; ks runs on the first two.
GENERAL_TENSORS = ((True, 0.1), (False, 0.25), (True, 0.7))
GENERAL_KS_TENSORS = (0, 1)
CHOI_TENSORS = 12      # extra seeded tensors for the cheap choi call, scales 0.05 to 0.7
CHEAP_REPEATS = 3      # family choi calls per coupling, for a steadier median
DYN_INSIDE = 3         # fixed-points couplings drawn strictly inside the critical one
DYN_SIMULATE = 20      # simulate calls per round


@dataclass
class Call:
    """One CLI invocation and the check of what it produced."""

    kind: str                                   # latency family the wall time joins
    argv: List[str]
    check: Callable[[str, int], refcheck.Problems]  # (stdout, exit code) -> problems
    rows: int = 1                               # sweep: wall time is reported per row


def strict_json(text: str) -> dict:
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _report(checker, *args, **kwargs):
    return lambda out, code: checker(strict_json(out), code, *args, **kwargs)


def general_tensor(rng: np.random.Generator, symmetric: bool, scale: float) -> np.ndarray:
    g = rng.uniform(-1.0, 1.0, (3, 3, 3))
    if symmetric:
        g = 0.5 * (g + g.transpose(1, 0, 2))
    return g * (3.0 * scale / np.linalg.norm(g))


def sweep_half_width(rng: np.random.Generator) -> float:
    """A grid half-width in (0.2, 0.55) kept clear of the 1/3 positivity threshold."""
    h = float(rng.uniform(0.2, 0.55))
    return h + 2e-3 if abs(h - refcheck.POSITIVITY_THRESHOLD) < 1e-3 else h


def spread(heavy: List[Call], cheap: List[Call]) -> List[Call]:
    """Cheap calls spread evenly between the heavy ones.

    This host's speed drifts over seconds, so cheap calls run back to
    back would all sample one moment; spread out, their median does not.
    """
    out, n = [], len(heavy)
    for i, call in enumerate(heavy):
        out.append(call)
        out += cheap[i * len(cheap) // n:(i + 1) * len(cheap) // n]
    return out


def _budget(samples: Optional[int]) -> list:
    return [] if samples is None else ["--samples", str(samples)]


def _expect(samples: Optional[int], default: int) -> int:
    return default if samples is None else samples


class Workload:
    """Builds the rounds of one workload from its seed.

    ``samples`` replaces the default scan budgets; only the benchmark's own
    smoke tests set it, and the checks then expect that budget instead.
    """

    def __init__(self, name: str, seed: int, workdir: str, samples: Optional[int] = None):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.seed, self.workdir, self.samples = name, seed, workdir, samples
        self._tensors, self._choi = [], []
        if name == "general":
            rng = np.random.default_rng([seed, 1])
            for idx, (sym, scale) in enumerate(GENERAL_TENSORS):
                b = general_tensor(rng, sym, scale)
                path = os.path.join(workdir, f"tensor{idx}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"b": b.tolist()}, fh)
                self._tensors.append((path, b))
            for idx in range(CHOI_TENSORS):
                b = general_tensor(rng, idx % 2 == 0, float(rng.uniform(0.05, 0.7)))
                path = os.path.join(workdir, f"choi{idx}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"b": b.tolist()}, fh)
                self._choi.append((path, b))
        elif name == "family":
            self._half = sweep_half_width(np.random.default_rng([seed, 2]))

    def round(self, index: int) -> List[Call]:
        return getattr(self, f"_{self.name}")(index)

    def _common(self) -> list:
        return ["--seed", str(self.seed)] + _budget(self.samples)

    def _family(self, index: int) -> List[Call]:
        s = self.samples
        heavy, cheap = [], []
        for eps in FAMILY_EPS:
            b = refcheck.family_tensor(eps)
            src = ["--epsilon", repr(eps)] + self._common()
            heavy.append(Call("certify", src + ["certify"], _report(
                refcheck.check_certify, b, eps, _expect(s, refcheck.CERTIFY_SAMPLES))))
            heavy.append(Call("ks", src + ["ks"], _report(
                refcheck.check_ks, b, eps, _expect(s, refcheck.KS_SAMPLES))))
            cheap += [Call("choi", ["--epsilon", repr(eps), "choi"], _report(refcheck.check_choi, b, eps))
                      for _ in range(CHEAP_REPEATS)]
        argv = ["--epsilon", repr(self._half), "--count", str(SWEEP_COUNT)] + self._common() + ["sweep"]
        heavy.append(Call("sweep", argv, _report(
            refcheck.check_sweep, self._half, SWEEP_COUNT, _expect(s, refcheck.SWEEP_SAMPLES)),
            rows=SWEEP_COUNT))
        return spread(heavy, cheap)

    def _general(self, index: int) -> List[Call]:
        s = self.samples
        heavy = []
        for idx, (path, b) in enumerate(self._tensors):
            src = ["--tensor", path] + self._common()
            heavy.append(Call("certify", src + ["certify"], _report(
                refcheck.check_certify, b, None, _expect(s, refcheck.CERTIFY_SAMPLES))))
            if idx in GENERAL_KS_TENSORS:
                heavy.append(Call("ks", src + ["ks"], _report(
                    refcheck.check_ks, b, None, _expect(s, refcheck.KS_SAMPLES))))
        cheap = [Call("choi", ["--tensor", path, "choi"], _report(refcheck.check_choi, b))
                 for path, b in self._tensors + self._choi]
        return spread(heavy, cheap)

    def _dynamics(self, index: int) -> List[Call]:
        rng = np.random.default_rng([self.seed, 3, index])
        limit = refcheck.PRESERVATION_THRESHOLD * 0.99
        couplings = [float(e) for e in rng.uniform(-limit, limit, DYN_INSIDE)] + [CRITICAL, -CRITICAL]
        heavy = [Call("fixed_points", ["--epsilon", repr(e), "fixed-points"],
                      _report(refcheck.check_fixed_points, e)) for e in couplings]
        cheap = []
        for k in range(DYN_SIMULATE):
            eps = CRITICAL if k % 5 == 0 else float(rng.uniform(-limit, limit))
            d = rng.standard_normal(3)
            f0 = d / np.linalg.norm(d) * rng.uniform(0.05, 0.999)
            init = ",".join(repr(float(x)) for x in f0)
            path = os.path.join(self.workdir, f"orbit{k}.csv")
            # "--init=" keeps a leading minus sign from reading as an option
            argv = ["--epsilon", repr(eps), f"--init={init}", "--output", path, "simulate"]
            cheap.append(Call("simulate", argv, self._simulate_check(path, eps, init)))
        return spread(heavy, cheap)

    @staticmethod
    def _simulate_check(path: str, eps: float, init: str):
        def check(out: str, code: int):
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            return refcheck.check_simulate(out, code, text, eps, [float(x) for x in init.split(",")])

        return check
