"""Command-line front end.

Common flags may be given before or after the subcommand; values given
after win.  Exit codes: 0 all requested certificates pass, 1 at least
one fails, 2 on input errors (bad files, out-of-domain parameters).
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import re
import sys
from typing import Optional

import numpy as np

from . import core, dynamics, epsilon, files, ks

# sweep defaults: SWEEP_COUNT couplings over [-SWEEP_HALF_WIDTH, SWEEP_HALF_WIDTH], KS scan budget
SWEEP_HALF_WIDTH = 0.6
SWEEP_COUNT = 25
SWEEP_SAMPLES = 5_000

# What main fills in for each flag left unset, per subcommand.  certify scans
# preservation and positivity with samples and the KS search with ks_samples;
# a given --samples sets both.
_DEFAULTS = {
    "certify": {"samples": core.DEFAULT_SAMPLES, "ks_samples": ks.KS_DEFAULT_SAMPLES, "tol": ks.KS_DEFAULT_TOL},
    "ks": {"samples": ks.KS_DEFAULT_SAMPLES, "tol": ks.KS_DEFAULT_TOL},
    "sweep": {"epsilon": SWEEP_HALF_WIDTH, "count": SWEEP_COUNT, "samples": SWEEP_SAMPLES, "tol": ks.KS_DEFAULT_TOL},
    "simulate": {"steps": dynamics.DEFAULT_MAX_STEPS, "tol": dynamics.DEFAULT_CONV_TOL, "init": "0.6,0,0"},
}


def _complex_list(values) -> dict:
    arr = np.asarray(values, dtype=complex).ravel()
    return {"re": [float(v.real) for v in arr], "im": [float(v.imag) for v in arr]}


def _float_list(values) -> list:
    return [float(v) for v in np.asarray(values, dtype=float).ravel()]


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
        return value

    return parse


def _parse_init(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--init expects three comma-separated numbers")
    f0 = np.array([float(p) for p in parts])
    if not np.all(np.isfinite(f0)):
        raise ValueError(f"--init must be three finite numbers, got {text!r}")
    return f0


class _Parser(argparse.ArgumentParser):
    """Reads -2.8e-05 or -0.1,0,0 as a value, where argparse alone sees an unknown option."""

    def _parse_optional(self, arg_string):
        # no option of this program starts with a digit or a dot
        if re.match(r"-[\d.]", arg_string):
            return None
        return super()._parse_optional(arg_string)


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    def kw(default):
        return {"default": argparse.SUPPRESS} if suppress else {"default": default}

    parser.add_argument("--epsilon", type=_finite_float, help="coupling of the one-parameter family", **kw(None))
    parser.add_argument("--tensor", metavar="PATH", help="coefficient tensor file", **kw(None))
    parser.add_argument("--samples", type=_int_at_least(1), help="scan budget (module defaults if omitted)", **kw(None))
    parser.add_argument("--seed", type=_int_at_least(0), help="seed for the deterministic scans", **kw(0))
    parser.add_argument("--tol", type=_finite_float, help="tolerance (module defaults if omitted)", **kw(None))
    parser.add_argument("--steps", type=int, help="iteration budget for simulate", **kw(None))
    parser.add_argument("--init", metavar="a,b,c", help="initial Bloch vector for simulate", **kw(None))
    parser.add_argument("--output", metavar="PATH", help="write the report or trajectory here", **kw(None))
    parser.add_argument("--count", type=_int_at_least(1), help="number of grid points for sweep", **kw(None))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qqocert",
        description="Certify quadratic operators on the qubit algebra and simulate their Bloch-ball dynamics.",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("certify", "state preservation, positivity, complete positivity and a KS-violation search"),
        ("ks", "Kadison-Schwarz witness search and necessary-condition report"),
        ("choi", "assemble the Choi block matrix and test complete positivity"),
        ("simulate", "iterate the quadratic dynamics and write a trajectory file"),
        ("fixed-points", "fixed points of the dynamics inside the ball"),
        ("sweep", "classify a grid of couplings"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p, suppress=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main reuses: parsing reads it and changes nothing in it."""
    return build_parser()


def _resolve_tensor(args) -> tuple:
    """Return (tensor, epsilon-or-None); exactly one input source must be set."""
    has_eps = args.epsilon is not None
    has_file = args.tensor is not None
    if has_eps == has_file:
        raise ValueError("provide exactly one of --epsilon or --tensor")
    if has_eps:
        return epsilon.build_coeff_tensor(args.epsilon), float(args.epsilon)
    return files.load_tensor_file(args.tensor), None


def _input_block(args) -> dict:
    if args.epsilon is not None:
        return {"epsilon": float(args.epsilon)}
    return {"tensor": args.tensor}


def _witness_block(witness) -> dict:
    if witness is None:
        return {"found": False}
    return {"found": True, "min_eig": witness.min_eig, "w": _complex_list(witness.w)}


def _emit(args, report: dict) -> None:
    if args.output:
        buf = io.StringIO()
        files.dump_report(report, buf)
        files.write_text(args.output, buf.getvalue())
    else:
        files.dump_report(report)


def _cmd_certify(args) -> int:
    b, eps = _resolve_tensor(args)
    # first, so that a bad --tol is refused before any scan runs
    witness = ks.ks_global_check(b, args.ks_samples, args.seed, args.tol)
    pres = core.state_preservation_check(b, args.samples, args.seed)
    if eps is not None:
        pos = epsilon.positivity_check(eps)
    else:
        pos = core.sampled_positivity_check(b, args.samples, args.seed)
    cp = core.cp_check(b)

    all_pass = pres.passes and pos.is_positive and cp.is_cp and witness is None
    report = {
        "command": "certify",
        "input": _input_block(args),
        "samples": args.samples,
        "seed": args.seed,
        "state_preservation": {
            "max_norm": pres.max_norm,
            "passes": pres.passes,
            "witness_f": _float_list(pres.witness_f),
            "witness_p": _float_list(pres.witness_p),
        },
        "positivity": {
            "is_positive": pos.is_positive,
            "margin": pos.margin,
            "worst_w": _float_list(pos.worst_w),
        },
        "complete_positivity": {"is_cp": cp.is_cp, "min_choi_eig": cp.min_choi_eig},
        "ks_violation": _witness_block(witness),
        "all_pass": bool(all_pass),
    }
    _emit(args, report)
    return 0 if all_pass else 1


def _cmd_ks(args) -> int:
    b, _ = _resolve_tensor(args)
    witness = ks.ks_global_check(b, args.samples, args.seed, args.tol)
    probe_w = witness.w if witness is not None else np.array([1.0, 0.0, 0.0])
    nec = ks.ks_necessary_check(b, np.array([1.0, 0.0, 0.0]), probe_w)
    report = {
        "command": "ks",
        "input": _input_block(args),
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
        "holds11": nec.holds11,
        "holds2": nec.holds2,
        "lhs11": nec.lhs11,
        "rhs11": nec.rhs11,
        "lhs2": nec.lhs2,
        "rhs2": nec.rhs2,
        "abcd": list(nec.abcd),
        "witness": _witness_block(witness),
    }
    _emit(args, report)
    return 1 if witness is not None else 0


def _cmd_choi(args) -> int:
    cp = core.cp_check(_resolve_tensor(args)[0])
    report = {
        "command": "choi",
        "input": _input_block(args),
        "eigenvalues": _float_list(cp.eigenvalues),
        "min_eig": cp.min_choi_eig,
        "max_abs_eig": float(np.max(np.abs(cp.eigenvalues))),
        "is_cp": cp.is_cp,
    }
    _emit(args, report)
    return 0 if cp.is_cp else 1


def _cmd_simulate(args) -> int:
    if args.epsilon is None:
        raise ValueError("simulate requires --epsilon")
    if args.steps < 0:
        raise ValueError("--steps must be >= 0")
    traj = dynamics.iterate(args.epsilon, _parse_init(args.init), args.steps, args.tol)
    summary = (
        f"steps={len(traj.steps) - 1} converged={traj.converged} "
        f"final_rho={traj.steps[-1][2]!r} limit={_float_list(traj.limit)}"
    )
    if args.output:
        buf = io.StringIO()
        files.write_trajectory_csv(traj, buf)
        files.write_text(args.output, buf.getvalue())
        print(summary)
    else:
        files.write_trajectory_csv(traj, sys.stdout)
        print(summary, file=sys.stderr)
    return 0


def _cmd_fixed_points(args) -> int:
    if args.epsilon is None:
        raise ValueError("fixed-points requires --epsilon")
    rep = dynamics.fixed_points(args.epsilon)
    report = {
        "command": "fixed-points",
        "input": {"epsilon": float(args.epsilon)},
        "points": [_float_list(p) for p in rep.points],
        "residuals": [float(r) for r in rep.residuals],
    }
    _emit(args, report)
    return 0


def _cmd_sweep(args) -> int:
    if args.tensor is not None:
        raise ValueError("sweep requires --epsilon (the half-width of the grid)")
    half = abs(args.epsilon)
    rows = []
    for e in np.linspace(-half, half, args.count):
        e = float(e)
        b = epsilon.build_coeff_tensor(e)
        pos = epsilon.positivity_check(e)
        cp = core.cp_check(b)
        witness = ks.ks_global_check(b, args.samples, args.seed, args.tol)
        rows.append(
            {
                "epsilon": e,
                "band": epsilon.classify_epsilon(e),
                "is_positive": pos.is_positive,
                "positivity_margin": pos.margin,
                "is_cp": cp.is_cp,
                "min_choi_eig": cp.min_choi_eig,
                "ks_violation_found": witness is not None,
                "ks_min_eig": witness.min_eig if witness is not None else None,
            }
        )
    report = {
        "command": "sweep",
        "samples": args.samples,
        "seed": args.seed,
        "rows": rows,
    }
    _emit(args, report)
    return 0


_DISPATCH = {
    "certify": _cmd_certify,
    "ks": _cmd_ks,
    "choi": _cmd_choi,
    "simulate": _cmd_simulate,
    "fixed-points": _cmd_fixed_points,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    args.ks_samples = args.samples
    for name, default in _DEFAULTS.get(args.command, {}).items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
