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
    """argparse type: a Bloch vector as three finite comma-separated numbers."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expects three comma-separated numbers, got {text!r}")
    return np.array([_finite_float(p) for p in parts])


# What main fills in for each flag left unset, per subcommand.  certify scans
# preservation and positivity with samples and the KS search with ks_samples;
# a given --samples sets both.
_DEFAULTS = {
    "certify": {"samples": core.DEFAULT_SAMPLES, "ks_samples": ks.KS_DEFAULT_SAMPLES, "tol": ks.KS_DEFAULT_TOL},
    "ks": {"samples": ks.KS_DEFAULT_SAMPLES, "tol": ks.KS_DEFAULT_TOL},
    "sweep": {"epsilon": SWEEP_HALF_WIDTH, "count": SWEEP_COUNT, "samples": SWEEP_SAMPLES, "tol": ks.KS_DEFAULT_TOL},
    "simulate": {"steps": dynamics.DEFAULT_MAX_STEPS, "tol": dynamics.DEFAULT_CONV_TOL, "init": _parse_init("0.6,0,0")},
}


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
    parser.add_argument("--steps", type=_int_at_least(0), help="iteration budget for simulate", **kw(None))
    parser.add_argument("--init", type=_parse_init, metavar="a,b,c", help="initial Bloch vector for simulate", **kw(None))
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
    if (args.epsilon is None) == (args.tensor is None):
        raise ValueError("provide exactly one of --epsilon or --tensor")
    if args.epsilon is not None:
        return epsilon.build_coeff_tensor(args.epsilon), float(args.epsilon)
    return files.load_tensor_file(args.tensor), None


def _family_coupling(args) -> float:
    """The coupling of a subcommand that runs on the family alone."""
    if args.epsilon is None or args.tensor is not None:
        raise ValueError(f"{args.command} requires --epsilon and takes no --tensor")
    return args.epsilon


def _input_block(args) -> dict:
    if args.epsilon is not None:
        return {"epsilon": float(args.epsilon)}
    return {"tensor": args.tensor}


def _witness_block(witness) -> dict:
    if witness is None:
        return {"found": False}
    return {"found": True, "min_eig": witness.min_eig, "w": witness.w}


def _emit(args, render) -> None:
    """Render the whole document with render(buffer), then write it to --output or to stdout."""
    buf = io.StringIO()
    render(buf)
    if args.output:
        files.write_text(args.output, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _cmd_certify(args) -> tuple:
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
    return (0 if all_pass else 1), {
        "input": _input_block(args),
        "samples": args.samples,
        "seed": args.seed,
        "state_preservation": vars(pres),
        "positivity": vars(pos),
        "complete_positivity": {"is_cp": cp.is_cp, "min_choi_eig": cp.min_choi_eig},
        "ks_violation": _witness_block(witness),
        "all_pass": all_pass,
    }


def _cmd_ks(args) -> tuple:
    b, _ = _resolve_tensor(args)
    witness = ks.ks_global_check(b, args.samples, args.seed, args.tol)
    probe_w = witness.w if witness is not None else np.array([1.0, 0.0, 0.0])
    nec = ks.ks_necessary_check(b, np.array([1.0, 0.0, 0.0]), probe_w)
    return (1 if witness is not None else 0), {
        "input": _input_block(args),
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
        **vars(nec),
        "witness": _witness_block(witness),
    }


def _cmd_choi(args) -> tuple:
    cp = core.cp_check(_resolve_tensor(args)[0])
    return (0 if cp.is_cp else 1), {
        "input": _input_block(args),
        "eigenvalues": cp.eigenvalues,
        "min_eig": cp.min_choi_eig,
        "max_abs_eig": np.abs(cp.eigenvalues).max(),
        "is_cp": cp.is_cp,
    }


def _cmd_simulate(args) -> int:
    traj = dynamics.iterate(_family_coupling(args), args.init, args.steps, args.tol)
    _emit(args, functools.partial(files.write_trajectory_csv, traj))
    print(
        f"steps={len(traj.steps) - 1} converged={traj.converged} "
        f"final_rho={traj.steps[-1][2]!r} limit={traj.limit.tolist()}",
        file=sys.stdout if args.output else sys.stderr,
    )
    return 0


def _cmd_fixed_points(args) -> tuple:
    rep = dynamics.fixed_points(_family_coupling(args))
    return 0, {"input": _input_block(args), **vars(rep)}


def _cmd_sweep(args) -> tuple:
    half = abs(_family_coupling(args))
    rows = []
    for e in np.linspace(-half, half, args.count).tolist():
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
    return 0, {"samples": args.samples, "seed": args.seed, "rows": rows}


# the subcommands that print a JSON report; each returns (exit code, report body)
_REPORTS = {
    "certify": _cmd_certify,
    "ks": _cmd_ks,
    "choi": _cmd_choi,
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
        if args.command == "simulate":
            return _cmd_simulate(args)
        code, body = _REPORTS[args.command](args)
        _emit(args, functools.partial(files.dump_report, {"command": args.command, **body}))
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
