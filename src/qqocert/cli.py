"""Command-line front end.

Flags may be given before or after the command; a flag given twice
keeps its later value.  Exit codes: 0 all requested certificates pass,
1 at least one fails, 2 on input errors (bad files, out-of-domain
parameters).
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

def _value(convert, valid, need: str):
    """argparse type: convert(text), refused unless valid(value); need says what valid asks for."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value

    return parse


_finite_float = _value(float, math.isfinite, "a finite number")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""
    return _value(int, lambda value: value >= low, f">= {low}")


def _parse_init(text: str) -> np.ndarray:
    """argparse type: a Bloch vector as three finite comma-separated numbers."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expects three comma-separated numbers, got {text!r}")
    return np.array([_finite_float(p) for p in parts])


class _Parser(argparse.ArgumentParser):
    """Reads -2.8e-05 or -0.1,0,0 as a value, where argparse alone sees an unknown option."""

    def _parse_optional(self, arg_string):
        # no option of this program starts with a digit or a dot
        if re.match(r"-[\d.]", arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qqocert",
        description="Certify quadratic operators on the qubit algebra and simulate their Bloch-ball dynamics.",
        epilog="commands:\n" + "".join(f"  {name:<14}{row[0]}\n" for name, row in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="what to run (listed below)")
    parser.add_argument("--epsilon", type=_finite_float, help="coupling of the one-parameter family")
    parser.add_argument("--tensor", metavar="PATH", help="coefficient tensor file")
    parser.add_argument("--samples", type=_int_at_least(1), help="scan budget (module defaults if omitted)")
    parser.add_argument(
        "--seed", type=_int_at_least(0), default=core.DEFAULT_SEED, help="seed for the deterministic scans"
    )
    parser.add_argument("--tol", type=_finite_float, help="tolerance (module defaults if omitted)")
    parser.add_argument("--steps", type=_int_at_least(0), help="iteration budget for simulate")
    parser.add_argument("--init", type=_parse_init, metavar="a,b,c", help="initial Bloch vector for simulate")
    parser.add_argument("--output", metavar="PATH", help="write the report or trajectory here")
    parser.add_argument("--count", type=_int_at_least(1), help="number of grid points for sweep")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main reuses: parsing reads it and changes nothing in it."""
    return build_parser()


def _resolve_tensor(args) -> tuple:
    """Return (tensor, epsilon-or-None, the report's input block); exactly one input source must be set."""
    if (args.epsilon is None) == (args.tensor is None):
        raise ValueError("provide exactly one of --epsilon or --tensor")
    if args.epsilon is not None:
        return epsilon.build_coeff_tensor(args.epsilon), args.epsilon, {"epsilon": args.epsilon}
    return files.load_tensor_file(args.tensor), None, {"tensor": args.tensor}


def _family_coupling(args) -> float:
    """The coupling of a command that runs on the family alone."""
    if args.epsilon is None or args.tensor is not None:
        raise ValueError(f"{args.command} requires --epsilon and takes no --tensor")
    return args.epsilon


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


def _report(args, code: int, body: dict) -> int:
    """Emit the JSON report of args.command with body and return the exit code."""
    _emit(args, functools.partial(files.dump_report, {"command": args.command, **body}))
    return code


def _cmd_certify(args) -> int:
    b, eps, source = _resolve_tensor(args)
    # first, so that a bad --tol is refused before any scan runs
    witness = ks.ks_global_check(b, args.ks_samples, args.seed, args.tol)
    pres = core.state_preservation_check(b, args.samples, args.seed)
    if eps is not None:
        pos = epsilon.positivity_check(eps)
    else:
        pos = core.sampled_positivity_check(b, args.samples, args.seed)
    cp = core.cp_check(b)

    all_pass = pres.passes and pos.is_positive and cp.is_cp and witness is None
    return _report(args, 0 if all_pass else 1, {
        "input": source,
        "samples": args.samples,
        "seed": args.seed,
        "state_preservation": vars(pres),
        "positivity": vars(pos),
        "complete_positivity": {"is_cp": cp.is_cp, "min_choi_eig": cp.min_choi_eig},
        "ks_violation": _witness_block(witness),
        "all_pass": all_pass,
    })


def _cmd_ks(args) -> int:
    b, _, source = _resolve_tensor(args)
    witness = ks.ks_global_check(b, args.samples, args.seed, args.tol)
    probe_w = witness.w if witness is not None else np.array([1.0, 0.0, 0.0])
    nec = ks.ks_necessary_check(b, np.array([1.0, 0.0, 0.0]), probe_w)
    return _report(args, 1 if witness is not None else 0, {
        "input": source,
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
        **vars(nec),
        "witness": _witness_block(witness),
    })


def _cmd_choi(args) -> int:
    b, _, source = _resolve_tensor(args)
    cp = core.cp_check(b)
    return _report(args, 0 if cp.is_cp else 1, {
        "input": source,
        "eigenvalues": cp.eigenvalues,
        "min_eig": cp.min_choi_eig,
        "max_abs_eig": np.abs(cp.eigenvalues).max(),
        "is_cp": cp.is_cp,
    })


def _cmd_simulate(args) -> int:
    traj = dynamics.iterate(_family_coupling(args), args.init, args.steps, args.tol)
    _emit(args, functools.partial(files.write_trajectory_csv, traj))
    print(
        f"steps={len(traj.steps) - 1} converged={traj.converged} "
        f"final_rho={traj.steps[-1][2]!r} limit={traj.limit.tolist()}",
        file=sys.stdout if args.output else sys.stderr,
    )
    return 0


def _cmd_fixed_points(args) -> int:
    eps = _family_coupling(args)
    return _report(args, 0, {"input": {"epsilon": eps}, **vars(dynamics.fixed_points(eps))})


def _cmd_sweep(args) -> int:
    half = abs(_family_coupling(args))
    epsilon.build_coeff_tensor(half)  # the tensor gate refuses a half-width above core.MAX_COEFF before linspace
    rows = []
    for e in np.linspace(-half, half, args.count).tolist():
        b = epsilon.build_coeff_tensor(e)
        pos = epsilon.positivity_check(e)
        cp = core.cp_check(b)
        witness = ks.ks_global_check(b, args.samples, args.seed, args.tol)
        rows.append({
            "epsilon": e,
            "band": epsilon.classify_epsilon(e),
            "is_positive": pos.is_positive,
            "positivity_margin": pos.margin,
            "is_cp": cp.is_cp,
            "min_choi_eig": cp.min_choi_eig,
            "ks_violation_found": witness is not None,
            "ks_min_eig": witness.min_eig if witness is not None else None,
        })
    return _report(args, 0, {"samples": args.samples, "seed": args.seed, "rows": rows})


# Each command: (the help line the epilog of -h gives it, its handler, what main
# fills in for each flag left unset).  certify scans preservation and positivity
# with samples and the KS search with ks_samples; a given --samples sets both.
_COMMANDS = {
    "certify": ("state preservation, positivity, complete positivity and a KS-violation search", _cmd_certify,
                {"samples": core.DEFAULT_SAMPLES, "ks_samples": ks.KS_DEFAULT_SAMPLES, "tol": ks.KS_DEFAULT_TOL}),
    "ks": ("Kadison-Schwarz witness search and necessary-condition report", _cmd_ks,
           {"samples": ks.KS_DEFAULT_SAMPLES, "tol": ks.KS_DEFAULT_TOL}),
    "choi": ("assemble the Choi block matrix and test complete positivity", _cmd_choi, {}),
    "simulate": ("iterate the quadratic dynamics and write a trajectory file", _cmd_simulate,
                 {"steps": dynamics.DEFAULT_MAX_STEPS, "tol": dynamics.DEFAULT_CONV_TOL, "init": _parse_init("0.6,0,0")}),
    "fixed-points": ("fixed points of the dynamics inside the ball", _cmd_fixed_points, {}),
    "sweep": ("classify a grid of couplings", _cmd_sweep,
              {"epsilon": SWEEP_HALF_WIDTH, "count": SWEEP_COUNT, "samples": SWEEP_SAMPLES, "tol": ks.KS_DEFAULT_TOL}),
}


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    _, handler, defaults = _COMMANDS[args.command]
    args.ks_samples = args.samples
    for name, default in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
