"""Command-line driver: build examples, run audits, scan branch sets,
estimate decay exponents and dimensions, and export plot-ready data.

Exit codes: 0 on success, 1 when a verify-all check fails, 2 on usage or
configuration errors.  Only verify-all exits 1: an audit that finds an
infinite factor and a disk that prints squeeze=VIOLATED still exit 0.
Identical invocations produce byte-identical output files; floats are
serialized with their shortest round-trip representation and infinities as
the strings "inf"/"-inf".  An audit's report holds no column: it is written
as it is evaluated, block by block, and its summary line takes the record
count and supremum from that write, so the family is evaluated once.  The
quasi and almost audits read `func1d.audit_intervals` as it is made, a block
at a time, so neither the family nor the report is held whole.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import _checks, acceptance, branch, constructions as cons, disk2d, func1d
from .writers import write_csv, write_json

__all__ = ["main", "console_main"]

USAGE_ERROR = 2
VERIFY_FAILURE = 1


class UsageError(ValueError):
    pass


# The named example functions, each declared once: a fixed function is built
# from the --samples value, a Cantor refinement from its (flavor, schedule)
# at --level.
_FIXED = {
    "double-line": lambda samples: cons.make_double_line(0.0, 1.0),
    "diamond": lambda samples: cons.make_diamond(0.0, 1.0),
    "losange": lambda samples: cons.make_losange(0.0, 1.0),
    "pluri-losange-demo": lambda samples: cons.make_pluri_losange([(0.1, 0.3), (0.5, 0.9)]),
    "sin": lambda samples: cons.sin_sampled(_checks.integer("--samples", samples, 2, UsageError) if samples else 4097),
}
_LEVELED = {
    "cantor-diamond": ("diamond", "ternary"),
    "cantor-losange": ("losange", "ternary"),
    "fat-cantor-diamond": ("diamond", "fat"),
    "fat-cantor-losange": ("losange", "fat"),
}
NAMED_FUNCTIONS = (*_FIXED, *_LEVELED)


def build_named_function(name: str, level: int | None = None, samples: int | None = None) -> func1d.PiecewiseAffineQ:
    """Construct one of the named example functions."""
    if samples is not None:
        _checks.integer("--samples", samples, 1, UsageError)
    if name in _FIXED:
        return _FIXED[name](samples)
    if level is None:
        raise UsageError(f"{name} requires --level")
    return cons.cantor_level(cons.CantorConstruction(level, *_LEVELED[name]))


def _write(args, header, columns, payload) -> None:
    """Write a command's file: the CSV `columns` under `header`, or the JSON
    `payload`, as --format asks.  Every layout but an audit report's, which
    its `MinimalityReport` writes, is declared in the command that calls this."""
    if args.format == "csv":
        write_csv(args.out, header, [columns])
    else:
        write_json(args.out, payload)


def _cmd_example(args) -> int:
    u = build_named_function(args.name, args.level, args.samples)
    n = args.samples if args.samples else 1025
    func1d._check_rows(n, "the example grid")
    lo, hi = u.domain
    xs = np.linspace(lo, hi, n)
    values = func1d.branch_values(u, xs)
    _write(args, ["x"] + [f"branch_{i + 1}" for i in range(u.q_count)], [xs, *values],
           {"name": args.name, "level": args.level, "x": xs, "branches": values})
    return 0


def _cmd_audit(args) -> int:
    u = build_named_function(args.name, args.level, args.samples)
    if args.mode == "omega":
        _checks.integer("--centers", args.centers, 1, UsageError)
        lo, hi = u.domain
        radii = args.radii or [(hi - lo) * f for f in (0.02, 0.05, 0.1, 0.2)]
        func1d._check_rows(len(radii) * args.centers)
        balls = []
        for r in radii:
            _checks.real("radius", r, 0, (hi - lo) / 2, error=UsageError)
            centers = np.linspace(lo + r, hi - r, args.centers)
            if np.any(centers - r >= centers + r):
                raise UsageError(f"radius {r} is too small to resolve: a ball around a center rounds to a point")
            balls.append(np.column_stack((centers, np.full(centers.size, r))))
        report = func1d.omega_report(u, np.concatenate(balls))
    else:
        family = func1d.audit_intervals(u, args.depth)
        if args.mode == "quasi":
            report = func1d.quasi_k_ratio(u, family)
        else:
            report = func1d.almost_deficiency(u, args.alpha, family)
    if args.format == "csv":
        report.to_csv(args.out)
    else:
        report.to_json(args.out)
    print(f"audit {args.name} mode={args.mode} records={report.record_count} supremum={report.supremum!r}")
    return 0


def _cmd_branch(args) -> int:
    u = build_named_function(args.name, args.level, args.samples)
    sc = branch.scan(u, args.grid, args.tol)
    scales = args.scales if args.scales else [3.0**-k for k in range(2, 8)]
    report = branch.dimension_report(sc, scales)
    scan = {"x": sc.grid, "sigma": sc.sigma, "flagged": sc.flags, "tol": sc.tol}
    dimension = {"scales": report.scales, "counts": report.counts, "slope": report.slope,
                 "r_squared": report.r_squared}
    _write(args, ["x", "sigma", "flagged"], [sc.grid, sc.sigma, sc.flags.astype(int)],
           {"scan": scan, "dimension": dimension})
    print(f"branch {args.name} flagged={int(sc.flags.sum())} dimension={report.slope!r}")
    return 0


def _cmd_decay(args) -> int:
    u = build_named_function(args.name, args.level, args.samples)
    scales = np.array(args.scales if args.scales else np.logspace(0, -2, 12), dtype=float)
    slope = func1d.energy_decay_exponent(u, args.center, args.r0, scales)
    energies = func1d.energy_between(u, args.center - scales * args.r0, args.center + scales * args.r0)
    _write(args, ["scale", "radius", "energy"], [scales, scales * args.r0, energies],
           {"name": args.name, "center": args.center, "r0": args.r0,
            "profile": np.column_stack((scales, energies)), "slope": slope})
    print(f"decay {args.name} center={args.center!r} slope={slope!r}")
    return 0


# The disk command's circle traces: the array of angles -> its Q branches over them.
_TRACES = {
    "single-cos": lambda t: [np.cos(t)],
    "shifted-pair": lambda t: [np.cos(t), 2.0 + np.cos(t)],
    "sqrt-type": lambda t: [np.cos(t / 2.0), -np.cos(t / 2.0)],
    "constant": lambda t: [1.0],
}


def _cmd_disk(args) -> int:
    trace = disk2d.sorted_trace(_TRACES[args.trace], args.samples, args.modes, radius=args.radius)
    minimizer = disk2d.minimize_disk(trace)
    holds, margin = disk2d.check_squeeze_2d(minimizer)
    _write(args, ["angle"] + [f"branch_{i + 1}" for i in range(trace.q_count)], [trace.angles, *trace.samples],
           {"radius": trace.radius, "q_count": trace.q_count, "angles": trace.angles, "samples": trace.samples,
            "cos_coeffs": trace.cos_coeffs, "sin_coeffs": trace.sin_coeffs,
            "truncation_residual": trace.truncation_residual, "dir_interior": minimizer.dir_interior,
            "dir_boundary": minimizer.dir_boundary, "squeeze_margin": margin})
    print(
        f"disk trace={args.trace} dir_interior={minimizer.dir_interior!r} "
        f"dir_boundary={minimizer.dir_boundary!r} squeeze={'ok' if holds else 'VIOLATED'} margin={margin!r}"
    )
    return 0


def _cmd_verify_all(_args) -> int:
    results = acceptance.run_all()
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)} of {len(results)} checks passed")
    return 0 if not failed else VERIFY_FAILURE


def _float_list(text: str) -> list[float]:
    """The floats of a comma-separated value; a value with none is refused, so
    only a flag left out takes its default."""
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one comma-separated float, got {text!r}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qvlab", description=__doc__)
    parser.add_argument("--config", help="load parameters from a JSON file instead of flags")
    sub = parser.add_subparsers(dest="command")

    def add_common(p, with_level=True):
        if with_level:
            p.add_argument("--level", type=int, default=None, help="refinement level for cantor-* functions")
            p.add_argument("--samples", type=int, default=None, help="sample count (sin example / outputs)")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("example", help="emit sampled branches of a named function")
    p.add_argument("name", choices=NAMED_FUNCTIONS)
    add_common(p)
    p.set_defaults(fn=_cmd_example)

    p = sub.add_parser("audit", help="run a minimality audit")
    p.add_argument("name", choices=NAMED_FUNCTIONS)
    p.add_argument("--mode", choices=("quasi", "omega", "almost"), required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--radii", type=_float_list, default=None, help="omega mode: comma-separated radii")
    p.add_argument("--centers", type=int, default=201, help="omega mode: centers per radius")
    add_common(p)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("branch", help="scan the branch set and estimate its dimension")
    p.add_argument("name", choices=NAMED_FUNCTIONS)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--scales", type=_float_list, default=None)
    p.add_argument("--tol", type=float, default=None)
    add_common(p)
    p.set_defaults(fn=_cmd_branch)

    p = sub.add_parser("decay", help="energy decay profile around a center")
    p.add_argument("name", choices=NAMED_FUNCTIONS)
    p.add_argument("--center", type=float, required=True)
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--scales", type=_float_list, default=None)
    add_common(p)
    p.set_defaults(fn=_cmd_decay)

    p = sub.add_parser("disk", help="least-energy disk extension of a circle trace")
    p.add_argument("--trace", choices=_TRACES, required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--modes", type=int, default=512)
    add_common(p, with_level=False)
    p.set_defaults(fn=_cmd_disk)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.set_defaults(fn=_cmd_verify_all)

    return parser


def _argv_from_config(path: str) -> list[str]:
    """The argv of a JSON config: its "command", its "name" as the positional,
    and every other key as one ``--key=value`` token, a list joined by commas,
    so that a value starting with "-" is not read as a flag.  The keys are
    the command's flags, so its parser checks them as it checks flags and
    takes the same abbreviations."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(config, dict) or "command" not in config:
        raise UsageError("config must be a JSON object with a 'command' key")
    argv = [str(config.pop("command"))]
    positional = config.pop("name", None)
    if positional is not None:
        argv.append(str(positional))
    for key, value in config.items():
        text = ",".join(repr(float(v)) for v in value) if isinstance(value, list) else str(value)
        argv.append(f"--{key}={text}")
    return argv


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if args.config:
            if extras or args.command:
                raise UsageError("--config cannot be combined with other arguments")
            args = parser.parse_args(_argv_from_config(args.config))
        elif extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        if args.command is None:
            parser.print_usage(sys.stderr)
            return USAGE_ERROR
        return args.fn(args)
    except SystemExit as exc:  # argparse errors exit with code 2 already
        return int(exc.code) if exc.code is not None else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
