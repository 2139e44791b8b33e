"""Command-line front end.

Verbs: validate, tetra (single-cell queries), maximize, solve, gap,
rigidity, fixture, selftest.  Six-vectors are comma-separated in the fixed
slot order 12,13,14,23,24,34; angles are radians unless --degrees is
given, which converts inputs only.  JSON output prints floats with 17
significant digits, so identical invocations are byte-identical.

Exit codes: 0 success, 1 validation/solver error (machine-readable error
object on stderr), 2 usage error.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import optimize, selftest, tetra, triangulation
from .errors import HyptetError


def _render(obj):
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"JSON has no number {float(obj)}")
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    if isinstance(obj, dict):
        return (
            "{"
            + ",".join(f"{json.dumps(str(k))}:{_render(v)}" for k, v in obj.items())
            + "}"
        )
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(obj):
    sys.stdout.write(_render(obj) + "\n")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_render(obj) + "\n")


class _UsageError(Exception):
    pass


def _parse_six(text, name, degrees=False):
    if text is None:
        raise _UsageError(f"{name} is required for this query")
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) != 6:
        raise _UsageError(f"{name} needs six comma-separated values")
    try:
        vals = np.array([float(p) for p in parts])
    except ValueError:
        raise _UsageError(f"{name} contains a non-numeric entry") from None
    if degrees:
        vals = vals * math.pi / 180.0
    return vals


def _cmd_validate(args):
    T = triangulation.validate(_load_json(args.triangulation))
    _emit(T.summary())
    return 0


def _alpha(args):
    return _parse_six(args.alpha, "--alpha", degrees=args.degrees)


def _lengths(args):
    return _parse_six(args.l, "--l")


#: the tetra queries: each maps ``args`` to its JSON object, or to the plain
#: line that ``classify`` prints
_TETRA_QUERIES = {
    "angles-to-lengths": lambda a: {"l": list(tetra.angles_to_lengths(_alpha(a)))},
    "lengths-to-angles": lambda a: {"alpha": list(tetra.extended_angles(_lengths(a)))},
    "classify": lambda a: tetra.classify(_lengths(a), tol=a.tol).value,
    "volume": lambda a: {"volume": tetra.volume_from_angles(_alpha(a))},
    "covolume": lambda a: {"covolume": tetra.covolume(_lengths(a))},
}


def _cmd_tetra(args):
    out = _TETRA_QUERIES[args.query](args)
    sys.stdout.write((out if isinstance(out, str) else _render(out)) + "\n")
    return 0


#: the solver verbs: each maps ``(T, k, args)`` to its report's JSON
_SOLVERS = {
    "maximize": lambda T, k, a: optimize.maximize_volume(T, k, tol=a.tol).to_json(),
    "solve": lambda T, k, a: optimize.solve_cone_angles(T, k, tol=a.tol).to_json(T),
    "gap": lambda T, k, a: optimize.duality_gap(T, k, tol=a.tol).to_json(),
    "rigidity": lambda T, k, a: optimize.rigidity_check(
        T, k, n_starts=a.starts, tol=a.tol, seed=a.seed
    ).to_json(),
}


def _cmd_solver(args):
    T = triangulation.validate(_load_json(args.triangulation))
    k = triangulation.ConeTarget.from_json(T, _load_json(args.k))
    _emit(_SOLVERS[args.verb](T, k, args))
    return 0


def _cmd_fixture(args):
    T, k, assignment = triangulation.doubled_fixture(_lengths(args))
    os.makedirs(args.out_dir, exist_ok=True)
    tri_path = os.path.join(args.out_dir, "tri.json")
    k_path = os.path.join(args.out_dir, "k.json")
    a_path = os.path.join(args.out_dir, "assignment.json")
    _write_json(tri_path, triangulation.triangulation_document(T))
    _write_json(k_path, k.to_json(T))
    _write_json(a_path, assignment.to_json())
    _emit({"tri": tri_path, "k": k_path, "assignment": a_path})
    return 0


def _cmd_selftest(args):
    ok = selftest.run_all(seed=args.seed, out=lambda s: sys.stdout.write(s + "\n"))
    return 0 if ok else 1


@functools.cache
def build_parser():
    """The ``hyptet`` parser, built once per process; ``main`` reuses it.

    Parsing leaves the parser unchanged, so one instance serves every call.
    """
    parser = argparse.ArgumentParser(
        prog="hyptet",
        description=(
            "Decorated tetrahedra with one truncated and three cusped "
            "vertices: geometry queries, triangulation validation, volume "
            "maximization, cone-angle solves, duality gap, and rigidity "
            "checks.  Six-vectors use slot order 12,13,14,23,24,34."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="validate a triangulation document")
    p.add_argument("triangulation")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("tetra", help="single-tetrahedron queries")
    p.add_argument("query", choices=list(_TETRA_QUERIES))
    p.add_argument("--alpha", help="six angles, comma separated")
    p.add_argument("--l", help="six signed lengths, comma separated")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument(
        "--degrees",
        action="store_true",
        help="interpret input angles as degrees (outputs stay in radians)",
    )
    p.set_defaults(func=_cmd_tetra)

    for verb in _SOLVERS:
        p = sub.add_parser(verb)
        p.add_argument("triangulation")
        p.add_argument("--k", required=True, help="cone target JSON file")
        p.add_argument(
            "--tol", type=float, default=1e-6 if verb == "rigidity" else 1e-8
        )
        if verb == "rigidity":
            p.add_argument("--starts", type=int, default=5)
            p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=_cmd_solver)

    p = sub.add_parser("fixture", help="emit a ready-made problem instance")
    p.add_argument("kind", choices=["double"])
    p.add_argument("--l", required=True, help="six interior lengths")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_fixture)

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (HyptetError, ValueError, OSError) as exc:
        sys.stderr.write(
            _render({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
