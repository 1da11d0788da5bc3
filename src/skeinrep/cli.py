"""Command-line front end: triangulation info, kernel reports, named suites.

Exit codes: 0 = all checks pass, 1 = a check failed, 2 = input error.
Reports are deterministic for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from .cfalgebra import CFAlgebra
from .errors import ParseError, SkeinrepError
from .kernels import (offdiag_kernel, pants_spaces, sample_generic_weights,
                      total_kernel)
from .representation import WeightSystem, build_rep
from .triangulation import Triangulation, standard_library
from .verify import SUITES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="skeinrep",
        description="balanced quantum-torus algebras of triangulated surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="triangulation report")
    p_info.add_argument("--triangulation", required=False,
                        help="triangulation JSON file")
    p_info.add_argument("--name", choices=("sphere2", "torus1", "genus2_sep"),
                        help="standard library triangulation")
    p_info.add_argument("--N", type=int, default=3)
    p_info.add_argument("--out", help="write the JSON report here")

    p_ker = sub.add_parser("kernels", help="off-diagonal kernel dimensions")
    p_ker.add_argument("--triangulation")
    p_ker.add_argument("--name", choices=("sphere2", "torus1", "genus2_sep"))
    p_ker.add_argument("--weights",
                       help="weights JSON file, whose mode picks the arithmetic; "
                            "random float weights if omitted")
    p_ker.add_argument("--N", type=int, default=3)
    p_ker.add_argument("--tol", type=float, default=1e-8)
    p_ker.add_argument("--seed", type=int, default=0)
    p_ker.add_argument("--out")

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", required=True, choices=SUITES)
    p_ver.add_argument("--N", type=int, default=3)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tol", type=float, default=1e-8)
    p_ver.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        if args.N % 2 == 0 or args.N < 3:
            raise ParseError("N must be odd and >= 3")
        if "tol" in args and not 0 < args.tol < math.inf:
            raise ParseError("tol must be finite and > 0")
        if args.command == "info":
            return cmd_info(args)
        if args.command == "kernels":
            return cmd_kernels(args)
        return cmd_verify(args)
    except SkeinrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _load_triangulation(args) -> Triangulation:
    if args.name and args.triangulation:
        raise ParseError("give --triangulation FILE or --name NAME, not both")
    if args.name:
        return standard_library(args.name)
    if args.triangulation:
        with open(args.triangulation) as fh:
            return Triangulation.from_json(fh.read())
    raise ParseError("provide --triangulation FILE or --name NAME")


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, sort_keys=True, indent=1)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_info(args) -> int:
    T = _load_triangulation(args)
    lat = CFAlgebra(T, args.N).lattice
    report = {
        "genus": T.genus,
        "vertices": T.num_vertices,
        "edges": T.num_edges,
        "faces": T.num_faces,
        "combinatorial": T.is_combinatorial(),
        "sigma": [list(r) for r in T.sigma_matrix()],
        "fans": [list(f.edges) for f in T.fans],
        "balanced_rank": lat.rank,
        "balanced_index": lat.index_in_ZE,
    }
    print(f"g={T.genus} p={T.num_vertices} E={T.num_edges} F={T.num_faces} "
          f"combinatorial={T.is_combinatorial()}")
    print("sigma:")
    for row in T.sigma_matrix():
        print("  " + " ".join(f"{v:3d}" for v in row))
    for fan in T.fans:
        print(f"fan v{fan.vertex}: {list(fan.edges)}")
    print(f"balanced lattice: rank {lat.rank}, index {lat.index_in_ZE} in Z^E")
    _emit(report, args.out)
    return 0


def cmd_kernels(args) -> int:
    T = _load_triangulation(args)
    N = args.N
    if args.weights:
        with open(args.weights) as fh:
            W = WeightSystem.from_json(T, fh.read())
        if W.N != N:
            raise ParseError(f"weights file has N={W.N} but --N is {N}")
        if not W.has_roots():
            raise ParseError("weights file has no u values, so no representation")
    elif T.num_vertices == 1:
        W = sample_generic_weights(T, N, random.Random(args.seed))
    else:
        raise ParseError("provide --weights for triangulations with several vertices")
    vrep = W.validate()
    if not vrep["valid"]:
        report = {"weights_valid": False,
                  "residuals": [v["sum_residual"] for v in vrep["vertices"]]}
        _emit(report, args.out)
        return 1
    rep = build_rep(T, N, W)
    F = total_kernel(rep, tol=args.tol)
    # on one vertex F is ker mu(Q_v) itself
    per_vertex = [F.dim] if T.num_vertices == 1 else [
        offdiag_kernel(rep, v, tol=args.tol).dim for v in range(T.num_vertices)]
    g = T.genus
    bound = N ** (3 * (g - 1)) if g >= 2 else (N if g == 1 else 1)
    # rho[K1]'s spectrum from the pants spaces of F, if there are any
    spaces = None if T.designated_edge is None else pants_spaces(rep, T.designated_edge, args.tol)
    eigen = [{"value": [lam.real, lam.imag], "multiplicity": mult}
             for lam, mult in (spaces.spectrum() if spaces is not None else [])]
    report = {
        "dim": rep.dim,
        "per_vertex_dims": per_vertex,
        "total_dim": F.dim,
        "bound": bound,
        "eigen": eigen,
        "checks": {
            "weights_valid": True,
            "dimension_bound": F.dim >= bound,
        },
    }
    _emit(report, args.out)
    return 0 if report["checks"]["dimension_bound"] else 1


def cmd_verify(args) -> int:
    checks = SUITES[args.suite](args.N, random.Random(args.seed), args.tol)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name} ({c.detail})")
    passed = all(c.passed for c in checks)
    if args.out:
        _emit({"suite": args.suite, "N": args.N, "seed": args.seed,
               "checks": [{"name": c.name, "passed": bool(c.passed),
                           "detail": c.detail} for c in checks],
               "passed": passed}, args.out)
    print("all checks passed" if passed else "some checks FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
