"""Command-line front end: build a graph from one input source, run the
certification pipeline (or export embeddings / scan the circulant family),
and emit text or JSON reports.

Exit codes for `check`: 0 certified at both ends, 2 refuted at some end,
3 undecided anywhere, 1 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from ._version import __version__
from .catalog import catalog, catalog_names
from .certify import STAGES, CheckOptions, RigidityReport, check_conformal_rigidity
from .embeddings import canonical_embedding, edge_length_profile, embedding_to_csv
from .errors import ConfrigidError
from .graphs import CayleySpec, Graph, cayley_abelian, check_orders, circulant
from .graphs import parse_edge_list, parse_graph6
from .spectra import circulant_curve_extremes, eigendecompose
from .symmetry import parse_generators


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--catalog", metavar="NAME",
                     help="named graph: " + ", ".join(catalog_names()))
    src.add_argument("--graph6", metavar="FILE", help="file with one graph6 line")
    src.add_argument("--edges", metavar="FILE",
                     help="edge-list file: first line 'n m', then one edge per line")
    src.add_argument("--circulant", nargs=2, metavar=("N", "S"),
                     help="circulant on Z_N with connection set S (comma list)")
    src.add_argument("--cayley", nargs="+", metavar="SPEC",
                     help="abelian Cayley graph: orders 'n1,n2,...' then one "
                          "generator per argument as comma-separated coordinates "
                          "(the set is closed under negation automatically)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-group", type=float, default=None,
                   help="eigenvalue grouping tolerance (default: scaled 1e-8)")
    p.add_argument("--tol-iso", type=float, default=CheckOptions.iso_tol,
                   help="edge-isometry tolerance (relative)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _add_cascade_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-feas", type=float, default=CheckOptions.feas_tol,
                   help="equal-length decision tolerance")
    p.add_argument("--stage-skip", default="",
                   help="comma list of stages to skip; stages: " + ", ".join(STAGES))


def build_graph(args: argparse.Namespace) -> Graph:
    if args.catalog:
        return catalog(args.catalog)
    if args.graph6:
        with open(args.graph6) as fh:
            return parse_graph6(fh.read())
    if args.edges:
        with open(args.edges) as fh:
            return parse_edge_list(fh.read())
    if args.circulant:
        n = int(args.circulant[0])
        s = {int(tok) for tok in args.circulant[1].split(",") if tok.strip()}
        return circulant(n, s)
    if args.cayley:
        orders = tuple(int(tok) for tok in args.cayley[0].split(","))
        check_orders(orders)  # before any coordinate is reduced modulo them
        gens: set = set()
        for item in args.cayley[1:]:
            coords = [int(tok) for tok in item.split(",")]
            if len(coords) != len(orders):
                raise ValueError(f"generator {item!r} has wrong arity")
            el = tuple(c % o for c, o in zip(coords, orders))
            gens.add(el)
            gens.add(tuple((-c) % o for c, o in zip(el, orders)))
        return cayley_abelian(CayleySpec(orders=orders, gens=frozenset(gens)))
    raise ValueError("no input source given")


def build_options(args: argparse.Namespace, g: Graph) -> CheckOptions:
    gens = None
    if getattr(args, "gens", None):
        with open(args.gens) as fh:
            gens = parse_generators(fh.read(), g.n)
    return CheckOptions(
        group_tol=args.tol_group,
        iso_tol=args.tol_iso,
        feas_tol=args.tol_feas,
        generators=gens,
        skip_stages={tok.strip() for tok in args.stage_skip.split(",") if tok.strip()},
    )


def _print_text_report(rep: RigidityReport, opts: CheckOptions) -> None:
    print(f"confrigid {__version__}  (iso_tol={opts.iso_tol:g}, "
          f"feas_tol={opts.feas_tol:g})")
    name = rep.graph_name or "<unnamed>"
    print(f"graph: {name}  n={rep.n} m={rep.m}")
    print(f"lambda2 = {rep.lambda2:.12g}   lambdaMax = {rep.lambda_max:.12g}")
    print(f"walk1 = {rep.walk1}   vertex-transitive = {rep.vertex_transitive}   "
          f"edge orbits = {rep.edge_orbits}   search exhausted = {rep.search_exhausted}")
    for er in (rep.lower, rep.upper):
        line = f"{er.end:>5}: {er.verdict}"
        if er.method:
            line += f" via {er.method}"
        print(line)
        if er.witness is not None:
            w = ", ".join(f"{x:.6g}" for x in er.witness)
            print(f"       witness weights: [{w}]")
            print(f"       achieved value: {er.residuals.get('best_value'):.12g}")
    verdict = ("conformally rigid" if rep.rigid else
               "refuted" if "refuted" in (rep.lower.verdict, rep.upper.verdict)
               else "undecided")
    print(f"overall: {verdict}")


def cmd_check(args: argparse.Namespace) -> int:
    g = build_graph(args)
    opts = build_options(args, g)
    rep = check_conformal_rigidity(g, opts)
    if args.json:
        print(json.dumps(rep.to_json_dict(), indent=2))
    else:
        _print_text_report(rep, opts)
    if rep.rigid:
        return 0
    if "refuted" in (rep.lower.verdict, rep.upper.verdict):
        return 2
    return 3


def cmd_embed(args: argparse.Namespace) -> int:
    opts = CheckOptions(group_tol=args.tol_group, iso_tol=args.tol_iso)
    g = build_graph(args)
    dec = eigendecompose(g.unit_laplacian, group_tol=opts.group_tol)
    if args.value is not None:
        lam = args.value
    elif args.at == "lambdamax":
        lam = float(dec.eigenvalues[-1])
    else:
        lam = float(dec.eigenvalues[1])
    emb = canonical_embedding(g, dec, lam)
    prof = edge_length_profile(emb, g, tol=opts.iso_tol)
    if args.json:
        print(json.dumps({
            "eigenvalue": emb.eigenvalue,
            "points": emb.points.tolist(),
            "edgeLengths": prof.lengths.tolist(),
            "edgeIsometric": prof.is_edge_isometric,
            "spherical": prof.is_spherical,
            "radius": prof.radius,
        }, indent=2))
        return 0
    print(f"# eigenvalue = {emb.eigenvalue:.12g} (multiplicity {emb.dim})")
    print(f"# edge lengths: min {prof.lengths.min():.12g} max {prof.lengths.max():.12g}")
    print(f"# edge-isometric: {prof.is_edge_isometric}   "
          f"spherical: {prof.is_spherical} (radius {prof.radius:.12g})")
    sys.stdout.write(embedding_to_csv(emb))
    return 0


def cmd_family(args: argparse.Namespace) -> int:
    lo, hi = args.start, args.end
    if not (6 <= lo <= hi <= 64):
        raise ValueError("family range must lie within 6..64")
    rows = []
    for n in range(lo, hi + 1):
        g = circulant(3 * n, {1, n - 1})
        opts = build_options(args, g)
        rep = check_conformal_rigidity(g, opts)
        kmin, kmax = circulant_curve_extremes(n)
        rows.append({
            "n": n,
            "N": 3 * n,
            "lowerVerdict": rep.lower.verdict,
            "upperVerdict": rep.upper.verdict,
            "lowerMethod": rep.lower.method,
            "upperMethod": rep.upper.method,
            "lambda2": rep.lambda2,
            "lambdaMax": rep.lambda_max,
            "argminIndex": kmin,
            "argmaxIndex": kmax,
            "walk1": rep.walk1,
        })
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print("n\tN\tlower\tupper\tlower_method\tupper_method\tlambda2\tlambdaMax\t"
          "argmin_k\targmax_k\twalk1")
    for r in rows:
        print(f"{r['n']}\t{r['N']}\t{r['lowerVerdict']}\t{r['upperVerdict']}\t"
              f"{r['lowerMethod']}\t{r['upperMethod']}\t"
              f"{r['lambda2']:.10g}\t{r['lambdaMax']:.10g}\t"
              f"{r['argminIndex']}\t{r['argmaxIndex']}\t{r['walk1']}")
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confrigid",
        description="decide and certify conformal rigidity of finite graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the certification pipeline")
    _add_input_flags(p_check)
    p_check.add_argument("--gens", metavar="FILE",
                         help="file of automorphisms (one permutation per line, "
                              "images separated by spaces or commas); skips the search")
    _add_common_flags(p_check)
    _add_cascade_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_embed = sub.add_parser("embed", help="export a canonical spectral embedding")
    _add_input_flags(p_embed)
    _add_common_flags(p_embed)
    p_embed.add_argument("--at", choices=["lambda2", "lambdamax"], default="lambda2",
                         help="which end of the spectrum to embed")
    p_embed.add_argument("--value", type=float, default=None,
                         help="embed at this exact eigenvalue instead")
    p_embed.set_defaults(func=cmd_embed)

    p_fam = sub.add_parser(
        "family", help="scan the circulant family Cay(Z_3n, {1, n-1})"
    )
    p_fam.add_argument("start", type=int, help="first n (>= 6)")
    p_fam.add_argument("end", type=int, help="last n (<= 64)")
    _add_common_flags(p_fam)
    _add_cascade_flags(p_fam)
    p_fam.set_defaults(func=cmd_family)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 means "refuted" here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfrigidError, ValueError, OSError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
