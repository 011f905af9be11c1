"""Command-line surface.

Subcommands:
  enumerate         families of almost-conjugate representations
  analyze           invariants of one representation
  flip              shift and flipped representation (or the reason it fails)
  build-main        the generic isospectral pair, written as BGF files
  build-24          a member of the 24-dimensional family, written as BGF
  find-translations translation search for a representation
  verify            torsion-freeness / Sunada comparison of two BGF files
  tables            reproduce a reference table
  compare-rings     per-degree P and beta comparison with the ring verdict

Representation strings use the display bracket order (singletons first),
e.g. ``--k 3 --rep 3,1,1,1,0,1,0``; add ``--with-q0`` when the trivial
multiplicity is included as the first entry.  Diagnostics go to stderr as a
single line and the exit status is nonzero; no partial output is emitted.
"""

from __future__ import annotations

import argparse
import sys

from . import bieberbach, cohomology, diagrep, search
from .chargroup import display_order, indices_from_mask, mask_from_indices
from .diagrep import DiagonalRep
from .errors import CapabilityError
from .flip import DEFAULT_SPEC, NON_INTEGER_SHIFT, FlipSpec, apply_flip


def _parse_rep(args) -> DiagonalRep:
    return diagrep.parse_rep(args.rep, args.k, with_q0=getattr(args, "with_q0", False))


def _parse_element(token: str, k: int) -> int:
    token = token.strip()
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"malformed group element {token!r}: expected digit string like 13")
    if k > 9:
        raise ValueError("digit-string elements are only unambiguous for k <= 9")
    indices = [int(ch) for ch in token]
    if len(set(indices)) != len(indices):
        raise ValueError(f"repeated index in group element {token!r}")
    return mask_from_indices(indices, k)


def _cmd_enumerate(args) -> str:
    cfg = search.SearchConfig(
        k=args.k, n=args.n, n_max=args.n_max,
        min_family_size=args.min_family_size,
    )
    families = search.enumerate_families(cfg)
    if args.format == "json":
        return search.families_to_json(cfg, families)
    if args.format == "csv":
        return search.families_to_csv(families)
    return search.families_to_text(families)


def _cmd_analyze(args) -> str:
    rep = _parse_rep(args)
    lines = [f"rep: [{diagrep.format_rep(rep)}]  (k={rep.k}, n={rep.n}, q0={rep.q[0]})"]
    fixed = diagrep.fixed_dims(rep)
    dims = []
    for mask in display_order(rep.k):
        label = "".join(str(i) for i in indices_from_mask(mask)) or "0"
        dims.append(f"n_B{label}={fixed[mask]}")
    lines.append("fixed dims: " + " ".join(dims))
    lines.append("pattern: " + ",".join(str(c) for c in diagrep.pattern(rep.q)))
    lines.append("betti: " + ",".join(str(b) for b in cohomology.betti_numbers(rep)))
    prim = cohomology.primitive_counts(rep)
    lines.append("prim: " + ",".join(str(p) for p in prim))
    lines.append(f"faithful: {diagrep.is_faithful(rep)}")
    lines.append(f"contains -Id: {diagrep.contains_minus_identity(rep)}")
    lines.append(f"orientable: {diagrep.is_orientable(rep)}")
    lines.append(f"kahler class: {diagrep.kahler_class(rep)}")
    lines.append(f"minimal generators: {sum(prim)}")
    return "\n".join(lines)


def _cmd_flip(args) -> str:
    rep = _parse_rep(args)
    if args.pair:
        parts = args.pair.split(",")
        if len(parts) != 2:
            raise ValueError("--pair wants two comma-separated elements, e.g. 1,2")
        spec = FlipSpec(_parse_element(parts[0], rep.k), _parse_element(parts[1], rep.k))
    else:
        spec = DEFAULT_SPEC
    outcome = apply_flip(rep, spec)
    if not outcome.applicable:
        return f"inapplicable: u = {outcome.shift}" if outcome.reason == NON_INTEGER_SHIFT \
            else f"inapplicable: {outcome.reason} (u = {outcome.shift})"
    return f"u = {outcome.shift}\nflipped: [{diagrep.format_rep(outcome.rep)}]"


def _cmd_build_main(args) -> str:
    gamma, gamma_prime = bieberbach.construct_main_pair(args.k, args.n)
    paths = (f"{args.out}-gamma.bgf", f"{args.out}-gammaprime.bgf")
    for path, group in zip(paths, (gamma, gamma_prime)):
        bieberbach.write_bgf(group, path)
    return "\n".join(f"wrote {p}" for p in paths)


def _cmd_build_24(args) -> str:
    group = bieberbach.construct_family24(args.j)
    bieberbach.write_bgf(group, args.out)
    return f"wrote {args.out}"


def _cmd_find_translations(args) -> str:
    rep = _parse_rep(args)
    group = bieberbach.find_translations(rep)
    if group is None:
        message = "no torsion-free translation assignment found"
        if diagrep.contains_minus_identity(rep):
            message += ": some nonzero element acts as -Id, so no Bieberbach group has this holonomy"
        return message
    bieberbach.write_bgf(group, args.out)
    return f"wrote {args.out}"


def _cmd_verify(args) -> str:
    ga = bieberbach.read_bgf(args.a)
    gb = bieberbach.read_bgf(args.b)
    lines = []
    for name, g in (("A", ga), ("B", gb)):
        check = bieberbach.is_torsion_free(g)
        status = "torsion-free" if check.ok else f"NOT torsion-free (witness element {check.witness})"
        lines.append(f"{name}: k={g.k} n={g.n} [{diagrep.format_rep(g.rep)}] {status}")
    for name, g in (("A", ga), ("B", gb)):
        lines.append(f"Sunada numbers {name}:")
        lines.append(bieberbach.sunada_table_text(bieberbach.sunada_table(g), g.n))
    if ga.n != gb.n:
        lines.append("isospectral: incomparable (different dimensions)")
        return "\n".join(lines)
    iso = bieberbach.is_sunada_isospectral(ga, gb)
    lines.append(f"Sunada isospectral: {iso}")
    lines.append(_ring_verdict(cohomology.primitive_counts(ga.rep),
                               cohomology.primitive_counts(gb.rep)))
    return "\n".join(lines)


def _ring_verdict(pa, pb) -> str:
    """Compare P-counts by ΣP, the sum of all P_p including P_0 = 1, then per degree."""
    sa, sb = sum(pa), sum(pb)
    if sa != sb:
        return f"rings: not isomorphic (ΣP differs: {sa} vs {sb})"
    if pa != pb:
        p = next(i for i, (x, y) in enumerate(zip(pa, pb)) if x != y)
        return (f"rings: not isomorphic as graded algebras (P_{p} differs: "
                f"{pa[p]} vs {pb[p]}); indistinguishable by total P-count ({sa})")
    return f"rings: indistinguishable by P-counts (ΣP = {sa})"


def _cmd_tables(args) -> str:
    cfg = search.SearchConfig(**search.TABLE_SPECS[args.id])
    return search.families_to_text(search.enumerate_families(cfg))


def _cmd_compare_rings(args) -> str:
    a = diagrep.parse_rep(args.rep_a, args.k, with_q0=args.with_q0)
    b = diagrep.parse_rep(args.rep_b, args.k, with_q0=args.with_q0)
    if a.n != b.n:
        raise ValueError("representations have different dimensions")
    pa, pb = cohomology.primitive_counts(a), cohomology.primitive_counts(b)
    ba, bb = cohomology.betti_numbers(a), cohomology.betti_numbers(b)
    lines = [
        "p     P_A   P_B   beta_A beta_B",
    ]
    for p in range(a.n + 1):
        lines.append(f"{p:<5} {pa[p]:<5} {pb[p]:<5} {ba[p]:<6} {bb[p]:<6}")
    lines.append(_ring_verdict(pa, pb))
    return "\n".join(lines)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # one-line diagnostics on stderr instead of argparse's usage dump
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flatiso",
        description="almost-conjugate diagonal representations, Sunada-isospectral "
                    "flat manifolds and their invariant cohomology rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rep_args(p):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--rep", required=True,
                       help="comma-separated multiplicities in display order")
        p.add_argument("--with-q0", action="store_true",
                       help="the first entry is the trivial-character multiplicity")

    p = sub.add_parser("enumerate", help="families of almost-conjugate representations")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--min-family-size", type=int, default=2)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("analyze", help="invariants of one representation")
    add_rep_args(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("flip", help="flip a representation")
    add_rep_args(p)
    p.add_argument("--pair", default=None, help="flip elements, e.g. 1,2 or 1,13")
    p.set_defaults(fn=_cmd_flip)

    p = sub.add_parser("build-main", help="generic isospectral pair as BGF files")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(fn=_cmd_build_main)

    p = sub.add_parser("build-24", help="24-dimensional family member as BGF")
    p.add_argument("--j", type=int, required=True, help="member index 1..8")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_build_24)

    p = sub.add_parser("find-translations", help="search torsion-free translations")
    add_rep_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_find_translations)

    p = sub.add_parser("verify", help="compare two BGF files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("tables", help="reproduce a reference table")
    p.add_argument("--id", type=int, required=True, choices=(1, 2, 3))
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("compare-rings", help="P/beta comparison of two representations")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rep-a", required=True)
    p.add_argument("--rep-b", required=True)
    p.add_argument("--with-q0", action="store_true")
    p.set_defaults(fn=_cmd_compare_rings)

    return parser


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        output = args.fn(args)
    except (ValueError, CapabilityError, OSError) as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    if output:
        print(output, file=stdout)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
