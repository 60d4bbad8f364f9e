"""Command-line front end: evaluate bounds, check feasibility, compare
specializations, optimize schemes, and run the symbolic derivation
pipeline.  Emits human-readable tables or stable sorted CSV."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .bounds import (
    cutset_max_grid,
    ddf_bound,
    feasibility_check,
    induced_input_dist,
    is_feasible,
    nnc_bound,
    nncpdf_bound,
    theorem7_bound,
)
from .derivation import (
    BlockLayout,
    atom_values,
    build_unfolded_joint,
    derive_p2p_region,
    derive_region,
    derive_symbolic_families,
    evaluate_unfolded_atom,
    generate_constraints,
    simplify_info_term,
)
from .errors import NncpdfError
from .network import (
    Network,
    assemble_joint,
    load_network_file,
    load_scheme_file,
    make_ddf_scheme,
    make_nnc_scheme,
    scheme_to_document,
)
from .omega import build_nncpdf_omega
from .optimize import SearchConfig, optimize
from .probability import mutual_information
from .symbolic import evaluate_region


def _fmt_set(s) -> str:
    return ";".join(str(k) for k in sorted(s)) if s else "-"


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _num(x: float) -> str:
    return f"{x:.12g}"


def _load_pair(args: argparse.Namespace):
    if not args.network or not args.scheme:
        raise NncpdfError("this subcommand needs --network and --scheme")
    net = load_network_file(args.network)
    scheme = load_scheme_file(args.scheme, net.N)
    return net, scheme


def _cmd_eval(args: argparse.Namespace) -> str:
    net, scheme = _load_pair(args)
    if args.dest is not None and args.dest not in net.destinations:
        raise NncpdfError(
            f"--dest {args.dest} is not a destination; the network's "
            f"destinations are {sorted(net.destinations)}"
        )
    report = nncpdf_bound(net, scheme, complement=args.complement, perm=args.perm)
    cuts = [
        c
        for c in report.cuts
        if args.dest is None or c.cut.d == args.dest
    ]
    cuts.sort(key=lambda c: (c.cut.d, sorted(c.cut.S), sorted(c.cut.T)))
    bound = (
        report.per_destination[args.dest] if args.dest is not None else report.bound
    )
    if args.fmt == "csv":
        rows = [["record", "destination", "S", "T",
                 "term1", "term2", "term3", "term4", "value"]]
        for c in cuts:
            rows.append(
                ["cut", c.cut.d, _fmt_set(c.cut.S), _fmt_set(c.cut.T)]
                + [_num(t) for t in c.terms]
                + [_num(c.total)]
            )
        rows.append(["bound", "", "", "", "", "", "", "", _num(bound)])
        rows.append(["feasible", "", "", "", "", "", "", "",
                     str(report.feasible).lower()])
        return _csv(rows)
    lines = [f"{'d':>3} {'S':>8} {'T':>8} {'term1':>12} {'term2':>12} "
             f"{'term3':>12} {'term4':>12} {'value':>12}"]
    for c in cuts:
        t = c.terms
        lines.append(
            f"{c.cut.d:>3} {_fmt_set(c.cut.S):>8} {_fmt_set(c.cut.T):>8} "
            f"{t[0]:>12.6f} {t[1]:>12.6f} {t[2]:>12.6f} {t[3]:>12.6f} "
            f"{c.total:>12.6f}"
        )
    lines.append(f"bound: {_num(bound)}")
    lines.append(f"feasible: {report.feasible}")
    return "\n".join(lines) + "\n"


def _cmd_feasibility(args: argparse.Namespace) -> str:
    net, scheme = _load_pair(args)
    entries = feasibility_check(net, scheme, perm=args.perm)
    entries.sort(key=lambda e: (len(e.nodes), e.nodes))
    if args.fmt == "csv":
        rows = [["nodes", "lhs", "rhs", "margin"]]
        for e in entries:
            rows.append([_fmt_set(e.nodes), _num(e.lhs), _num(e.rhs),
                         _num(e.margin)])
        rows.append(["feasible", "", "", str(is_feasible(entries)).lower()])
        return _csv(rows)
    lines = [f"{'nodes':>8} {'lhs':>12} {'rhs':>12} {'margin':>12}"]
    for e in entries:
        lines.append(
            f"{_fmt_set(e.nodes):>8} {e.lhs:>12.6f} {e.rhs:>12.6f} "
            f"{e.margin:>12.6f}"
        )
    lines.append(f"feasible: {is_feasible(entries)}")
    return "\n".join(lines) + "\n"


def _cmd_compare(args: argparse.Namespace) -> str:
    net, scheme = _load_pair(args)
    rows = []
    rep = nncpdf_bound(net, scheme, complement=args.complement, perm=args.perm)
    rows.append(("nncpdf", rep.bound if rep.feasible else float("-inf")))
    rows.append(("nnc", nnc_bound(net, make_nnc_scheme(scheme), perm=args.perm)))
    rows.append(("ddf", ddf_bound(net, make_ddf_scheme(scheme), perm=args.perm)))
    if net.N == 3:
        rows.append(("theorem7", theorem7_bound(net, scheme)))
    rows.append(
        (
            "cutset",
            cutset_max_grid(
                net, args.grid_res,
                extra_points=[induced_input_dist(net, scheme).reshape(-1)],
            ),
        )
    )
    if args.fmt == "csv":
        return _csv([["method", "rate"]] + [[m, _num(v)] for m, v in rows])
    return "\n".join(f"{m:>10}: {_num(v)}" for m, v in rows) + "\n"


def _cmd_optimize(args: argparse.Namespace) -> str:
    if not args.network:
        raise NncpdfError("optimize needs --network")
    if args.scheme and args.method == "grid":
        raise NncpdfError("--scheme needs --method coordinate-ascent")
    net = load_network_file(args.network)
    n_rel = net.N - 1
    if args.aux_sizes:
        v, u, yh = args.aux_sizes
        sizes = dict(
            v_sizes=(v,) * n_rel, u_sizes=(u,) * n_rel, yhat_sizes=(yh,) * n_rel
        )
    else:
        sizes = {}
    scfg = SearchConfig(
        method=args.method, resolution=args.grid_res, seed=args.seed, **sizes
    )
    init = load_scheme_file(args.scheme, net.N) if args.scheme else None
    scheme, rate, trace = optimize(net, scfg, init)
    doc = scheme_to_document(scheme)
    doc = json.loads(json.dumps(doc), parse_float=lambda s: float(f"{float(s):.12g}"))
    sys.stderr.write(f"rate: {_num(rate)}\ntrace: {[_num(r) for r in trace]}\n")
    return json.dumps({"rate": float(f"{rate:.12g}"), "scheme": doc}, indent=2) + "\n"


def _cmd_derive(args: argparse.Namespace) -> str:
    lines = []
    if args.preset == "p2p":
        region = derive_p2p_region()
        lines.append("projected region:")
        lines.append(str(region))
    else:
        if args.network:
            net = load_network_file(args.network)
        else:
            n = args.n
            uniform = np.ones((2,) * n + (2,) * n) / (2 ** n)
            net = Network(n, (2,) * n, (2,) * n, uniform,
                          frozenset(range(2, n + 1)))
        families = derive_symbolic_families(net)
        lines.append("constraint families (B symbolic):")
        for key in sorted(families, key=str):
            lines.append(f"  {key}: {families[key].inequality}")
        region = derive_region(net)
        lines.append("projected region:")
        for ineq in region.inequalities:
            lines.append(f"  {ineq}")
        if args.network and args.scheme:
            scheme = load_scheme_file(args.scheme, net.N)
            value = evaluate_region(region, atom_values(net, scheme,
                                                        region.atom_table))
            rep = nncpdf_bound(net, scheme)
            lines.append(f"region value: {_num(value)}")
            lines.append(f"direct bound: {_num(rep.bound)}")
            lines.append(f"delta: {_num(abs(value - rep.bound))}")
    return "\n".join(lines) + "\n"


def _cmd_simplify_check(args: argparse.Namespace) -> str:
    net, scheme = _load_pair(args)
    b = 2
    omega = build_nncpdf_omega(net, b)
    layout = BlockLayout()
    unfolded = build_unfolded_joint(net, scheme, b)
    single = assemble_joint(net, scheme)
    rows = []
    for k in net.relays():
        for node in ((k, 1), (k, 2)):
            for c in generate_constraints(omega, node):
                for name, atom in sorted(c.atom_table.items()):
                    direct = evaluate_unfolded_atom(unfolded, atom)
                    coeffs, table = simplify_info_term(atom, layout)
                    recon = sum(
                        float(m) * mutual_information(single, table[nm])
                        for nm, m in coeffs.items()
                    )
                    rows.append((name, direct, recon, abs(direct - recon)))
    rows.sort(key=lambda r: r[0])
    if args.fmt == "csv":
        out = [["atom", "direct", "reconstructed", "delta"]]
        out += [[n, _num(d), _num(r), _num(e)] for n, d, r, e in rows]
        return _csv(out)
    lines = [f"{'delta':>12}  atom"]
    for n, d, r, e in rows:
        lines.append(f"{e:>12.3e}  {n}")
    lines.append(f"max delta: {max((r[3] for r in rows), default=0.0):.3e}")
    return "\n".join(lines) + "\n"


def _perm(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(k) for k in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated relay order such as 3,2, got {text!r}"
        ) from None


def _aux_sizes(text: str) -> tuple[int, int, int]:
    try:
        sizes = tuple(int(k) for k in text.split(","))
    except ValueError:
        sizes = ()
    if len(sizes) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three integers v,u,yhat, got {text!r}"
        )
    return sizes


_FLAGS = {
    "--network": {},
    "--scheme": {},
    "--dest": dict(type=int),
    "--complement": dict(choices=("relays", "all"), default="all"),
    "--perm": dict(type=_perm),
    "--grid-res": dict(type=int, default=3),
    "--method": dict(choices=("grid", "coordinate-ascent"), default="grid"),
    "--aux-sizes": dict(type=_aux_sizes),
    "--seed": dict(type=int, default=0),
    "--preset": dict(choices=("nncpdf", "p2p"), default="nncpdf"),
    "--N": dict(dest="n", type=int, default=3),
    "--format": dict(dest="fmt", choices=("table", "csv"), default="table"),
    "--out": {},
}

# each subcommand: its handler and exactly the flags it reads
_COMMANDS = {
    "eval": (_cmd_eval, "--network --scheme --dest --complement --perm --format --out"),
    "feasibility": (_cmd_feasibility, "--network --scheme --perm --format --out"),
    "compare": (
        _cmd_compare,
        "--network --scheme --complement --perm --grid-res --format --out",
    ),
    "optimize": (
        _cmd_optimize,
        "--network --scheme --method --aux-sizes --grid-res --seed --out",
    ),
    "derive": (_cmd_derive, "--preset --N --network --scheme --out"),
    "simplify-check": (_cmd_simplify_check, "--network --scheme --format --out"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nncpdf",
        description="Achievable-rate bounds for finite-alphabet relay networks",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for flag in flags.split():
            sp.add_argument(flag, **_FLAGS[flag])
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = _COMMANDS[args.command][0](args)
    except (NncpdfError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(args, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
