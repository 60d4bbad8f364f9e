"""The benchmark's four workloads.

Each workload object builds one pass's inputs from ``(seed, pass_index)``
in its constructor (set-up, untimed by the pass clock but reported as
``setup_s``), hands out the pass's operations as zero-argument callables
(timed), and checks each operation's result afterwards (untimed).  Every
pass runs in a fresh process and draws fresh seeded inputs, so no pass can
be answered from anything an earlier pass left in memory.

``TICK_AT`` names functions, as the package looks them up, that an
untraced pass wraps to calibrate the machine speed during long operations
(see ``one_pass.Clock``).

Library functions are always looked up as module attributes at call time
(``nn.nncpdf_bound``, ``self.cli.main``) so that the tracer's wrappers,
installed after import, see every call.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import nncpdf as nn
import reference as ref

GOLDEN = Path(__file__).resolve().parent / "golden"


def _rng(*key):
    return np.random.default_rng([int(k) for k in key])


class Workload:
    TICK_AT: tuple = ()
    # share of the time spent in numpy reductions, for the speed calibration
    NUMPY_SHARE = 0.0

    def extras(self, results):
        """Workload-specific values, one list entry per operation."""
        return {}


class BoundN4(Workload):
    """``nncpdf_bound`` on binary N=4 networks: one pass is four bounds
    covering every destination set, both complement conventions and a
    permuted relay order."""

    name = "bound-n4"
    NUMPY_SHARE = 0.5
    SPECS = (
        ({4}, "all", None),
        ({3, 4}, "relays", None),
        ({2, 3, 4}, "all", None),
        ({2, 3, 4}, "relays", (3, 4, 2)),
    )

    def __init__(self, seed, pass_index, workdir):
        self.cases = []
        for i, (dests, complement, perm) in enumerate(self.SPECS):
            rng = _rng(seed, 1, pass_index, i)
            net = nn.random_network(rng, 4, destinations=dests)
            self.cases.append((net, nn.random_scheme(rng, net), complement, perm))
        rng = _rng(seed, 1, pass_index, 99)
        warm = nn.random_network(rng, 3, destinations={2, 3})
        nn.nncpdf_bound(warm, nn.random_scheme(rng, warm))

    def ops(self):
        return [
            (lambda c=c: nn.nncpdf_bound(c[0], c[1], complement=c[2], perm=c[3]))
            for c in self.cases
        ]

    def check(self, i, report):
        net, scheme, complement, perm = self.cases[i]
        want = ref.bound(net, scheme, complement, perm)
        for d, v in want["per_destination"].items():
            if not ref.close(report.per_destination.get(d, np.nan), v):
                return f"destination {d}: {report.per_destination.get(d)} != {v}"
        got = {frozenset(e.nodes): e.margin for e in report.feasibility}
        exp = {frozenset(f[0]): f[3] for f in want["feasibility"]}
        if got.keys() != exp.keys():
            return f"feasibility subsets {sorted(map(sorted, got))} != {sorted(map(sorted, exp))}"
        for nodes, m in exp.items():
            if not ref.close(got[nodes], m):
                return f"margin {sorted(nodes)}: {got[nodes]} != {m}"
        if report.feasible != want["feasible"] or not ref.close(report.bound, want["bound"]):
            return f"bound {report.bound}/{report.feasible} != {want['bound']}/{want['feasible']}"
        return None


class AscentN3(Workload):
    """The criterion-10 two-stage search: coordinate ascent with degenerate
    auxiliaries, ``embed_scheme``, then ascent over binary auxiliaries.
    One pass is one complete two-stage ascent."""

    name = "ascent-n3"
    TICK_AT = (("optimize", "nncpdf_bound"),)
    SMALL = dict(v_sizes=(1, 1), u_sizes=(1, 1), yhat_sizes=(2, 2), max_iters=20)
    FULL = dict(v_sizes=(2, 2), u_sizes=(2, 2), yhat_sizes=(2, 2), max_iters=10)

    def __init__(self, seed, pass_index, workdir):
        rng = _rng(seed, 2, pass_index)
        self.net = nn.random_network(rng, 3, destinations={3})
        self.init = nn.random_scheme(rng, self.net, (1, 1), (1, 1), (2, 2))
        self.small = nn.SearchConfig(method="coordinate-ascent", **self.SMALL)
        self.full = nn.SearchConfig(method="coordinate-ascent", **self.FULL)
        self.seed, self.pass_index = seed, pass_index
        nn.nncpdf_bound(self.net, self.init)

    def ops(self):
        return [self._ascent]

    def _ascent(self):
        best_small, nnc_rate, small_trace = nn.coordinate_ascent(self.net, self.small, self.init)
        seed = nn.embed_scheme(best_small, (2, 2), (2, 2), (2, 2))
        final, rate, trace = nn.coordinate_ascent(self.net, self.full, seed)
        return {
            "best_small": best_small, "final": final, "nnc_rate": nnc_rate,
            "small_trace": small_trace, "full_rate": rate, "full_trace": trace,
        }

    def check(self, i, r):
        for key in ("small_trace", "full_trace"):
            if r[key] != sorted(r[key]):
                return f"{key} is not monotone: {r[key]}"
        if r["full_rate"] < r["nnc_rate"] - 1e-9:
            return f"full rate {r['full_rate']} below degenerate rate {r['nnc_rate']}"
        for scheme, rate, what in (
            (self.init, r["small_trace"][0], "start"),
            (r["best_small"], r["nnc_rate"], "degenerate optimum"),
            (r["final"], r["full_rate"], "final scheme"),
        ):
            want = ref.bound(self.net, scheme)
            if not want["feasible"] or not ref.close(rate, want["bound"]):
                return f"{what}: rate {rate} but reference {want['bound']}/{want['feasible']}"
        golden = json.loads((GOLDEN / "ascent.json").read_text()).get(str(self.seed), [])
        if self.pass_index < len(golden):
            want = golden[self.pass_index]
            got = {k: r[k] for k in want}
            if got != want:
                return f"result differs from the recorded one: {got} != {want}"
        return None

    def extras(self, results):
        return {"best_rate_bits": [r["full_rate"] for r in results]}


def _golden_region(doc):
    rows = [
        ({k: Fraction(v) for k, v in row["rates"].items()},
         {k: Fraction(v) for k, v in row["atoms"].items()})
        for row in doc["rows"]
    ]
    return doc["variables"], rows


def region_lp(variables, rows, values) -> float:
    """max R subject to ``rates . x <= atoms . values`` for every row;
    -inf when infeasible, +inf when unbounded."""
    from scipy.optimize import linprog

    idx = {v: i for i, v in enumerate(variables)}
    a = np.zeros((len(rows), len(variables)))
    b = np.zeros(len(rows))
    for r, (rates, atoms) in enumerate(rows):
        for k, c in rates.items():
            a[r, idx[k]] = float(c)
        b[r] = sum(float(c) * values[k] for k, c in atoms.items())
    cost = np.zeros(len(variables))
    cost[idx["R"]] = -1.0
    res = linprog(cost, A_ub=a, b_ub=b, bounds=[(None, None)] * len(variables), method="highs")
    if res.status == 2:
        return float("-inf")
    if res.status == 3:
        return float("inf")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(-res.fun)


def _atom_vector(joint, atoms):
    return {name: joint.mi(*sides) for name, sides in atoms.items()}


class DeriveN4(Workload):
    """``derive_region`` for (N=3, {3}), (N=3, {2,3}) and (N=4, {4}), each
    region then evaluated at three seeded nonnegative atom vectors."""

    name = "derive-n4"
    TICK_AT = (("derivation", "derive_constraint_families"), ("symbolic", "eliminate_variable"))
    CASES = ((3, {3}), (3, {2, 3}), (4, {4}))

    def __init__(self, seed, pass_index, workdir):
        golden = json.loads((GOLDEN / "regions.json").read_text())
        self.cases = []
        for i, (n, dests) in enumerate(self.CASES):
            rng = _rng(seed, 3, pass_index, i)
            net = nn.random_network(rng, n, destinations=dests)
            doc = golden[f"{n}:{','.join(map(str, sorted(dests)))}"]
            atoms = doc["atoms"]
            ones = (1,) * (n - 1)
            vectors = [
                # degenerate auxiliaries: a feasible point, finite region value
                _atom_vector(ref.working_joint(net, nn.random_scheme(rng, net, ones, ones)), atoms),
                # a general scheme, usually infeasible
                _atom_vector(ref.working_joint(net, nn.random_scheme(rng, net)), atoms),
                # unstructured nonnegative values
                {name: float(rng.uniform(0.0, 1.0)) for name in atoms},
            ]
            feasible = None
            if n == 3:
                scheme = nn.random_feasible_scheme(rng, net)
                feasible = (scheme, _atom_vector(ref.working_joint(net, scheme), atoms))
            self.cases.append((net, vectors, _golden_region(doc), feasible))
        warm = nn.derive_p2p_region()
        nn.evaluate_region(warm, {name: 1.0 for name in warm.atom_table})

    def ops(self):
        return [self._derive]

    def _derive(self):
        out = []
        for net, vectors, _, _ in self.cases:
            region = nn.derive_region(net)
            out.append((region, [nn.evaluate_region(region, v) for v in vectors]))
        return out

    def check(self, i, results):
        for (net, vectors, golden, feasible), (region, values) in zip(self.cases, results):
            for k, (vec, got) in enumerate(zip(vectors, values)):
                want = region_lp(*golden, vec)
                if not ref.close(got, want):
                    return f"N={net.N} {sorted(net.destinations)} vector {k}: {got} != {want}"
            if feasible is not None:
                scheme, vec = feasible
                got = nn.evaluate_region(region, vec)
                direct = ref.bound(net, scheme)["bound"]
                if not ref.close(got, direct):
                    return f"N={net.N} {sorted(net.destinations)}: region {got} != bound {direct}"
        return None

    def extras(self, results):
        return {"region_rows": [sum(len(r.inequalities) for r, _ in res) for res in results]}


def _parse_set(text):
    return frozenset() if text == "-" else frozenset(int(k) for k in text.split(";"))


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))[1:]


class CliFixtures(Workload):
    """In-process ``nncpdf.cli.main`` on seeded pairs shaped like the three
    ``tests/fixtures`` pairs (N=2 with constant auxiliaries, N=3 to {3},
    N=3 to {2,3}): ``eval``, ``feasibility``, ``compare`` and
    ``simplify-check``, each with CSV output.  One pass is ``ROUNDS``
    rounds of fresh pairs."""

    name = "cli-fixtures"
    NUMPY_SHARE = 0.5
    ROUNDS = 6
    SHAPES = ((2, {2}, 1), (3, {3}, 2), (3, {2, 3}, 2))
    COMMANDS = ("eval", "feasibility", "compare", "simplify-check")

    def __init__(self, seed, pass_index, workdir):
        self.cli = importlib.import_module("nncpdf.cli")
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self.pairs, self.calls = [], []
        for r in range(self.ROUNDS):
            for k, (n, dests, aux) in enumerate(self.SHAPES):
                rng = _rng(seed, 4, pass_index, r, k)
                net = nn.random_network(rng, n, destinations=dests)
                sizes = (aux,) * (n - 1)
                scheme = nn.random_scheme(rng, net, sizes, sizes, sizes)
                stem = workdir / f"r{r}-{k}"
                npath, spath = f"{stem}.network.json", f"{stem}.scheme.json"
                Path(npath).write_text(json.dumps(nn.network_to_document(net)))
                Path(spath).write_text(json.dumps(nn.scheme_to_document(scheme)))
                self.pairs.append((net, scheme))
                for cmd in self.COMMANDS:
                    argv = [cmd, "--network", npath, "--scheme", spath, "--format", "csv"]
                    self.calls.append((len(self.pairs) - 1, cmd, argv))
        self._refs = {}
        warm = workdir / "warm"
        rng = _rng(seed, 4, pass_index, 99)
        net = nn.random_network(rng, 2)
        Path(f"{warm}.network.json").write_text(json.dumps(nn.network_to_document(net)))
        Path(f"{warm}.scheme.json").write_text(
            json.dumps(nn.scheme_to_document(nn.random_scheme(rng, net, (1,), (1,), (1,))))
        )
        self._main(["eval", "--network", f"{warm}.network.json",
                    "--scheme", f"{warm}.scheme.json", "--format", "csv"])

    def _main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def ops(self):
        return [(lambda argv=argv: self._main(argv)) for _, _, argv in self.calls]

    def _ref(self, p):
        if p not in self._refs:
            net, scheme = self.pairs[p]
            self._refs[p] = ref.bound(net, scheme)
        return self._refs[p]

    def check(self, i, result):
        code, out = result
        p, cmd, _ = self.calls[i]
        if code != 0:
            return f"{cmd} exited {code}"
        net, scheme = self.pairs[p]
        want = self._ref(p)
        rows = _csv_rows(out)
        if cmd == "eval":
            cuts = [r for r in rows if r[0] == "cut"]
            if len(cuts) != len(want["cuts"]):
                return f"eval printed {len(cuts)} cuts, expected {len(want['cuts'])}"
            for r in cuts:
                terms, total = want["cuts"][(int(r[1]), _parse_set(r[2]), _parse_set(r[3]))]
                if not all(ref.close(float(a), b) for a, b in zip(r[4:], (*terms, total))):
                    return f"eval cut {r[1:4]}: {r[4:]} != {terms} {total}"
            tail = {r[0]: r[-1] for r in rows if r[0] != "cut"}
            if not ref.close(float(tail["bound"]), want["bound"]):
                return f"eval bound {tail['bound']} != {want['bound']}"
            if tail["feasible"] != str(want["feasible"]).lower():
                return f"eval feasible {tail['feasible']} != {want['feasible']}"
        elif cmd == "feasibility":
            exp = {frozenset(f[0]): f[3] for f in want["feasibility"]}
            got = {_parse_set(r[0]): float(r[3]) for r in rows if r[0] != "feasible"}
            if got.keys() != exp.keys() or not all(ref.close(got[s], m) for s, m in exp.items()):
                return f"feasibility margins {got} != {exp}"
            if rows[-1][-1] != str(want["feasible"]).lower():
                return f"feasibility flag {rows[-1][-1]} != {want['feasible']}"
        elif cmd == "compare":
            got = {r[0]: float(r[1]) for r in rows}
            exp = {
                "nncpdf": want["bound"] if want["feasible"] else float("-inf"),
                "nnc": ref.bound(net, nn.make_nnc_scheme(scheme))["bound"],
                "ddf": ref.bound(net, nn.make_ddf_scheme(scheme))["bound"],
                "cutset": ref.cutset_max_grid(net, 3, [want["input_dist"].reshape(-1)]),
            }
            if net.N == 3:
                exp["theorem7"] = want["bound"]
            if got.keys() != exp.keys() or not all(ref.close(got[m], v) for m, v in exp.items()):
                return f"compare {got} != {exp}"
        else:
            deltas = [float(r[3]) for r in rows]
            if not deltas or max(deltas) > ref.TOL:
                return f"simplify-check printed {len(deltas)} rows, max delta {max(deltas, default=None)}"
        return None


WORKLOADS = {w.name: w for w in (BoundN4, AscentN3, DeriveN4, CliFixtures)}
