"""Evaluation of the achievable-rate bound, its special-case reductions
(noisy network coding, distributed decode-and-forward, the three-node
partial-decode-compress-and-forward bound), the feasibility condition on
auxiliary decoding, and the cut-set sanity bound.

Complement convention: for a cut (d, S, T) the complements S^c and T^c are
taken within [2:N] by default (the destination's own auxiliaries appear on
the known side), selectable to [2:N] \\ {d} via ``complement="relays"``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidCut, WrongForm, WrongN
from .network import Network, SchemeDistribution, U, V, X, Y, Yhat, assemble_joint
from .probability import (
    InfoAtom,
    JointDistribution,
    entropy,
    mi,
    mutual_information,
    product_compose,
    reduced_atom,
)

EPS_FEAS = 1e-9
MAX_FEASIBLE_TRIES = 400


@dataclass(frozen=True)
class CutSpec:
    """One (d, S, T) cut with S subset of T subset of [2:N] minus {d}."""

    d: int
    S: frozenset[int]
    T: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "S", frozenset(self.S))
        object.__setattr__(self, "T", frozenset(self.T))
        if not self.S <= self.T:
            raise InvalidCut(f"S={set(self.S)} not a subset of T={set(self.T)}")
        if self.d in self.T:
            raise InvalidCut(f"destination {self.d} inside T")


@dataclass(frozen=True)
class CutRecord:
    cut: CutSpec
    terms: tuple[float, float, float, float]
    total: float


@dataclass(frozen=True)
class FeasibilityEntry:
    nodes: tuple[int, ...]
    lhs: float
    rhs: float
    margin: float


@dataclass
class BoundReport:
    cuts: list[CutRecord]
    per_destination: dict[int, float]
    bound: float
    feasibility: list[FeasibilityEntry] = field(default_factory=list)
    feasible: bool = True


def _positions(n: int, perm=None) -> dict[int, int]:
    order = list(perm) if perm else list(range(2, n + 1))
    if sorted(order) != list(range(2, n + 1)):
        raise InvalidCut(f"permutation {order} is not an ordering of [2:{n}]")
    return {k: i for i, k in enumerate(order)}


def _before(nodes, k, pos) -> list[int]:
    return [j for j in nodes if pos[j] < pos[k]]


def _perm_key(perm):
    return tuple(perm) if perm else None


def _mi(j: JointDistribution, atom: InfoAtom | None) -> float:
    return 0.0 if atom is None else mutual_information(j, atom)


@functools.cache
def _cut_plan(n: int, c: CutSpec, complement: str, perm):
    """The atoms of one cut's four terms (None where a term is identically
    0); term 4 as the flat list of its summands in relay order."""
    relays = set(range(2, n + 1))
    if not c.T <= relays - {c.d}:
        raise InvalidCut(f"T={set(c.T)} not within [2:{n}] minus destination")
    if complement == "all":
        universe = relays
    elif complement == "relays":
        universe = relays - {c.d}
    else:
        raise InvalidCut(f"unknown complement convention {complement!r}")
    pos = _positions(n, perm)
    S, T = c.S, c.T
    Sc = sorted(universe - S, key=pos.get)
    Tc = sorted(universe - T, key=pos.get)
    yd = Y(c.d)
    all_x = [X(k) for k in range(1, n + 1)]
    all_v = [V(k) for k in relays]
    all_u = [U(k) for k in relays]

    t1 = reduced_atom(
        [X(1), *[V(k) for k in S]],
        [*[U(k) for k in Sc], *[X(k) for k in Tc], *[Yhat(k) for k in Tc], yd],
        [V(k) for k in Sc],
    )
    t2 = reduced_atom(
        [*[X(k) for k in T], *[U(k) for k in S]],
        [*[Yhat(k) for k in Tc], yd],
        [X(1), *[X(k) for k in Tc], *all_v, *[U(k) for k in Sc]],
    )
    t3 = reduced_atom(
        [Yhat(k) for k in T],
        [Y(k) for k in T],
        [*[Yhat(k) for k in Tc], *all_x, *all_v, *all_u, yd],
    )
    t4 = []
    for k in Sc:
        earlier = _before(Sc, k, pos)
        t4.append(
            reduced_atom(
                [U(k)],
                [*all_x, *all_v, *[U(i) for i in earlier]],
                [V(k), X(k), Y(k)],
            )
        )
        t4.append(reduced_atom([V(k)], [V(i) for i in earlier]))
    return t1, t2, t3, tuple(t4)


def term_values(
    j: JointDistribution,
    c: CutSpec,
    n: int,
    complement: str = "all",
    perm=None,
) -> tuple[float, float, float, float]:
    """The four information terms of one (d, S, T) cut of an N=``n``
    network, in bits."""
    t1, t2, t3, t4_atoms = _cut_plan(n, c, complement, _perm_key(perm))
    t4 = 0.0
    for atom in t4_atoms:
        t4 += _mi(j, atom)
    return (_mi(j, t1), _mi(j, t2), _mi(j, t3), t4)


def admissible_cuts(n: int, d: int) -> list[CutSpec]:
    relays = sorted(set(range(2, n + 1)) - {d})
    cuts = []
    for t_size in range(len(relays) + 1):
        for t in itertools.combinations(relays, t_size):
            for s_size in range(len(t) + 1):
                for s in itertools.combinations(t, s_size):
                    cuts.append(CutSpec(d, frozenset(s), frozenset(t)))
    return cuts


@functools.cache
def _feasibility_plan(n: int, perm):
    """Per relay, its U and V labels; per relay subset S', the atoms of the
    two sides of the decoding condition, each side in summation order."""
    pos = _positions(n, perm)
    relays = list(range(2, n + 1))
    singles = tuple((k, frozenset({U(k)}), frozenset({V(k)})) for k in relays)
    subsets = []
    for size in range(1, len(relays) + 1):
        for sp in itertools.combinations(relays, size):
            sp_sorted = sorted(sp, key=pos.get)
            lhs = tuple(reduced_atom([U(k)], [Y(k)], [X(k), V(k)]) for k in sp)
            rhs = []
            for k in sp:
                earlier = _before(sp_sorted, k, pos)
                rhs.append(reduced_atom([V(k)], [V(i) for i in earlier]))
                rhs.append(
                    reduced_atom(
                        [U(k)],
                        [*[U(i) for i in earlier], *[V(i) for i in sp]],
                        [V(k)],
                    )
                )
            subsets.append((frozenset(sp), tuple(sp_sorted), lhs, tuple(rhs)))
    return singles, tuple(subsets)


def feasibility_check(
    net: Network,
    scheme: SchemeDistribution,
    perm=None,
    joint: JointDistribution | None = None,
) -> list[FeasibilityEntry]:
    """Per-S' margins of the strict auxiliary-decoding condition.

    Only subsets containing at least one non-degenerate node are listed; a
    node whose auxiliaries are constant under the joint (zero entropy, e.g.
    unit alphabets or embedded point masses) contributes nothing to either
    side, so with all auxiliaries degenerate the list is empty.
    """
    j = joint if joint is not None else assemble_joint(net, scheme)
    singles, subsets = _feasibility_plan(net.N, _perm_key(perm))
    nondeg = {
        k for k, u, v in singles if entropy(j, u) > 1e-12 or entropy(j, v) > 1e-12
    }
    entries = []
    for nodes, order, lhs_atoms, rhs_atoms in subsets:
        if not (nodes & nondeg):
            continue
        lhs = sum(_mi(j, atom) for atom in lhs_atoms)
        rhs = 0.0
        for atom in rhs_atoms:
            rhs += _mi(j, atom)
        entries.append(FeasibilityEntry(order, lhs, rhs, lhs - rhs))
    return entries


def is_feasible(entries) -> bool:
    return all(e.margin > EPS_FEAS for e in entries)


def nncpdf_bound(
    net: Network,
    scheme: SchemeDistribution,
    complement: str = "all",
    perm=None,
) -> BoundReport:
    """Achievable-rate report: every cut's terms, per-destination minima,
    the overall bound, and the feasibility margins."""
    j = assemble_joint(net, scheme)
    cuts: list[CutRecord] = []
    per_dest: dict[int, float] = {}
    for d in sorted(net.destinations):
        best = np.inf
        for c in admissible_cuts(net.N, d):
            terms = term_values(j, c, net.N, complement=complement, perm=perm)
            total = terms[0] + terms[1] - terms[2] - terms[3]
            cuts.append(CutRecord(c, terms, total))
            best = min(best, total)
        per_dest[d] = best
    feas = feasibility_check(net, scheme, perm=perm, joint=j)
    return BoundReport(
        cuts=cuts,
        per_destination=per_dest,
        bound=min(per_dest.values()),
        feasibility=feas,
        feasible=is_feasible(feas),
    )


def nnc_bound(net: Network, scheme: SchemeDistribution, perm=None) -> float:
    """Specialized evaluator for schemes with all U,V degenerate."""
    if not scheme.is_nnc_form():
        raise WrongForm("scheme has non-degenerate U or V alphabets")
    j = assemble_joint(net, scheme)
    n = net.N
    relays = set(net.relays())
    all_x = [X(k) for k in range(1, n + 1)]
    best = np.inf
    for d in sorted(net.destinations):
        for t_size in range(n - 1):
            for t in itertools.combinations(sorted(relays - {d}), t_size):
                tc = sorted(relays - set(t))
                v = mi(
                    j,
                    [X(1), *[X(k) for k in t]],
                    [*[Yhat(k) for k in tc], Y(d)],
                    [X(k) for k in tc],
                ) - mi(
                    j,
                    [Y(k) for k in t],
                    [Yhat(k) for k in t],
                    [*all_x, *[Yhat(k) for k in tc], Y(d)],
                )
                best = min(best, v)
    return float(best)


def ddf_bound(net: Network, scheme: SchemeDistribution, perm=None) -> float:
    """Specialized evaluator for decode-and-forward-shaped schemes
    (V_k = X_k, degenerate compression)."""
    if not scheme.is_ddf_form():
        raise WrongForm("scheme is not in decode-and-forward shape")
    j = assemble_joint(net, scheme)
    n = net.N
    relays = set(net.relays())
    pos = _positions(n, perm)
    all_x = [X(k) for k in range(1, n + 1)]
    best = np.inf
    for d in sorted(net.destinations):
        for s_size in range(n - 1):
            for s in itertools.combinations(sorted(relays - {d}), s_size):
                sc = sorted(relays - set(s), key=pos.get)
                t1 = mi(
                    j,
                    [X(1), *[X(k) for k in s]],
                    [*[U(k) for k in sc], Y(d)],
                    [X(k) for k in sc],
                )
                t2 = mi(j, [U(k) for k in s], [Y(d)], [*all_x, *[U(k) for k in sc]])
                t4 = 0.0
                for k in sc:
                    earlier = _before(sc, k, pos)
                    t4 += mi(
                        j,
                        [U(k)],
                        [*all_x, *[U(i) for i in earlier]],
                        [X(k), Y(k)],
                    )
                    t4 += mi(j, [X(k)], [X(i) for i in earlier])
                best = min(best, t1 + t2 - t4)
    return float(best)


def theorem7_bound(net: Network, scheme: SchemeDistribution) -> float:
    """Three-node partial-decode-compress-and-forward bound, coded as a
    literal enumeration of the admissible (S, T) pairs."""
    if net.N != 3:
        raise WrongN(f"three-node evaluator got N={net.N}")
    j = assemble_joint(net, scheme)
    best = np.inf
    for d in sorted(net.destinations):
        r = 5 - d  # the single relay node
        yd = Y(d)
        xs = [X(1), X(2), X(3)]
        vs = [V(2), V(3)]
        us = [U(2), U(3)]

        def t4_pair(sc):
            tot = 0.0
            for idx, k in enumerate(sc):
                earlier = sc[:idx]
                tot += mi(
                    j,
                    [U(k)],
                    xs + vs + [U(i) for i in earlier],
                    [V(k), X(k), Y(k)],
                )
                tot += mi(j, [V(k)], [V(i) for i in earlier])
            return tot

        t4_full = t4_pair(sorted([r, d]))
        t4_d = t4_pair([d])
        t3_r = mi(j, [Yhat(r)], [Y(r)], [Yhat(d)] + xs + vs + us + [yd])

        # (S, T) = (empty, empty)
        v_ee = (
            mi(j, [X(1)], [U(r), U(d), X(r), X(d), Yhat(r), Yhat(d), yd], vs)
            - t4_full
        )
        # (S, T) = (empty, {relay})
        v_er = (
            mi(j, [X(1)], [U(r), U(d), X(d), Yhat(d), yd], vs)
            + mi(j, [X(r)], [Yhat(d), yd], [X(1), X(d)] + vs + us)
            - t3_r
            - t4_full
        )
        # (S, T) = ({relay}, {relay})
        v_rr = (
            mi(j, [X(1), V(r)], [U(d), X(d), Yhat(d), yd], [V(d)])
            + mi(j, [X(r), U(r)], [Yhat(d), yd], [X(1), X(d)] + vs + [U(d)])
            - t3_r
            - t4_d
        )
        best = min(best, v_ee, v_er, v_rr)
    return float(best)


def cutset_value(net: Network, input_dist: np.ndarray) -> float:
    """Cut-set sanity bound min_d min_{S: 1 in S, d not in S}
    I(X_S; Y_{S^c} | X_{S^c}) under the given joint input pmf."""
    arr = np.asarray(input_dist, dtype=float).reshape(net.x_sizes)
    n = net.N
    x_vars = [(X(k), net.x_sizes[k - 1]) for k in range(1, n + 1)]
    y_vars = [(Y(k), net.y_sizes[k - 1]) for k in range(1, n + 1)]
    j = product_compose(
        [(arr, x_vars, []), (net.channel, y_vars, [X(k) for k in range(1, n + 1)])]
    )
    best = np.inf
    nodes = list(range(1, n + 1))
    for d in sorted(net.destinations):
        others = [k for k in nodes if k not in (1, d)]
        for size in range(len(others) + 1):
            for extra in itertools.combinations(others, size):
                s = {1, *extra}
                sc = [k for k in nodes if k not in s]
                v = mi(
                    j,
                    [X(k) for k in sorted(s)],
                    [Y(k) for k in sc],
                    [X(k) for k in sc],
                )
                best = min(best, v)
    return float(best)


def _simplex_points(dim: int, resolution: int):
    """All pmfs on a dim-simplex with entries in multiples of 1/(resolution-1)."""
    steps = resolution - 1
    for comp in itertools.combinations_with_replacement(range(dim), steps):
        vec = np.zeros(dim)
        for i in comp:
            vec[i] += 1.0 / steps
        yield vec


def cutset_max_grid(
    net: Network,
    resolution: int = 3,
    extra_points=(),
) -> float:
    """Grid-search estimate of max over joint input pmfs of cutset_value."""
    dim = int(np.prod(net.x_sizes))
    best = -np.inf
    for p in _simplex_points(dim, resolution):
        best = max(best, cutset_value(net, p))
    for p in extra_points:
        best = max(best, cutset_value(net, p))
    return float(best)


def induced_input_dist(net: Network, scheme: SchemeDistribution) -> np.ndarray:
    """The joint input pmf p(x_1..x_N) induced by a scheme."""
    j = assemble_joint(net, scheme)
    from .probability import marginalize

    m = marginalize(j, [X(k) for k in range(1, net.N + 1)])
    return np.asarray(m.mass)


def random_feasible_scheme(
    rng: np.random.Generator,
    net: Network,
    v_sizes=None,
    u_sizes=None,
    yhat_sizes=None,
) -> SchemeDistribution:
    """Random scheme satisfying the strict auxiliary-decoding condition.

    Fully random heads essentially never satisfy it, so the head is biased:
    independent per-node v pmfs and each u_k a weakly noisy function of x1.
    The cross-node coupling I(U_j;U_k) then shrinks much faster than the
    required margins I(U_k;Y_k|X_k,V_k), and rejection sampling succeeds
    quickly; raises NoFeasibleStart if ``MAX_FEASIBLE_TRIES`` draws fail.
    """
    from .errors import NoFeasibleStart
    from .network import random_scheme

    n = net.N
    relays = net.relays()
    nx1 = net.x_sizes[0]
    if nx1 < 2:
        raise NoFeasibleStart("source input alphabet too small to correlate u with")
    if v_sizes is None:
        v_sizes = (2,) * (n - 1)
    if u_sizes is None:
        u_sizes = (2,) * (n - 1)
    if yhat_sizes is None:
        yhat_sizes = (2,) * (n - 1)
    if any(s < 2 for s in u_sizes):
        raise NoFeasibleStart("all u alphabets must be non-degenerate")
    for attempt in range(MAX_FEASIBLE_TRIES):
        base = random_scheme(rng, net, v_sizes, u_sizes, yhat_sizes)
        # weaken the u coupling as attempts accumulate
        frac = attempt / max(MAX_FEASIBLE_TRIES - 1, 1)
        eps_lo, eps_hi = 0.30 + 0.1 * frac, 0.47 + 0.02 * frac
        px1 = rng.dirichlet(np.ones(nx1))
        head = px1.reshape((nx1,) + (1,) * (2 * (n - 1)))
        for i, k in enumerate(relays):
            pv = rng.dirichlet(np.ones(v_sizes[i]) * 5.0)
            head = head * pv.reshape((1,) * (1 + i) + (-1,) + (1,) * (2 * (n - 1) - 1 - i))
        for i, k in enumerate(relays):
            m = u_sizes[i]
            eps = rng.uniform(eps_lo, eps_hi)
            f = rng.integers(0, m, size=nx1)
            while len(set(f.tolist())) < 2:
                f = rng.integers(0, m, size=nx1)
            ker = np.full((nx1, m), eps / (m - 1))
            ker[np.arange(nx1), f] = 1.0 - eps
            head = head * ker.reshape(
                (nx1,) + (1,) * (n - 1 + i) + (m,) + (1,) * (n - 2 - i)
            )
        cand = SchemeDistribution(
            n, base.v_sizes, base.u_sizes, base.yhat_sizes, head,
            base.input_kernels, base.compressors,
        )
        if is_feasible(feasibility_check(net, cand)):
            return cand
    raise NoFeasibleStart(f"no feasible scheme found in {MAX_FEASIBLE_TRIES} draws")
