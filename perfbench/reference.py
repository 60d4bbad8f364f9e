"""Frozen reference values for the benchmark's correctness checks.

These are the bound, feasibility and cut-set formulas of nncpdf as of the
commit that introduced this benchmark, written out again over plain numpy
arrays.  They share no code with the package: the joint is built here, and
every information term is a signed sum of joint entropies, each computed
once per joint.  Library results must match them to ``TOL``; a change to
the library that alters a value is a failed operation, not a speed-up.

Only the raw arrays of ``Network`` and ``SchemeDistribution`` are read
(``channel``, ``head``, ``input_kernels``, ``compressors``, sizes and
destinations), so the checks survive internal refactors of the package.
"""

from __future__ import annotations

import itertools

import numpy as np

TOL = 1e-9
EPS_FEAS = 1e-9
NONDEGENERATE = 1e-12


class Joint:
    """A dense pmf with named axes and an entropy cache keyed by name set."""

    def __init__(self, names, mass):
        self.axis = {n: i for i, n in enumerate(names)}
        self.mass = mass
        self._h = {}

    def h(self, names) -> float:
        key = frozenset(names)
        if key not in self._h:
            drop = tuple(i for n, i in self.axis.items() if n not in key)
            p = self.mass.sum(axis=drop).reshape(-1) if drop else self.mass.reshape(-1)
            p = p[p > 0.0]
            self._h[key] = float(-np.sum(p * np.log2(p)))
        return self._h[key]

    def marginal(self, names) -> np.ndarray:
        """The marginal pmf with axes in the order of ``names``."""
        drop = tuple(i for n, i in self.axis.items() if n not in names)
        kept = [n for n in self.axis if n in names]
        arr = self.mass.sum(axis=drop) if drop else self.mass
        return np.transpose(arr, [kept.index(n) for n in names])

    def mi(self, left, right, cond=()) -> float:
        """I(left; right | cond) with the package's conventions: labels in
        ``cond`` leave both sides, shared labels leave ``right``, and an
        empty side gives 0."""
        c = set(cond)
        a = set(left) - c
        b = set(right) - c - a
        if not a or not b:
            return 0.0
        return self.h(a | c) + self.h(b | c) - self.h(a | b | c) - self.h(c)


def _product(factors):
    """Multiply ``(array, axis names)`` factors into one joint over the
    names in order of first appearance."""
    names: list[str] = []
    for _, axes in factors:
        names += [a for a in axes if a not in names]
    operands = []
    for arr, axes in factors:
        operands += [np.asarray(arr, dtype=float), [names.index(a) for a in axes]]
    mass = np.einsum(*operands, list(range(len(names))), optimize=False)
    return names, mass


def working_joint(net, scheme) -> Joint:
    """p(x1, v, u) p(x_k|v_k) p(y|x) p(yhat_k|x_k,u_k,v_k,y_k)."""
    n = net.N
    relays = range(2, n + 1)
    factors = [(scheme.head, ["X1", *[f"V{k}" for k in relays], *[f"U{k}" for k in relays]])]
    factors += [(scheme.input_kernels[k - 2], [f"V{k}", f"X{k}"]) for k in relays]
    factors.append(
        (net.channel, [f"X{k}" for k in range(1, n + 1)] + [f"Y{k}" for k in range(1, n + 1)])
    )
    factors += [
        (scheme.compressors[k - 2], [f"X{k}", f"U{k}", f"V{k}", f"Y{k}", f"Yhat{k}"])
        for k in relays
    ]
    return Joint(*_product(factors))


def _positions(n, perm):
    order = list(perm) if perm else list(range(2, n + 1))
    return {k: i for i, k in enumerate(order)}


def cut_terms(j: Joint, n, d, S, T, complement="all", perm=None):
    """The four terms of cut (d, S, T)."""
    relays = set(range(2, n + 1))
    universe = relays if complement == "all" else relays - {d}
    pos = _positions(n, perm)
    Sc = sorted(universe - S, key=pos.get)
    Tc = sorted(universe - T, key=pos.get)
    X = lambda ks: [f"X{k}" for k in ks]  # noqa: E731
    V = lambda ks: [f"V{k}" for k in ks]  # noqa: E731
    U = lambda ks: [f"U{k}" for k in ks]  # noqa: E731
    Yh = lambda ks: [f"Yhat{k}" for k in ks]  # noqa: E731
    yd = f"Y{d}"
    all_x, all_v, all_u = X(range(1, n + 1)), V(relays), U(relays)
    t1 = j.mi(["X1", *V(S)], [*U(Sc), *X(Tc), *Yh(Tc), yd], V(Sc))
    t2 = j.mi([*X(T), *U(S)], [*Yh(Tc), yd], ["X1", *X(Tc), *all_v, *U(Sc)])
    t3 = j.mi(Yh(T), [f"Y{k}" for k in T], [*Yh(Tc), *all_x, *all_v, *all_u, yd])
    t4 = 0.0
    for k in Sc:
        earlier = [i for i in Sc if pos[i] < pos[k]]
        t4 += j.mi([f"U{k}"], [*all_x, *all_v, *U(earlier)], [f"V{k}", f"X{k}", f"Y{k}"])
        t4 += j.mi([f"V{k}"], V(earlier))
    return (t1, t2, t3, t4)


def cuts_of(n, d):
    """Admissible (S, T) pairs: S within T within [2:N] minus {d}."""
    rest = sorted(set(range(2, n + 1)) - {d})
    for t_size in range(len(rest) + 1):
        for t in itertools.combinations(rest, t_size):
            for s_size in range(len(t) + 1):
                for s in itertools.combinations(t, s_size):
                    yield frozenset(s), frozenset(t)


def feasibility(j: Joint, n, perm=None):
    """``[(nodes in relay order, lhs, rhs, margin)]`` for every relay subset
    holding at least one node with non-constant auxiliaries."""
    relays = list(range(2, n + 1))
    pos = _positions(n, perm)
    nondeg = {
        k for k in relays
        if j.h([f"U{k}"]) > NONDEGENERATE or j.h([f"V{k}"]) > NONDEGENERATE
    }
    out = []
    for size in range(1, len(relays) + 1):
        for sp in itertools.combinations(relays, size):
            if not set(sp) & nondeg:
                continue
            order = sorted(sp, key=pos.get)
            lhs = sum(j.mi([f"U{k}"], [f"Y{k}"], [f"X{k}", f"V{k}"]) for k in sp)
            rhs = 0.0
            for k in sp:
                earlier = [i for i in order if pos[i] < pos[k]]
                rhs += j.mi([f"V{k}"], [f"V{i}" for i in earlier])
                rhs += j.mi(
                    [f"U{k}"],
                    [*[f"U{i}" for i in earlier], *[f"V{i}" for i in sp]],
                    [f"V{k}"],
                )
            out.append((tuple(order), lhs, rhs, lhs - rhs))
    return out


def bound(net, scheme, complement="all", perm=None):
    """``{"cuts": {(d, S, T): (terms, total)}, "per_destination",
    "bound", "feasibility", "feasible"}``."""
    j = working_joint(net, scheme)
    n = net.N
    cuts, per_dest = {}, {}
    for d in sorted(net.destinations):
        best = np.inf
        for S, T in cuts_of(n, d):
            terms = cut_terms(j, n, d, S, T, complement, perm)
            total = terms[0] + terms[1] - terms[2] - terms[3]
            cuts[(d, S, T)] = (terms, total)
            best = min(best, total)
        per_dest[d] = best
    feas = feasibility(j, n, perm)
    return {
        "cuts": cuts,
        "per_destination": per_dest,
        "bound": min(per_dest.values()),
        "feasibility": feas,
        "feasible": all(m > EPS_FEAS for *_, m in feas),
        "input_dist": j.marginal([f"X{k}" for k in range(1, n + 1)]),
    }


def cutset_value(net, input_dist) -> float:
    """min over destinations d and cuts S (1 in S, d not in S) of
    I(X_S; Y_{S^c} | X_{S^c})."""
    n = net.N
    xs = [f"X{k}" for k in range(1, n + 1)]
    ys = [f"Y{k}" for k in range(1, n + 1)]
    j = Joint(*_product([
        (np.asarray(input_dist, dtype=float).reshape(net.x_sizes), xs),
        (net.channel, xs + ys),
    ]))
    best = np.inf
    nodes = range(1, n + 1)
    for d in sorted(net.destinations):
        others = [k for k in nodes if k not in (1, d)]
        for size in range(len(others) + 1):
            for extra in itertools.combinations(others, size):
                s = {1, *extra}
                sc = [k for k in nodes if k not in s]
                best = min(best, j.mi(
                    [f"X{k}" for k in sorted(s)],
                    [f"Y{k}" for k in sc],
                    [f"X{k}" for k in sc],
                ))
    return float(best)


def cutset_max_grid(net, resolution=3, extra_points=()) -> float:
    """Max of ``cutset_value`` over the input pmfs whose entries are
    multiples of 1/(resolution-1), and over ``extra_points``."""
    dim = int(np.prod(net.x_sizes))
    steps = resolution - 1
    points = []
    for comp in itertools.combinations_with_replacement(range(dim), steps):
        p = np.zeros(dim)
        for i in comp:
            p[i] += 1.0 / steps
        points.append(p)
    points += [np.asarray(p, dtype=float) for p in extra_points]
    return max(cutset_value(net, p) for p in points)


def close(a, b, tol=TOL) -> bool:
    """Equal within ``tol``, with infinities equal only to themselves."""
    a, b = float(a), float(b)
    if np.isinf(a) or np.isinf(b):
        return a == b
    return abs(a - b) <= tol
