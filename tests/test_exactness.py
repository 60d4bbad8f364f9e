"""Bit-exactness of the bound evaluator.

``nncpdf_bound`` evaluates each distinct joint entropy once per joint and
replays precompiled cut and feasibility terms.  Its floats must equal those
of the direct, uncached formulas exactly (``==``, not approx), because the
optimizers compare rates and traces exactly.  The oracle below is the
direct formulation: every information term built from labels on each call,
and every entropy reduced from the full joint on each call.
"""

import itertools

import numpy as np
import pytest

from nncpdf import (
    SearchConfig,
    admissible_cuts,
    assemble_joint,
    coordinate_ascent,
    embed_scheme,
    make_nnc_scheme,
    nncpdf_bound,
    random_feasible_scheme,
    random_network,
    random_scheme,
)
from nncpdf.network import U, V, X, Y, Yhat
from nncpdf.probability import Var

# ---------------------------------------------------------------------------
# oracle: uncached entropies and per-call label building


def _h(j, labels):
    """H(labels): reduce the full joint, transpose into ``Var.sort_key``
    order, flatten row-major, sum -p log2 p over the nonzero entries."""
    labels = sorted(labels, key=Var.sort_key)
    index = {v: i for i, (v, _) in enumerate(j.variables)}
    axes = [index[v] for v in labels]
    drop = tuple(i for i in range(len(j.variables)) if i not in axes)
    arr = j.mass.sum(axis=drop) if drop else j.mass
    remaining = [i for i in range(len(j.variables)) if i not in drop]
    arr = np.ascontiguousarray(np.transpose(arr, [remaining.index(a) for a in axes]))
    p = arr.reshape(-1)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def _entropy(j, a, given=()):
    a, given = set(a), set(given)
    h_joint = _h(j, a | given)
    if not given:
        return h_joint
    return h_joint - _h(j, given)


def _mi(j, left, right, cond=()):
    cond = set(cond)
    left = set(left) - cond
    right = set(right) - cond - left
    if not left or not right:
        return 0.0
    return _entropy(j, left, cond) - _entropy(j, left, right | cond)


def _positions(n, perm):
    order = list(perm) if perm else list(range(2, n + 1))
    return {k: i for i, k in enumerate(order)}


def _before(nodes, k, pos):
    return [i for i in nodes if pos[i] < pos[k]]


def oracle_terms(j, n, c, complement, perm):
    relays = set(range(2, n + 1))
    universe = relays if complement == "all" else relays - {c.d}
    pos = _positions(n, perm)
    S, T = c.S, c.T
    Sc = sorted(universe - S, key=pos.get)
    Tc = sorted(universe - T, key=pos.get)
    yd = Y(c.d)
    all_x = [X(k) for k in range(1, n + 1)]
    all_v = [V(k) for k in relays]
    all_u = [U(k) for k in relays]
    t1 = _mi(
        j,
        [X(1), *[V(k) for k in S]],
        [*[U(k) for k in Sc], *[X(k) for k in Tc], *[Yhat(k) for k in Tc], yd],
        [V(k) for k in Sc],
    )
    t2 = _mi(
        j,
        [*[X(k) for k in T], *[U(k) for k in S]],
        [*[Yhat(k) for k in Tc], yd],
        [X(1), *[X(k) for k in Tc], *all_v, *[U(k) for k in Sc]],
    )
    t3 = _mi(
        j,
        [Yhat(k) for k in T],
        [Y(k) for k in T],
        [*[Yhat(k) for k in Tc], *all_x, *all_v, *all_u, yd],
    )
    t4 = 0.0
    for k in Sc:
        earlier = _before(Sc, k, pos)
        t4 += _mi(
            j,
            [U(k)],
            [*all_x, *all_v, *[U(i) for i in earlier]],
            [V(k), X(k), Y(k)],
        )
        t4 += _mi(j, [V(k)], [V(i) for i in earlier])
    return (t1, t2, t3, t4)


def oracle_feasibility(j, n, perm):
    pos = _positions(n, perm)
    relays = list(range(2, n + 1))
    nondeg = {
        k for k in relays if _entropy(j, [U(k)]) > 1e-12 or _entropy(j, [V(k)]) > 1e-12
    }
    entries = []
    for size in range(1, len(relays) + 1):
        for sp in itertools.combinations(relays, size):
            if not (set(sp) & nondeg):
                continue
            sp_sorted = sorted(sp, key=pos.get)
            lhs = sum(_mi(j, [U(k)], [Y(k)], [X(k), V(k)]) for k in sp)
            rhs = 0.0
            for k in sp:
                earlier = _before(sp_sorted, k, pos)
                rhs += _mi(j, [V(k)], [V(i) for i in earlier])
                rhs += _mi(
                    j, [U(k)], [*[U(i) for i in earlier], *[V(i) for i in sp]], [V(k)]
                )
            entries.append((tuple(sp_sorted), lhs, rhs, lhs - rhs))
    return entries


def assert_report_exact(net, scheme, complement="all", perm=None):
    report = nncpdf_bound(net, scheme, complement=complement, perm=perm)
    j = assemble_joint(net, scheme)
    records = iter(report.cuts)
    for d in sorted(net.destinations):
        best = np.inf
        for c in admissible_cuts(net.N, d):
            rec = next(records)
            terms = oracle_terms(j, net.N, c, complement, perm)
            total = terms[0] + terms[1] - terms[2] - terms[3]
            assert rec.cut == c
            assert rec.terms == terms, (c, rec.terms, terms)
            assert rec.total == total, (c, rec.total, total)
            best = min(best, total)
        assert report.per_destination[d] == best
    assert next(records, None) is None
    assert report.bound == min(report.per_destination.values())
    got = [(e.nodes, e.lhs, e.rhs, e.margin) for e in report.feasibility]
    assert got == oracle_feasibility(j, net.N, perm)


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("complement", ["all", "relays"])
@pytest.mark.parametrize("perm", [None, (3, 2)])
def test_n3_random_instances_exact(complement, perm):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        net = random_network(rng, 3, destinations={2, 3} if seed % 2 else {3})
        scheme = random_scheme(rng, net, (2, 3), (2, 2), (2, 2))
        assert_report_exact(net, scheme, complement, perm)


def test_n3_feasible_scheme_exact():
    rng = np.random.default_rng(21)
    net = random_network(rng, 3, destinations={2, 3})
    scheme = random_feasible_scheme(rng, net)
    assert_report_exact(net, scheme, "relays", (3, 2))
    assert nncpdf_bound(net, scheme).feasible


def test_degenerate_and_embedded_auxiliaries_exact():
    rng = np.random.default_rng(5)
    net = random_network(rng, 3, destinations={3})
    small = random_scheme(rng, net, (1, 1), (1, 1), (2, 2))
    embedded = embed_scheme(small, (2, 2), (2, 2), (2, 2))
    nnc = make_nnc_scheme(random_scheme(rng, net, (2, 2), (2, 2), (2, 2)))
    for scheme in (small, embedded, nnc):
        for complement in ("all", "relays"):
            assert_report_exact(net, scheme, complement, (3, 2))
    assert nncpdf_bound(net, embedded).bound == nncpdf_bound(net, small).bound


@pytest.mark.parametrize(
    "dests,complement,perm",
    [({4}, "all", None), ({2, 3, 4}, "relays", (3, 4, 2))],
)
def test_n4_random_instances_exact(dests, complement, perm):
    rng = np.random.default_rng(4)
    net = random_network(rng, 4, destinations=dests)
    assert_report_exact(net, random_scheme(rng, net), complement, perm)


def test_repeated_evaluation_is_stable():
    """A second bound on the same inputs (warm plan caches) gives the same
    floats as the first."""
    rng = np.random.default_rng(9)
    net = random_network(rng, 3, destinations={2, 3})
    scheme = random_scheme(rng, net, (2, 2), (2, 2), (2, 2))
    first = nncpdf_bound(net, scheme, complement="relays", perm=[3, 2])
    second = nncpdf_bound(net, scheme, complement="relays", perm=(3, 2))
    assert first == second


def test_criterion_10_trace_floats_pinned():
    """The criterion-10 two-stage search returns exactly the rates and
    traces recorded from the uncached evaluator."""
    rng = np.random.default_rng(110)
    net = random_network(rng, 3, destinations={3})
    init = random_scheme(np.random.default_rng(0), net, (1, 1), (1, 1), (2, 2))
    cfg_small = SearchConfig(
        method="coordinate-ascent",
        v_sizes=(1, 1), u_sizes=(1, 1), yhat_sizes=(2, 2), max_iters=20,
    )
    best_small, nnc_rate, small_trace = coordinate_ascent(net, cfg_small, init)
    seed = embed_scheme(best_small, (2, 2), (2, 2), (2, 2))
    cfg_full = SearchConfig(
        method="coordinate-ascent",
        v_sizes=(2, 2), u_sizes=(2, 2), yhat_sizes=(2, 2), max_iters=10,
    )
    _, full_rate, full_trace = coordinate_ascent(net, cfg_full, seed)
    assert nnc_rate == 0.01202589516715031
    assert small_trace == [
        -0.060792315740647807, -0.0001211823921249966, 0.01202589516715031,
    ]
    assert full_rate == 0.012026941601016694
    assert full_trace == [0.01202589516715031, 0.012026941601016694]
