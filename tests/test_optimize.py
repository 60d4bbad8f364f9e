"""Unit tests for the scheme search: grid enumeration, coordinate ascent
monotonicity and determinism, embedding, and error paths."""

import types

import numpy as np
import pytest

from nncpdf.bounds import nncpdf_bound
from nncpdf.errors import NoFeasibleStart, SearchSpaceTooLarge
from nncpdf.network import Network, random_network, random_scheme
from nncpdf.optimize import (
    SearchConfig,
    _simplex_points,
    coordinate_ascent,
    embed_scheme,
    grid_search,
    optimize,
)


def noiseless_bit_network():
    ch = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            ch[x1, x2, x2, x1] = 1.0
    return Network(2, (2, 2), (2, 2), ch, frozenset({2}))


def test_optimize_names_the_submodule():
    import nncpdf.optimize as m

    assert isinstance(m, types.ModuleType)
    assert callable(m.optimize)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(method="anneal")
    with pytest.raises(ValueError):
        SearchConfig(resolution=1)


def test_resolution_two_enumerates_vertices():
    pts = list(_simplex_points(4, 2))
    assert len(pts) == 4
    assert sorted(tuple(p) for p in pts) == sorted(
        tuple(row) for row in np.eye(4)
    )


def test_grid_search_noiseless_bit():
    net = noiseless_bit_network()
    cfg = SearchConfig(resolution=5, yhat_sizes=(1,))
    scheme, rate, trace = grid_search(net, cfg)
    assert rate == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(scheme.head.reshape(-1), [0.5, 0.5])
    assert trace == sorted(trace)


def test_grid_search_guards_size():
    rng = np.random.default_rng(0)
    net = random_network(rng, 3)
    cfg = SearchConfig(
        v_sizes=(2, 2), u_sizes=(2, 2), yhat_sizes=(2, 2), resolution=5
    )
    with pytest.raises(SearchSpaceTooLarge):
        grid_search(net, cfg)


def test_coordinate_ascent_monotone_and_deterministic():
    rng = np.random.default_rng(1)
    net = random_network(rng, 3)
    init = random_scheme(np.random.default_rng(2), net, (1, 1), (1, 1), (2, 2))
    cfg = SearchConfig(
        method="coordinate-ascent",
        v_sizes=(1, 1), u_sizes=(1, 1), yhat_sizes=(2, 2), max_iters=15,
    )
    s1, r1, t1 = coordinate_ascent(net, cfg, init)
    s2, r2, t2 = coordinate_ascent(net, cfg, init)
    assert t1 == sorted(t1)
    assert (r1, t1) == (r2, t2)
    assert np.allclose(s1.head, s2.head)


def test_coordinate_ascent_rejects_infeasible_start():
    rng = np.random.default_rng(3)
    net = random_network(rng, 3)
    init = random_scheme(rng, net, (2, 2), (2, 2), (2, 2))
    from nncpdf.bounds import feasibility_check, is_feasible

    assert not is_feasible(feasibility_check(net, init))
    cfg = SearchConfig(method="coordinate-ascent", v_sizes=(2, 2),
                       u_sizes=(2, 2), yhat_sizes=(2, 2))
    with pytest.raises(NoFeasibleStart):
        coordinate_ascent(net, cfg, init)


def test_restart_at_optimum_stops_immediately():
    net = noiseless_bit_network()
    scheme, rate, _ = grid_search(net, SearchConfig(resolution=5, yhat_sizes=(1,)))
    cfg = SearchConfig(method="coordinate-ascent", yhat_sizes=(1,), max_iters=20)
    _, rate2, trace = coordinate_ascent(net, cfg, scheme)
    assert rate2 >= rate - 1e-12
    assert len(trace) <= 2  # at most one sweep of polish beyond the start


def test_embed_scheme_preserves_bound():
    rng = np.random.default_rng(4)
    net = random_network(rng, 3)
    s = random_scheme(rng, net, (1, 1), (1, 1), (2, 2))
    big = embed_scheme(s, (2, 2), (2, 2), (3, 3))
    a = nncpdf_bound(net, s)
    b = nncpdf_bound(net, big)
    assert b.feasible == a.feasible
    assert b.bound == pytest.approx(a.bound, abs=1e-12)


def test_embed_scheme_rejects_shrinking():
    rng = np.random.default_rng(5)
    net = random_network(rng, 3)
    s = random_scheme(rng, net, (2, 2), (2, 2), (2, 2))
    with pytest.raises(ValueError):
        embed_scheme(s, (1, 1), (2, 2), (2, 2))


def test_optimize_dispatch_grid():
    net = noiseless_bit_network()
    cfg = SearchConfig(method="grid", resolution=3, yhat_sizes=(1,))
    scheme, rate, trace = optimize(net, cfg)
    assert rate == pytest.approx(1.0, abs=1e-12)
