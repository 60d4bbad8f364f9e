"""Unit tests for the rate-bound evaluator: cut enumeration, convention
switch, reductions, feasibility, and the cut-set helper."""

import numpy as np
import pytest

from nncpdf.bounds import (
    CutSpec,
    admissible_cuts,
    cutset_max_grid,
    cutset_value,
    ddf_bound,
    feasibility_check,
    induced_input_dist,
    is_feasible,
    nnc_bound,
    nncpdf_bound,
    random_feasible_scheme,
    theorem7_bound,
)
from nncpdf.errors import InvalidCut, WrongForm, WrongN
from nncpdf.network import (
    Network,
    make_ddf_scheme,
    make_nnc_scheme,
    random_network,
    random_scheme,
)


def noiseless_bit_network():
    ch = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            ch[x1, x2, x2, x1] = 1.0
    return Network(2, (2, 2), (2, 2), ch, frozenset({2}))


def test_cut_spec_validation():
    CutSpec(3, frozenset({2}), frozenset({2}))
    with pytest.raises(InvalidCut):
        CutSpec(3, frozenset({2}), frozenset())
    with pytest.raises(InvalidCut):
        CutSpec(2, frozenset({2}), frozenset({2}))


def test_admissible_cut_count():
    # sum over |T| of 2^|T| subsets S: N=3 -> 3, N=4 -> 9
    assert len(admissible_cuts(3, 3)) == 3
    assert len(admissible_cuts(4, 4)) == 9


def test_noiseless_bit_bound_is_one():
    net = noiseless_bit_network()
    head = np.array([0.5, 0.5]).reshape(2, 1, 1)
    from nncpdf.network import SchemeDistribution

    s = SchemeDistribution(
        2, (1,), (1,), (1,), head,
        (np.array([[0.5, 0.5]]),), (np.ones((2, 1, 1, 2, 1)),),
    )
    report = nncpdf_bound(net, s)
    assert report.feasible
    assert report.bound == pytest.approx(1.0, abs=1e-12)


def test_theorem7_matches_all_convention():
    rng = np.random.default_rng(0)
    for _ in range(5):
        net = random_network(rng, 3)
        s = random_scheme(rng, net)
        t7 = theorem7_bound(net, s)
        both = nncpdf_bound(net, s, complement="all")
        assert t7 == pytest.approx(both.bound, abs=1e-9)


def test_complement_conventions_differ_in_general():
    rng = np.random.default_rng(1)
    diffs = []
    for _ in range(5):
        net = random_network(rng, 3)
        s = random_scheme(rng, net)
        a = nncpdf_bound(net, s, complement="all").bound
        r = nncpdf_bound(net, s, complement="relays").bound
        diffs.append(abs(a - r))
    assert max(diffs) > 1e-6


def test_theorem7_requires_three_nodes():
    rng = np.random.default_rng(2)
    net = random_network(rng, 4)
    s = random_scheme(rng, net)
    with pytest.raises(WrongN):
        theorem7_bound(net, s)


def test_nnc_reduction_equality():
    rng = np.random.default_rng(3)
    net = random_network(rng, 3)
    s = make_nnc_scheme(random_scheme(rng, net))
    report = nncpdf_bound(net, s)
    assert report.feasibility == []
    assert nnc_bound(net, s) == pytest.approx(report.bound, abs=1e-9)


def test_ddf_reduction_equality():
    rng = np.random.default_rng(4)
    net = random_network(rng, 3)
    s = make_ddf_scheme(random_scheme(rng, net))
    report = nncpdf_bound(net, s)
    assert ddf_bound(net, s) == pytest.approx(report.bound, abs=1e-9)


def test_reduced_bounds_reject_wrong_form():
    rng = np.random.default_rng(5)
    net = random_network(rng, 3)
    s = random_scheme(rng, net)
    with pytest.raises(WrongForm):
        nnc_bound(net, s)
    with pytest.raises(WrongForm):
        ddf_bound(net, s)


def test_feasibility_degenerate_aux_is_vacuous():
    rng = np.random.default_rng(6)
    net = random_network(rng, 3)
    s = make_nnc_scheme(random_scheme(rng, net))
    assert feasibility_check(net, s) == []
    assert is_feasible([])


def test_random_feasible_scheme_is_feasible():
    rng = np.random.default_rng(7)
    net = random_network(rng, 3)
    s = random_feasible_scheme(rng, net)
    assert is_feasible(feasibility_check(net, s))


def test_cutset_value_noiseless_bit():
    net = noiseless_bit_network()
    assert cutset_value(net, np.full(4, 0.25)) == pytest.approx(1.0, abs=1e-12)


def test_cutset_grid_includes_extra_points():
    rng = np.random.default_rng(8)
    net = random_network(rng, 3)
    s = random_scheme(rng, net)
    extra = induced_input_dist(net, s).reshape(-1)
    base = cutset_max_grid(net, 2)
    with_extra = cutset_max_grid(net, 2, extra_points=[extra])
    assert with_extra >= base - 1e-12
    assert with_extra >= cutset_value(net, extra) - 1e-12
