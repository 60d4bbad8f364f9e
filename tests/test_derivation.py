"""Unit tests for the derivation pipeline: constraint generation and
reduction, blockwise simplification, the large-B limit, and the projected
region against the direct evaluator."""

from fractions import Fraction

import numpy as np
import pytest

from nncpdf import derivation
from nncpdf.bounds import nncpdf_bound, random_feasible_scheme
from nncpdf.derivation import (
    BlockLayout,
    asymptotic_system,
    atom_values,
    build_unfolded_joint,
    constraint_for_compression,
    constraint_for_decoding,
    derive_constraint_families,
    derive_p2p_region,
    derive_region,
    derive_symbolic_families,
    evaluate_unfolded_atom,
    generate_constraints,
    reduce_constraints,
    simplify_info_term,
)
from nncpdf.errors import (
    SchemaError,
    SearchSpaceTooLarge,
    SideConditionViolated,
    UnsupportedLabeling,
)
from nncpdf.network import random_network, random_scheme
from nncpdf.omega import CodeId, IndexId, build_nncpdf_omega, build_p2p_omega
from nncpdf.probability import InfoAtom, Var, mutual_information
from nncpdf.symbolic import (
    AffB,
    SymbolicInequality,
    SymbolicRegion,
    evaluate_region,
    parse_inequality,
)


def net3(seed=0, dests={3}):
    rng = np.random.default_rng(seed)
    return random_network(rng, 3, destinations=dests)


def test_p2p_projects_to_single_atom():
    region = derive_p2p_region()
    assert [str(i) for i in region.inequalities] == ["R < I(X1;Y2)"]
    atom = region.atom_table["I(X1;Y2)"]
    assert atom == InfoAtom(frozenset({Var("X1")}), frozenset({Var("Y2")}))


def test_p2p_generation_yields_two_constraints():
    om = build_p2p_omega()
    source = generate_constraints(om, (1, 1))
    sink = generate_constraints(om, (2, 1))
    assert len(source) == 1 and source[0].inequality.sense == ">"
    assert dict(source[0].inequality.rates)["R"].c0 == -1
    assert len(sink) == 1 and sink[0].inequality.sense == "<"


def test_relay_decoding_constraint_form():
    om = build_nncpdf_omega(net3(), 2)
    c = constraint_for_decoding(om, (2, 2), {IndexId("l", 2, 1)})
    layout = BlockLayout()
    from nncpdf.derivation import simplify_constraint

    s = simplify_constraint(c, layout)
    assert dict(s.inequality.rates) == {"r2": AffB(Fraction(1))}
    assert set(s.inequality.atoms) == {"I(U2;X2,Y2|V2)"}


def test_relay_compression_constraint_form():
    om = build_nncpdf_omega(net3(), 2)
    c = constraint_for_compression(om, (2, 2), {IndexId("lp", 2, 1)})
    from nncpdf.derivation import simplify_constraint

    s = simplify_constraint(c, BlockLayout())
    assert dict(s.inequality.rates) == {"rp2": AffB(Fraction(1))}
    assert set(s.inequality.atoms) == {"I(Yhat2;Y2|U2,V2,X2)"}


def test_decoding_subset_validation():
    om = build_nncpdf_omega(net3(), 2)
    with pytest.raises(SchemaError):
        constraint_for_decoding(om, (2, 2), {IndexId("l0")})


def test_reduction_side_condition_violation():
    om = build_nncpdf_omega(net3(), 2)
    node = (3, 3)  # destination decision node (d=3, B+1)
    sbar = {IndexId("l0"), IndexId("l", 2, 0)}
    db = om.decoded[node] | om.nonunique[node]
    shat = frozenset(j for j in db if om.gamma[j] & sbar)
    # dropping a codebook while keeping its superposition parent is unsound
    victim = CodeId("U", 2, 1)
    assert victim in shat and om.sup[victim] <= shat
    with pytest.raises(SideConditionViolated):
        reduce_constraints(om, node, sbar=sbar, s_prime=shat - {victim})


def test_compression_enlargement_must_contain_induced_set():
    om = build_nncpdf_omega(net3(), 2)
    with pytest.raises(SchemaError):
        reduce_constraints(
            om, (1, 1), tbar={IndexId("l0")}, t_prime=frozenset()
        )


def test_generation_guards_subset_blowup(monkeypatch):
    om = build_nncpdf_omega(net3(), 3)
    monkeypatch.setattr(derivation, "MAX_SUBSETS", 16)
    with pytest.raises(SearchSpaceTooLarge):
        generate_constraints(om, (3, 4))


def test_simplify_splits_blocks():
    layout = BlockLayout()
    atom = InfoAtom(
        frozenset({Var("U2", 1), Var("U2", 2)}),
        frozenset({Var("Y2", 1), Var("Y2", 2), Var("M")}),
        frozenset({Var("V2", 1)}),
    )
    coeffs, table = simplify_info_term(atom, layout)
    assert coeffs == {"I(U2;Y2|V2)": 1, "I(U2;Y2)": 1}
    assert table["I(U2;Y2|V2)"].cond == frozenset({Var("V2")})


def test_simplify_message_only_terms_vanish():
    layout = BlockLayout()
    atom = InfoAtom(frozenset({Var("M")}), frozenset({Var("Y2", 1)}))
    assert simplify_info_term(atom, layout)[0] == {}


def test_simplify_rejects_unblocked_labels():
    layout = BlockLayout()
    atom = InfoAtom(frozenset({Var("A")}), frozenset({Var("B")}))
    with pytest.raises(UnsupportedLabeling):
        simplify_info_term(atom, layout)
    relaxed = BlockLayout(allow_unblocked=True)
    assert simplify_info_term(atom, relaxed)[0] == {"I(A;B)": 1}


def test_asymptotic_system_limits():
    b_scaled = parse_inequality("r0 + (0-1*B)*r1 < (-1+1*B)*I(A;B)")
    constant = parse_inequality("r2 < I(C;D)")
    out = asymptotic_system([b_scaled, constant])
    # r0 = B*R, divide by B: R - r1 < I(A;B); the B-free row is untouched
    texts = sorted(str(i) for i in out)
    assert texts == ["R + -1*r1 < I(A;B)", "r2 < I(C;D)"]
    # the message-covering row collapses entirely
    cover = parse_inequality("r0 + (0-1*B)*R > 0")
    assert asymptotic_system([cover]) == []


def test_constraint_families_are_affine_in_b():
    net = net3(1)
    families = derive_symbolic_families(net)
    dest = families[("dest", 3, (), ())].inequality
    assert dest.rates["r0"].const() == 1
    assert dest.rates["r1"].at(6) == 5  # (B-1) source-refinement indices


def test_derived_region_matches_direct_bound():
    rng = np.random.default_rng(3)
    n4 = random_network(np.random.default_rng(2), 4)
    for net, draws in ((net3(2), 3), (n4, 2)):
        region = derive_region(net)
        for _ in range(draws):
            s = random_feasible_scheme(rng, net)
            direct = nncpdf_bound(net, s)
            value = evaluate_region(region, atom_values(net, s, region.atom_table))
            assert value == pytest.approx(direct.bound, abs=1e-9)


@pytest.mark.parametrize("dests", [{3}, {2, 3}, {3, 4}, {2, 3, 4}, {5}])
def test_projection_matches_the_unprojected_lp(dests):
    """The projected region and the large-B system it came from, with no
    Fourier-Motzkin, have the same LP value on atom vectors of schemes with
    unit auxiliaries (feasible: finite values) and on uniform ones."""
    n = max(dests)  # the last node is a destination in every case
    net = random_network(np.random.default_rng(8), n, destinations=dests)
    limited = asymptotic_system(
        [c.inequality for c in derive_symbolic_families(net).values()]
    )
    variables = sorted({v for i in limited for v in i.rates})
    unprojected = SymbolicRegion(tuple(variables), tuple(limited))
    region = derive_region(net)
    rng = np.random.default_rng(9)
    ones = (1,) * (n - 1)
    finite = 0
    for k in range(10):
        if k % 2:
            values = {name: float(rng.uniform(0.0, 1.0)) for name in region.atom_table}
        else:
            scheme = random_scheme(rng, net, ones, ones)
            values = atom_values(net, scheme, region.atom_table)
        want = evaluate_region(unprojected, values)
        assert evaluate_region(region, values) == pytest.approx(want, abs=1e-9)
        finite += np.isfinite(want)
    assert finite >= 2  # most uniform vectors give an infeasible system


def test_unfolded_joint_blocks_are_independent():
    net = net3(4)
    rng = np.random.default_rng(5)
    s = random_scheme(rng, net)
    unf = build_unfolded_joint(net, s, 2)
    assert abs(float(unf.mass.sum()) - 1.0) < 1e-9
    atom = InfoAtom(frozenset({Var("X1", 1)}), frozenset({Var("X1", 2)}))
    assert mutual_information(unf, atom) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_unfolded_atom_strips_message():
    net = net3(6)
    rng = np.random.default_rng(7)
    s = random_scheme(rng, net)
    unf = build_unfolded_joint(net, s, 2)
    with_m = InfoAtom(
        frozenset({Var("X1", 1)}), frozenset({Var("Y2", 1), Var("M")})
    )
    without = InfoAtom(frozenset({Var("X1", 1)}), frozenset({Var("Y2", 1)}))
    assert evaluate_unfolded_atom(unf, with_m) == pytest.approx(
        mutual_information(unf, without), abs=1e-12
    )
