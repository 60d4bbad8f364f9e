"""Unit tests for the probability core: identities of entropy and mutual
information on random joints, composition, and validation errors."""

import numpy as np
import pytest

from nncpdf.errors import (
    CyclicFactorization,
    NotNormalized,
    OverlappingSets,
    RowNotNormalized,
    ShapeMismatch,
)
from nncpdf.probability import (
    InfoAtom,
    Var,
    binary_entropy,
    entropy,
    joint,
    marginalize,
    mi,
    mutual_information,
    product_compose,
    validate_pmf,
)

TOL = 1e-10


def random_joint(rng, n_vars=3, max_size=3):
    sizes = rng.integers(2, max_size + 1, size=n_vars)
    names = [Var(f"Z{i}") for i in range(n_vars)]
    mass = rng.dirichlet(np.ones(int(np.prod(sizes))))
    return joint(list(zip(names, sizes)), mass), names


def test_entropy_uniform_bits():
    d = joint([(Var("A"), 4)], np.full(4, 0.25))
    assert abs(entropy(d, [Var("A")]) - 2.0) < TOL


def test_binary_entropy_extremes():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < TOL


def test_chain_rule_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d, (a, b, c) = random_joint(rng)
        lhs = entropy(d, [a, b], [c])
        rhs = entropy(d, [a], [c]) + entropy(d, [b], [a, c])
        assert abs(lhs - rhs) < TOL


def test_mutual_information_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d, (a, b, c) = random_joint(rng)
        assert abs(mi(d, [a], [b], [c]) - mi(d, [b], [a], [c])) < TOL


def test_mutual_information_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d, (a, b, c) = random_joint(rng)
        assert mi(d, [a], [b], [c]) > -TOL


def test_independent_variables_zero_information():
    p = np.outer([0.3, 0.7], [0.6, 0.4])
    d = joint([(Var("A"), 2), (Var("B"), 2)], p)
    assert abs(mi(d, [Var("A")], [Var("B")])) < TOL


def test_marginalize_consistency():
    rng = np.random.default_rng(3)
    d, (a, b, c) = random_joint(rng)
    m = marginalize(d, [b, a])
    assert [v for v, _ in m.variables] == [b, a]
    m2 = marginalize(m, [a])
    direct = marginalize(d, [a])
    assert np.allclose(m2.mass, direct.mass, atol=TOL)
    assert abs(m.mass.sum() - 1.0) < TOL


def test_mi_drops_conditioned_labels():
    rng = np.random.default_rng(4)
    d, (a, b, c) = random_joint(rng)
    assert mi(d, [a, c], [b, c], [c]) == pytest.approx(mi(d, [a], [b], [c]))
    assert mi(d, [a], [a]) == 0.0


def test_atom_requires_disjoint_sets():
    with pytest.raises(OverlappingSets):
        InfoAtom(frozenset({Var("A")}), frozenset({Var("A")}))
    with pytest.raises(OverlappingSets):
        InfoAtom(frozenset(), frozenset({Var("A")}))


def test_atom_string_is_canonical():
    atom = InfoAtom(
        frozenset({Var("B")}), frozenset({Var("A"), Var("C")}),
        frozenset({Var("D")}),
    )
    assert str(atom) == "I(B;A,C|D)"


def test_joint_rejects_bad_mass():
    with pytest.raises(NotNormalized):
        joint([(Var("A"), 2)], [0.5, 0.4])
    with pytest.raises(ShapeMismatch):
        joint([(Var("A"), 2)], [0.5, 0.25, 0.25])


def test_validate_pmf_passthrough():
    d = joint([(Var("A"), 2)], [0.5, 0.5])
    assert validate_pmf(d) is d


def test_product_compose_matches_manual():
    px = np.array([0.25, 0.75])
    ker = np.array([[0.9, 0.1], [0.2, 0.8]])
    d = product_compose(
        [
            (px, [(Var("X"), 2)], []),
            (ker, [(Var("Y"), 2)], [Var("X")]),
        ]
    )
    expected = px[:, None] * ker
    assert np.allclose(d.mass, expected)


def test_product_compose_rejects_cycles_and_bad_rows():
    px = np.array([0.5, 0.5])
    with pytest.raises(CyclicFactorization):
        product_compose([(px, [(Var("X"), 2)], [Var("Y")])])
    with pytest.raises(RowNotNormalized):
        product_compose(
            [
                (px, [(Var("X"), 2)], []),
                (np.array([[0.9, 0.2], [0.2, 0.8]]), [(Var("Y"), 2)], [Var("X")]),
            ]
        )


def test_mutual_information_atom_value():
    # perfectly correlated bits carry exactly one bit
    mass = np.array([[0.5, 0.0], [0.0, 0.5]])
    d = joint([(Var("A"), 2), (Var("B"), 2)], mass)
    atom = InfoAtom(frozenset({Var("A")}), frozenset({Var("B")}))
    assert mutual_information(d, atom) == pytest.approx(1.0, abs=TOL)


def test_joint_equality_is_identity():
    d = joint([("A", 2), ("B", 2)], [0.1, 0.2, 0.3, 0.4])
    twin = joint([("A", 2), ("B", 2)], [0.1, 0.2, 0.3, 0.4])
    assert d == d
    assert d != twin
    assert hash(d) == hash(d)
    assert len({d, twin}) == 2
