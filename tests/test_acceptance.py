"""Acceptance criteria, one test per criterion with pinned tolerances.

Each test is the pass/fail line for its criterion (run with ``pytest -v``).
Expected values are produced by independent oracles inside each test body:
closed-form identities, alternative formulas, or cross-implementations.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from nncpdf.bounds import (
    cutset_max_grid,
    ddf_bound,
    induced_input_dist,
    nnc_bound,
    nncpdf_bound,
    random_feasible_scheme,
    theorem7_bound,
)
from nncpdf.derivation import (
    BlockLayout,
    atom_values,
    build_unfolded_joint,
    constraint_for_compression,
    constraint_for_decoding,
    derive_p2p_region,
    derive_region,
    evaluate_unfolded_atom,
    simplify_info_term,
)
from nncpdf.network import (
    assemble_joint,
    load_network_file,
    load_scheme_file,
    make_ddf_scheme,
    make_nnc_scheme,
    network_to_document,
    random_network,
    random_scheme,
    scheme_to_document,
)
from nncpdf.omega import IndexId, build_nncpdf_omega, validate_omega
from nncpdf.optimize import SearchConfig, coordinate_ascent, embed_scheme
from nncpdf.probability import (
    InfoAtom,
    Var,
    entropy,
    joint,
    marginalize,
    mi,
    mutual_information,
)
from nncpdf.symbolic import evaluate_region

FIXTURES = Path(__file__).parent / "fixtures"

FIXTURE_PAIRS = [
    ("n2_noiseless_bit.network.json", "n2_noiseless_bit.scheme.json"),
    ("n3_binary.network.json", "n3_binary.scheme.json"),
    ("n3_multicast.network.json", "n3_multicast.scheme.json"),
]


def test_criterion_01_information_measure_suite():
    """200 random joints (<=5 vars, alphabets <=3): chain rule, symmetry,
    non-negativity, marginal consistency, all within 1e-10; under 10 s."""
    rng = np.random.default_rng(101)
    tol = 1e-10
    start = time.monotonic()
    for _ in range(200):
        n_vars = int(rng.integers(2, 6))
        sizes = rng.integers(2, 4, size=n_vars)
        names = [Var(f"Z{i}") for i in range(n_vars)]
        d = joint(
            list(zip(names, sizes)), rng.dirichlet(np.ones(int(np.prod(sizes))))
        )
        a, b = names[0], names[1]
        rest = names[2:]
        # chain rule H(a,b|rest) = H(a|rest) + H(b|a,rest)
        lhs = entropy(d, [a, b], rest)
        rhs = entropy(d, [a], rest) + entropy(d, [b], [a, *rest])
        assert abs(lhs - rhs) < tol
        # symmetry and non-negativity of conditional mutual information
        fwd = mi(d, [a], [b], rest)
        assert abs(fwd - mi(d, [b], [a], rest)) < tol
        assert fwd > -tol
        # marginal consistency: marginalizing in two steps matches one step
        two = marginalize(marginalize(d, [a, b]), [a])
        one = marginalize(d, [a])
        assert np.abs(two.mass - one.mass).max() < tol
    assert time.monotonic() - start < 10.0


def test_criterion_02_theorem7_reduction():
    """100 random N=3 binary schemes: the general bound equals the
    three-node special-case formula within 1e-9; under 60 s."""
    rng = np.random.default_rng(102)
    start = time.monotonic()
    worst = 0.0
    for i in range(100):
        net = random_network(rng, 3, destinations={int(rng.integers(2, 4))})
        s = random_scheme(rng, net)
        general = nncpdf_bound(net, s).bound
        special = theorem7_bound(net, s)
        worst = max(worst, abs(general - special))
    assert worst < 1e-9, f"worst deviation {worst}"
    assert time.monotonic() - start < 60.0


def test_criterion_03_nnc_reduction():
    """50 random N in {3,4} binary networks with degenerate-auxiliary
    schemes: general bound equals the compress-only formula within 1e-9 and
    the feasibility list is empty."""
    rng = np.random.default_rng(103)
    for i in range(50):
        n = 3 if i % 2 == 0 else 4
        net = random_network(rng, n, destinations={n})
        s = make_nnc_scheme(random_scheme(rng, net))
        report = nncpdf_bound(net, s)
        assert report.feasibility == []
        assert abs(report.bound - nnc_bound(net, s)) < 1e-9


def test_criterion_04_ddf_reduction():
    """50 random instances of the decode-forward specialization: general
    bound equals the specialized formula within 1e-9."""
    rng = np.random.default_rng(104)
    for i in range(50):
        n = 3 if i % 2 == 0 else 4
        net = random_network(rng, n, destinations={n})
        s = make_ddf_scheme(random_scheme(rng, net))
        report = nncpdf_bound(net, s)
        assert abs(report.bound - ddf_bound(net, s)) < 1e-9


def test_criterion_05_point_to_point_derivation():
    """The two-node pipeline projects to exactly R < I(X1;Y2), matched as
    an atom identity and numerically within 1e-12 on 10 random channels."""
    region = derive_p2p_region()
    assert [str(i) for i in region.inequalities] == ["R < I(X1;Y2)"]
    expected = InfoAtom(frozenset({Var("X1")}), frozenset({Var("Y2")}))
    assert region.atom_table["I(X1;Y2)"] == expected
    rng = np.random.default_rng(105)
    for _ in range(10):
        net = random_network(rng, 2)
        s = random_scheme(rng, net, (1,), (1,), (1,))
        j = assemble_joint(net, s)
        direct = mutual_information(j, expected)
        via_region = evaluate_region(region, {"I(X1;Y2)": direct})
        assert abs(via_region - direct) < 1e-12


def test_criterion_06_pipeline_equivalence():
    """N=3: parameter construction -> constraint generation/reduction ->
    simplification -> large-B limit -> projection; the projected region
    evaluated at 20 random feasible binary schemes equals the direct bound
    within 1e-9; under 5 min."""
    start = time.monotonic()
    rng = np.random.default_rng(106)
    worst = 0.0
    for dests in ({3}, {2, 3}):
        net = random_network(rng, 3, destinations=dests)
        region = derive_region(net)
        for _ in range(10):
            s = random_feasible_scheme(rng, net)
            direct = nncpdf_bound(net, s).bound
            value = evaluate_region(region, atom_values(net, s, region.atom_table))
            worst = max(worst, abs(value - direct))
    assert worst < 1e-9, f"worst deviation {worst}"
    assert time.monotonic() - start < 300.0


def test_criterion_07_simplifier_oracle():
    """N=3, B=2, binary alphabets: every canonical decomposition from the
    blockwise simplifier matches direct evaluation of the original term on
    the instantiated unfolded joint within 1e-9."""
    rng = np.random.default_rng(107)
    net = random_network(rng, 3, destinations={3})
    s = random_scheme(rng, net)
    b = 2
    omega = build_nncpdf_omega(net, b)
    layout = BlockLayout()
    unfolded = build_unfolded_joint(net, s, b)
    single = assemble_joint(net, s)
    constraints = []
    for k in (2, 3):
        constraints.append(
            constraint_for_decoding(omega, (k, 2), {IndexId("l", k, 1)})
        )
        constraints.append(
            constraint_for_compression(omega, (k, 2), {IndexId("lp", k, 1)})
        )
    covering = {IndexId("l", k, bp) for k in (2, 3) for bp in (0, 1)}
    constraints.append(constraint_for_compression(omega, (1, 1), covering))
    sbar = {IndexId("l0"), IndexId("l1", block=1)}
    sbar |= {IndexId("l", 2, bp) for bp in (0, 1)}
    sbar |= {IndexId("lp", k, bp) for k in (2, 3) for bp in (0, 1)}
    constraints.append(constraint_for_decoding(omega, (3, b + 1), sbar))
    checked = 0
    for c in constraints:
        for name, atom in c.atom_table.items():
            direct = evaluate_unfolded_atom(unfolded, atom)
            coeffs, table = simplify_info_term(atom, layout)
            recon = sum(
                float(m) * mutual_information(single, table[nm])
                for nm, m in coeffs.items()
            )
            assert abs(direct - recon) < 1e-9, f"atom {name}"
            checked += 1
    assert checked > 20


def test_criterion_08_omega_bookkeeping():
    """Index and codebook counts match mu = 2BN-B+N and nu = 4BN-3B-N+2
    for all N in [2:5], B in [2:6], with zero structural violations."""
    rng = np.random.default_rng(108)
    for n in range(2, 6):
        net = random_network(rng, n, destinations=set(range(2, n + 1)))
        for b in range(2, 7):
            om = build_nncpdf_omega(net, b)
            assert om.mu == 2 * b * n - b + n
            assert om.nu == 4 * b * n - 3 * b - n + 2
            assert len(om.indices) == om.mu
            assert len(om.codebooks) == om.nu
            assert validate_omega(om) == []


def test_criterion_09_sanity_sandwich():
    """Across the fixture corpus, no feasible scheme's bound exceeds the
    grid cut-set maximum (grid plus the scheme's induced input pmf) by more
    than the 1e-9 allowance; violations are reported with the instance."""
    for net_file, scheme_file in FIXTURE_PAIRS:
        net = load_network_file(FIXTURES / net_file)
        s = load_scheme_file(FIXTURES / scheme_file, net.N)
        report = nncpdf_bound(net, s)
        if not report.feasible:
            continue
        extra = induced_input_dist(net, s).reshape(-1)
        ceiling = cutset_max_grid(net, 3, extra_points=[extra])
        if report.bound > ceiling + 1e-9:
            dump = json.dumps(
                {
                    "network": network_to_document(net),
                    "scheme": scheme_to_document(s),
                    "bound": report.bound,
                    "cutset": ceiling,
                }
            )
            pytest.fail(f"bound exceeds cut-set ceiling: {dump}")


def test_criterion_10_optimizer_embedding():
    """Seeding the full search with the optimized degenerate-auxiliary
    scheme never decreases the returned rate by more than 1e-9."""
    rng = np.random.default_rng(110)
    net = random_network(rng, 3, destinations={3})
    init = random_scheme(np.random.default_rng(0), net, (1, 1), (1, 1), (2, 2))
    cfg_small = SearchConfig(
        method="coordinate-ascent",
        v_sizes=(1, 1), u_sizes=(1, 1), yhat_sizes=(2, 2), max_iters=20,
    )
    best_small, nnc_rate, _ = coordinate_ascent(net, cfg_small, init)
    seed = embed_scheme(best_small, (2, 2), (2, 2), (2, 2))
    cfg_full = SearchConfig(
        method="coordinate-ascent",
        v_sizes=(2, 2), u_sizes=(2, 2), yhat_sizes=(2, 2), max_iters=10,
    )
    _, full_rate, trace = coordinate_ascent(net, cfg_full, seed)
    assert trace == sorted(trace)
    assert full_rate >= nnc_rate - 1e-9
