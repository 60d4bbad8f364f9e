"""Property tests of invariants the paper's bound relies on, run with
hypothesis derandomized so every run draws the same examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nncpdf.bounds import nncpdf_bound
from nncpdf.network import Network, SchemeDistribution, random_network, random_scheme

SWAP = {2: 3, 3: 2}
TOL = 1e-12


def swap_relays(net: Network, scheme: SchemeDistribution):
    """The same N=3 network and scheme with relays 2 and 3 relabeled."""
    swapped_net = Network(
        3,
        (net.x_sizes[0], net.x_sizes[2], net.x_sizes[1]),
        (net.y_sizes[0], net.y_sizes[2], net.y_sizes[1]),
        net.channel.transpose(0, 2, 1, 3, 5, 4),
        frozenset(SWAP[d] for d in net.destinations),
    )
    swapped_scheme = SchemeDistribution(
        3,
        scheme.v_sizes[::-1],
        scheme.u_sizes[::-1],
        scheme.yhat_sizes[::-1],
        scheme.head.transpose(0, 2, 1, 4, 3),  # (x1, v2, v3, u2, u3)
        scheme.input_kernels[::-1],
        scheme.compressors[::-1],
    )
    return swapped_net, swapped_scheme


sizes = st.tuples(st.integers(1, 2), st.integers(1, 2))


@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dests=st.sampled_from([(2,), (3,), (2, 3)]),
    v=sizes,
    u=sizes,
    yhat=sizes,
)
def test_bound_invariant_under_relay_relabeling(seed, dests, v, u, yhat):
    rng = np.random.default_rng(seed)
    net = random_network(rng, 3, destinations=set(dests))
    scheme = random_scheme(rng, net, v, u, yhat)
    swapped_net, swapped_scheme = swap_relays(net, scheme)
    for complement in ("all", "relays"):
        for perm, swapped_perm in ((None, (3, 2)), ((3, 2), None)):
            a = nncpdf_bound(net, scheme, complement=complement, perm=perm)
            b = nncpdf_bound(
                swapped_net, swapped_scheme, complement=complement, perm=swapped_perm
            )
            assert b.per_destination.keys() == {SWAP[d] for d in a.per_destination}
            for d, value in a.per_destination.items():
                assert b.per_destination[SWAP[d]] == pytest.approx(value, abs=TOL)
            assert b.bound == pytest.approx(a.bound, abs=TOL)
            margins_a = {frozenset(SWAP[k] for k in e.nodes): e.margin for e in a.feasibility}
            margins_b = {frozenset(e.nodes): e.margin for e in b.feasibility}
            assert margins_b.keys() == margins_a.keys()
            for nodes, margin in margins_a.items():
                assert margins_b[nodes] == pytest.approx(margin, abs=TOL)
