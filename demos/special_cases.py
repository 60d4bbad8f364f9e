"""Check the special-case reductions of the general bound numerically.

On random three-node binary networks the general evaluator should agree
with (a) the closed-form three-node expression for an arbitrary scheme,
(b) the compress-only formula when the auxiliaries are degenerate, and
(c) the decode-forward formula when compression is degenerate.
"""

import numpy as np

from nncpdf import (
    ddf_bound,
    make_ddf_scheme,
    make_nnc_scheme,
    nnc_bound,
    nncpdf_bound,
    random_network,
    random_scheme,
    theorem7_bound,
)


def main():
    rng = np.random.default_rng(7)
    print(f"{'trial':>5} {'general':>12} {'three-node':>12} "
          f"{'nnc':>12} {'ddf':>12}")
    for trial in range(5):
        net = random_network(rng, 3, destinations={3})
        s = random_scheme(rng, net)

        general = nncpdf_bound(net, s).bound
        special = theorem7_bound(net, s)

        s_nnc = make_nnc_scheme(s)
        via_general = nncpdf_bound(net, s_nnc).bound
        via_nnc = nnc_bound(net, s_nnc)
        assert abs(via_general - via_nnc) < 1e-9

        s_ddf = make_ddf_scheme(s)
        ddf_general = nncpdf_bound(net, s_ddf).bound
        ddf_special = ddf_bound(net, s_ddf)
        assert abs(ddf_general - ddf_special) < 1e-9

        print(f"{trial:>5} {general:>12.6f} {special:>12.6f} "
              f"{via_nnc:>12.6f} {ddf_special:>12.6f}")
        assert abs(general - special) < 1e-9
    print("\nall reductions agree within 1e-9")


if __name__ == "__main__":
    main()
