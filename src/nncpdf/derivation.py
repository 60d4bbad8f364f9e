"""Mechanized derivation pipeline: unified-coding constraint generation
from a coding-parameter set, constraint reduction, blockwise-independent
simplification of unfolded information terms, the large-block-count limit,
and the end-to-end driver that re-derives the single-letter rate region.

Constraint conventions.  Each covering codebook j carries index sets
``gamma[j]``; an index l carries rate ``rate_of[l]``.  A decoding event at a
node succeeds when, for every admissible index subset, the summed rates stay
below a sum of mutual informations between codewords and the node's
observation; a covering step succeeds when the summed rates exceed the
corresponding sum.  The message codebook is special: its codeword *is* the
message, so information terms with the message on both sides contribute
``message_rate_blocks * R`` exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    NotAffineInB,
    SchemaError,
    SearchSpaceTooLarge,
    SideConditionViolated,
    UnsupportedLabeling,
)
from .network import Network, SchemeDistribution, assemble_joint
from .omega import (
    CodeId,
    IndexId,
    Node,
    OmegaParameters,
    build_nncpdf_omega,
    build_p2p_omega,
)
from .probability import (
    InfoAtom,
    JointDistribution,
    Var,
    mutual_information,
    product_compose,
)
from .symbolic import AffB, SymbolicInequality, SymbolicRegion, project_to_R

MAX_SUBSETS = 1 << 16
# block counts the affine-in-B families are fitted at, and checked at
FIT_BS = (3, 4)
CHECK_B = 5


@dataclass(frozen=True)
class BlockLayout:
    """How unfolded variable labels map to independent blocks.

    ``allow_unblocked`` admits block-free labels (single-block parameter
    sets) by placing them all in one group.
    """

    allow_unblocked: bool = False

    def group_of(self, v: Var):
        if v.name == "M":
            return "M"
        if v.block is not None:
            return v.block
        if self.allow_unblocked:
            return 0
        raise UnsupportedLabeling(f"variable {v} has no block label")


@dataclass(frozen=True)
class Constraint:
    """One generated inequality together with its atom definitions."""

    inequality: SymbolicInequality
    atom_table: dict[str, InfoAtom]


def _rate_terms(omega: OmegaParameters, indices: Iterable[IndexId]) -> dict[str, AffB]:
    rates: dict[str, AffB] = {}
    for l in indices:
        name = omega.rate_of.get(l)
        if name is None:
            continue
        rates[name] = rates.get(name, AffB()) + AffB(Fraction(1))
    return rates


def _chain_atoms(
    omega: OmegaParameters,
    node: Node,
    chosen: Iterable[CodeId],
    extra: Iterable[CodeId],
):
    """Successive-decoding style information terms for the chosen codebooks.

    Returns (atom coefficients, atom table, coefficient of R picked up from
    message self-information).
    """
    obs = omega.observations.get(node, frozenset())
    order = {c: i for i, c in enumerate(omega.codebooks)}
    chosen_sorted = sorted(chosen, key=lambda c: order[c])
    extra_vars = frozenset(c.var() for c in extra)
    atoms: dict[str, AffB] = {}
    table: dict[str, InfoAtom] = {}
    r_coeff = AffB()
    for i, j in enumerate(chosen_sorted):
        left = frozenset({j.var()})
        right = frozenset(c.var() for c in chosen_sorted[:i]) | extra_vars | obs
        if j.cls == "M" and j.var() in right:
            r_coeff = r_coeff + AffB(Fraction(omega.message_rate_blocks))
            continue
        cond = frozenset(c.var() for c in omega.sup[j])
        right = right - cond - left
        if not right:
            continue
        atom = InfoAtom(left, right, cond)
        name = str(atom)
        atoms[name] = atoms.get(name, AffB()) + AffB(Fraction(1))
        table[name] = atom
    return atoms, table, r_coeff


def constraint_for_decoding(
    omega: OmegaParameters,
    node: Node,
    sbar: Iterable[IndexId],
    s_prime: Iterable[CodeId] | None = None,
) -> Constraint:
    """The decoding constraint at ``node`` for index subset ``sbar``.

    ``s_prime`` optionally reduces the decoded-codebook set; the reduction
    is sound only when every dropped codebook has its superposition parents
    among the remaining earlier ones or outside the decoded set.
    """
    dset = omega.decoded[node]
    bset = omega.nonunique[node]
    db = dset | bset
    dbar = omega.gamma_of(dset)
    dbbar = omega.gamma_of(db)
    sbar = frozenset(sbar)
    if not sbar or not sbar <= dbbar:
        raise SchemaError(f"decoding subset must be within indices of D+B at {node}")
    if not sbar & dbar:
        raise SchemaError(f"decoding subset must meet the uniquely-decoded indices")
    shat = frozenset(j for j in db if omega.gamma[j] & sbar)
    if s_prime is None:
        s_prime = shat
    else:
        s_prime = frozenset(s_prime)
        if not s_prime <= shat:
            raise SchemaError("reduced decoding set must be within the induced set")
        order = {c: i for i, c in enumerate(omega.codebooks)}
        dropped = shat - s_prime
        outside = db - shat
        for j in dropped:
            allowed = {jj for jj in dropped if order[jj] < order[j]} | outside
            if not omega.sup[j] <= allowed:
                raise SideConditionViolated(
                    f"cannot drop {j} at {node}: parents escape the allowed set"
                )
    atoms, table, r_coeff = _chain_atoms(omega, node, s_prime, db - s_prime)
    rates = _rate_terms(omega, sbar)
    if r_coeff:
        rates["R"] = rates.get("R", AffB()) - r_coeff
    ineq = SymbolicInequality(rates, atoms, "<")
    return Constraint(ineq, table)


def constraint_for_compression(
    omega: OmegaParameters,
    node: Node,
    tbar: Iterable[IndexId],
    t_prime: Iterable[CodeId] | None = None,
) -> Constraint:
    """The covering-success constraint at ``node`` for fresh index subset
    ``tbar``; ``t_prime`` optionally enlarges the induced codebook set."""
    w = omega.covering[node]
    dbar = omega.gamma_of(omega.decoded[node])
    wbar = omega.gamma_of(w) - dbar
    tbar = frozenset(tbar)
    if not tbar or not tbar <= wbar:
        raise SchemaError(f"covering subset must be within fresh indices at {node}")
    that = frozenset(j for j in w if omega.gamma[j] <= (tbar | dbar))
    if t_prime is None:
        t_prime = that
    else:
        t_prime = frozenset(t_prime)
        if not (that <= t_prime and t_prime <= w):
            raise SchemaError("enlarged covering set must sit between induced set and W")
    atoms, table, r_coeff = _chain_atoms(omega, node, t_prime, omega.decoded[node])
    rates = _rate_terms(omega, tbar)
    if r_coeff:
        rates["R"] = rates.get("R", AffB()) - r_coeff
    if not rates and not atoms:
        raise SchemaError(f"covering subset {sorted(map(str, tbar))} yields no constraint")
    ineq = SymbolicInequality(rates, atoms, ">")
    return Constraint(ineq, table)


def reduce_constraints(
    omega: OmegaParameters,
    node: Node,
    *,
    sbar: Iterable[IndexId] | None = None,
    s_prime: Iterable[CodeId] | None = None,
    tbar: Iterable[IndexId] | None = None,
    t_prime: Iterable[CodeId] | None = None,
) -> Constraint:
    """Decoding or covering constraint with a reduced/enlarged codebook set."""
    if (sbar is None) == (tbar is None):
        raise SchemaError("provide exactly one of sbar (decoding) or tbar (covering)")
    if sbar is not None:
        return constraint_for_decoding(omega, node, sbar, s_prime)
    return constraint_for_compression(omega, node, tbar, t_prime)


def generate_constraints(omega: OmegaParameters, node: Node) -> list[Constraint]:
    """Every non-redundant decoding and covering constraint at ``node``.

    Decoding subsets that touch indices the node already knows (codewords
    contained in its observation) are implied by smaller subsets and are
    skipped.  Raises SearchSpaceTooLarge past ``MAX_SUBSETS`` subsets.
    """
    out: list[Constraint] = []
    known = omega.gamma_of(omega.known_codes(node))
    dset = omega.decoded[node]
    db = dset | omega.nonunique[node]
    dbar = omega.gamma_of(dset)
    pool = sorted(omega.gamma_of(db) - known, key=str)
    if 2 ** len(pool) > MAX_SUBSETS:
        raise SearchSpaceTooLarge(
            f"{2 ** len(pool)} decoding subsets at {node} exceeds cap {MAX_SUBSETS}"
        )
    for r in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            sbar = frozenset(combo)
            if not sbar & dbar:
                continue
            c = constraint_for_decoding(omega, node, sbar)
            if c.inequality.rates or c.inequality.atoms:
                out.append(c)
    wbar = sorted(
        omega.gamma_of(omega.covering[node]) - omega.gamma_of(dset), key=str
    )
    if 2 ** len(wbar) > MAX_SUBSETS:
        raise SearchSpaceTooLarge(
            f"{2 ** len(wbar)} covering subsets at {node} exceeds cap {MAX_SUBSETS}"
        )
    for r in range(1, len(wbar) + 1):
        for combo in itertools.combinations(wbar, r):
            out.append(constraint_for_compression(omega, node, frozenset(combo)))
    return out


# ---------------------------------------------------------------------------
# blockwise simplification


def simplify_info_term(
    atom: InfoAtom, layout: BlockLayout
) -> tuple[dict[str, Fraction], dict[str, InfoAtom]]:
    """Decompose an unfolded information term under blockwise independence.

    Blocks are mutually independent groups, so I(L;R|C) splits into one
    term per block; groups without left-side variables contribute nothing,
    and so does the message group (the message is independent of every
    codebook pmf).  Returns canonical (block-free) atom coefficients and
    their definitions.
    """

    def strip(vs):
        return frozenset(Var(v.name) for v in vs)

    groups = sorted(
        {layout.group_of(v) for v in atom.left}, key=lambda g: (g == "M", str(g))
    )
    coeffs: dict[str, Fraction] = {}
    table: dict[str, InfoAtom] = {}
    for g in groups:
        if g == "M":
            continue
        left = frozenset(v for v in atom.left if layout.group_of(v) == g)
        right = frozenset(v for v in atom.right if layout.group_of(v) == g)
        cond = frozenset(v for v in atom.cond if layout.group_of(v) == g)
        if not left or not right:
            continue
        canon = InfoAtom(strip(left), strip(right) - strip(left), strip(cond))
        name = str(canon)
        coeffs[name] = coeffs.get(name, Fraction(0)) + 1
        table[name] = canon
    return coeffs, table


def simplify_constraint(c: Constraint, layout: BlockLayout) -> Constraint:
    """Rewrite a generated constraint over canonical single-block atoms."""
    atoms: dict[str, AffB] = {}
    table: dict[str, InfoAtom] = {}
    for name, coeff in c.inequality.atoms.items():
        canon, sub = simplify_info_term(c.atom_table[name], layout)
        for cname, mult in canon.items():
            atoms[cname] = atoms.get(cname, AffB()) + coeff.scale(mult)
        table.update(sub)
    ineq = SymbolicInequality(c.inequality.rates, atoms, c.inequality.sense,
                              c.inequality.strict)
    return Constraint(ineq, table)


# ---------------------------------------------------------------------------
# large-block-count limit


def asymptotic_system(constraints: Sequence[SymbolicInequality]) -> list[SymbolicInequality]:
    """Per-block limit of a B-affine constraint system.

    Substitutes r0 = B*R (the message representation rate is tight against
    its covering constraint), divides B-scaled inequalities by B, and drops
    O(1/B) terms; B-free inequalities pass through unchanged.
    """
    out: list[SymbolicInequality] = []
    for ineq in constraints:
        rates = dict(ineq.rates)
        r0 = rates.pop("r0", None)
        if r0 is not None:
            c = r0.const()  # r0 must enter with a B-free coefficient
            rates["R"] = rates.get("R", AffB()) + AffB(Fraction(0), c)
        atoms = dict(ineq.atoms)
        coeffs = list(rates.values()) + list(atoms.values())
        coeffs = [c for c in coeffs if c]
        if not coeffs:
            continue
        if any(not c.is_const for c in coeffs):
            rates = {k: AffB(v.c1) for k, v in rates.items() if v.c1}
            atoms = {k: AffB(v.c1) for k, v in atoms.items() if v.c1}
        if not rates and not atoms:
            continue
        out.append(SymbolicInequality(rates, atoms, ineq.sense, ineq.strict))
    return out


# ---------------------------------------------------------------------------
# the concrete constraint families and the end-to-end drivers

FamilyKey = tuple


def derive_constraint_families(net: Network, B: int) -> dict[FamilyKey, Constraint]:
    """The constraint families, at one concrete block count, whose limit
    yields the single-letter region: message representation covering,
    per-subset auxiliary covering at the source, per-relay decoding and
    compression, and per-(destination, S, T) joint decoding."""
    omega = build_nncpdf_omega(net, B)
    layout = BlockLayout()
    relays = list(range(2, net.N + 1))
    out: dict[FamilyKey, Constraint] = {}

    def simp(c: Constraint) -> Constraint:
        return simplify_constraint(c, layout)

    source: Node = (1, 1)
    out[("message",)] = simp(
        constraint_for_compression(omega, source, {IndexId("l0")})
    )
    for r in range(1, len(relays) + 1):
        for s in itertools.combinations(relays, r):
            tbar = {IndexId("l", k, bp) for k in s for bp in range(0, B)}
            out[("cov", s)] = simp(constraint_for_compression(omega, source, tbar))
    tbar = {IndexId("l1", block=b) for b in range(1, B + 1)}
    tbar |= {IndexId("l", k, bp) for k in relays for bp in range(0, B)}
    dbar = omega.gamma_of(omega.decoded[source])
    that = frozenset(
        j for j in omega.covering[source] if omega.gamma[j] <= (tbar | dbar)
    )
    enlarged = that | {CodeId("X1", 1, b) for b in range(1, B + 1)}
    out[("cov-full",)] = simp(
        reduce_constraints(omega, source, tbar=tbar, t_prime=enlarged)
    )
    for k in relays:
        out[("relay-dec", k)] = simp(
            constraint_for_decoding(omega, (k, 2), {IndexId("l", k, 1)})
        )
        out[("relay-comp", k)] = simp(
            constraint_for_compression(omega, (k, 2), {IndexId("lp", k, 1)})
        )
    for d in sorted(net.destinations):
        others = [k for k in relays if k != d]
        for rt in range(len(others) + 1):
            for t in itertools.combinations(others, rt):
                for rs in range(len(t) + 1):
                    for s in itertools.combinations(t, rs):
                        sbar = {IndexId("l0")}
                        sbar |= {IndexId("l1", block=b) for b in range(1, B)}
                        sbar |= {
                            IndexId("l", k, bp) for k in s for bp in range(0, B)
                        }
                        sbar |= {
                            IndexId("lp", k, bpp) for k in t for bpp in range(0, B)
                        }
                        out[("dest", d, s, t)] = simp(
                            constraint_for_decoding(omega, (d, B + 1), sbar)
                        )
    for v in ["r1"] + [f"r{k}" for k in relays] + [f"rp{k}" for k in relays]:
        out[("nonneg", v)] = Constraint(
            SymbolicInequality({v: AffB(Fraction(1))}, {}, ">", strict=False), {}
        )
    return out


def _fit_affine(families: Sequence[dict[FamilyKey, Constraint]], bs: Sequence[int]):
    """Per-symbol affine-in-B coefficients through two concrete systems."""
    (fa, fb), (b1, b2) = families, bs
    if set(fa) != set(fb):
        raise NotAffineInB("constraint families differ between block counts")
    fitted: dict[FamilyKey, Constraint] = {}
    for key in fa:
        ia, ib = fa[key].inequality, fb[key].inequality
        if (ia.sense, ia.strict) != (ib.sense, ib.strict):
            raise NotAffineInB(f"family {key} changes sense between block counts")

        def fit(coeffs_a: Mapping[str, AffB], coeffs_b: Mapping[str, AffB]):
            out = {}
            for sym in set(coeffs_a) | set(coeffs_b):
                va = coeffs_a.get(sym, AffB()).const()
                vb = coeffs_b.get(sym, AffB()).const()
                c1 = Fraction(vb - va, b2 - b1)
                out[sym] = AffB(va - c1 * b1, c1)
            return out

        ineq = SymbolicInequality(
            fit(ia.rates, ib.rates), fit(ia.atoms, ib.atoms), ia.sense, ia.strict
        )
        table = dict(fa[key].atom_table)
        table.update(fb[key].atom_table)
        fitted[key] = Constraint(ineq, table)
    return fitted


def derive_symbolic_families(net: Network) -> dict[FamilyKey, Constraint]:
    """B-affine constraint families, fitted from the block counts
    ``FIT_BS`` and cross-checked at ``CHECK_B``."""
    fitted = _fit_affine([derive_constraint_families(net, b) for b in FIT_BS], FIT_BS)
    concrete = derive_constraint_families(net, CHECK_B)
    for key, c in fitted.items():
        ia = c.inequality
        ic = concrete[key].inequality
        got = {k: v.at(CHECK_B) for k, v in ia.rates.items()}
        want = {k: v.const() for k, v in ic.rates.items()}
        got_a = {k: v.at(CHECK_B) for k, v in ia.atoms.items()}
        want_a = {k: v.const() for k, v in ic.atoms.items()}
        if got != want or got_a != want_a:
            raise NotAffineInB(f"family {key} is not affine in the block count")
    return fitted


def _project(
    constraints: Iterable[Constraint], ineqs: Sequence[SymbolicInequality]
) -> SymbolicRegion:
    """Project ``ineqs`` onto R, with the atoms defined by ``constraints``."""
    table: dict[str, InfoAtom] = {}
    for c in constraints:
        table.update(c.atom_table)
    variables = sorted({v for i in ineqs for v in i.rates} | {"R"})
    return project_to_R(SymbolicRegion(tuple(variables), tuple(ineqs), table))


def derive_region(net: Network) -> SymbolicRegion:
    """The single-letter region: fitted B-affine families, large-B limit,
    then Fourier-Motzkin projection onto the message rate R."""
    fitted = derive_symbolic_families(net).values()
    return _project(fitted, asymptotic_system([c.inequality for c in fitted]))


def derive_p2p_region() -> SymbolicRegion:
    """Two-node sanity pipeline: generate, simplify, project."""
    omega = build_p2p_omega()
    layout = BlockLayout(allow_unblocked=True)
    constraints: list[Constraint] = []
    for node in omega.nodes:
        constraints += generate_constraints(omega, node)
    simplified = [simplify_constraint(c, layout) for c in constraints]
    return _project(simplified, [c.inequality for c in simplified])


# ---------------------------------------------------------------------------
# instantiating unfolded distributions


def build_unfolded_joint(
    net: Network, scheme: SchemeDistribution, B: int
) -> JointDistribution:
    """The blockwise-independent joint over block-labeled variables.

    Carries, per block, the source input, per-relay auxiliaries, inputs and
    channel outputs (the source's own output is marginalized away), and per
    block below B the compression variables.
    """
    factors = []
    relays = list(range(2, net.N + 1))
    # drop the source's own channel output: axis N in (x..., y...) layout
    ch = net.channel.sum(axis=net.N)
    for b in range(1, B + 1):
        head_out = [(Var("X1", b), net.x_sizes[0])]
        head_out += [(Var(f"V{k}", b), scheme.v_size(k)) for k in relays]
        head_out += [(Var(f"U{k}", b), scheme.u_size(k)) for k in relays]
        factors.append((scheme.head, head_out, []))
        for k in relays:
            factors.append(
                (
                    scheme.input_kernels[k - 2],
                    [(Var(f"X{k}", b), net.x_sizes[k - 1])],
                    [Var(f"V{k}", b)],
                )
            )
        factors.append(
            (
                ch,
                [(Var(f"Y{k}", b), net.y_sizes[k - 1]) for k in relays],
                [Var("X1", b)] + [Var(f"X{k}", b) for k in relays],
            )
        )
        if b < B:
            for k in relays:
                factors.append(
                    (
                        scheme.compressors[k - 2],
                        [(Var(f"Yhat{k}", b), scheme.yhat_size(k))],
                        [
                            Var(f"X{k}", b),
                            Var(f"U{k}", b),
                            Var(f"V{k}", b),
                            Var(f"Y{k}", b),
                        ],
                    )
                )
    return product_compose(factors)


def evaluate_unfolded_atom(d: JointDistribution, atom: InfoAtom) -> float:
    """Value of an unfolded information term, treating the message label as
    independent of everything (worth zero wherever it appears)."""
    m = Var("M")
    left = atom.left - {m}
    right = atom.right - {m}
    cond = atom.cond - {m}
    if not left or not right:
        return 0.0
    return mutual_information(d, InfoAtom(left, right, cond))


def atom_values(net: Network, scheme: SchemeDistribution,
                table: Mapping[str, InfoAtom]) -> dict[str, float]:
    """Numeric values of canonical single-block atoms under a scheme."""
    j = assemble_joint(net, scheme)
    return {name: mutual_information(j, atom) for name, atom in table.items()}
