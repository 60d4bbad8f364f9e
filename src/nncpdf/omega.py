"""Unified-coding parameter sets: the unfolded (acyclic) view of a
blockwise-operated network, codebook/index bookkeeping, the specific
parameter family realizing the hybrid decode-and-compress scheme, and the
structural validator.

Node ids of the unfolded network are (k, b) pairs: original node k
operating in block b; destinations get an extra node (d, B+1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import SchemaError
from .network import Network
from .probability import Var

Node = tuple[int, int]

_CLASS_RANK = {"M": 0, "V": 1, "X1": 2, "X": 3, "U": 4, "Yhat": 5}


@dataclass(frozen=True)
class IndexId:
    """One codeword index set: kind in {'l0','l1','l','lp'}."""

    kind: str
    node: int | None = None
    block: int | None = None

    def __str__(self) -> str:
        if self.kind == "l0":
            return "l0"
        if self.kind == "l1":
            return f"l[1,{self.block}]"
        tick = "'" if self.kind == "lp" else ""
        return f"l{tick}[{self.node},{self.block}]"


@dataclass(frozen=True)
class CodeId:
    """One covering codebook, identified by the auxiliary variable it
    generates: cls in {'M','X1','V','U','X','Yhat'}."""

    cls: str
    node: int | None = None
    block: int | None = None

    def var(self) -> Var:
        if self.cls == "M":
            return Var("M")
        if self.cls == "X1":
            return Var("X1", self.block)
        return Var(f"{self.cls}{self.node}", self.block)

    def order_key(self):
        return (
            _CLASS_RANK[self.cls],
            -1 if self.block is None else self.block,
            -1 if self.node is None else self.node,
        )

    def __str__(self) -> str:
        return str(self.var())


@dataclass(frozen=True)
class UnfoldedNetwork:
    """The (B+1)-replicated node grid with per-node observation contents.

    ``observations[(k, b)]`` lists what node (k, b) knows when it acts: the
    message, channel outputs of earlier blocks, and codeword variables
    carried over its own orthogonal link.
    """

    N: int
    B: int
    nodes: tuple[Node, ...]
    observations: dict[Node, frozenset[Var]]
    destinations: frozenset[int]

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class OmegaParameters:
    """The unified coding parameter set for one unfolded network."""

    N: int
    B: int
    mu: int
    nu: int
    indices: tuple[IndexId, ...]
    codebooks: tuple[CodeId, ...]  # in generation (superposition) order
    gamma: dict[CodeId, frozenset[IndexId]]
    sup: dict[CodeId, frozenset[CodeId]]  # superposition sets A_j
    covering: dict[Node, frozenset[CodeId]]  # W_k
    decoded: dict[Node, frozenset[CodeId]]  # D_k
    nonunique: dict[Node, frozenset[CodeId]]  # B_k
    nodes: tuple[Node, ...]  # processing order
    observations: dict[Node, frozenset[Var]] = field(default_factory=dict)
    rate_of: dict[IndexId, str | None] = field(default_factory=dict)
    message_rate_blocks: int = 1

    def gamma_of(self, codes) -> frozenset[IndexId]:
        out: set[IndexId] = set()
        for c in codes:
            out |= self.gamma[c]
        return frozenset(out)

    def known_codes(self, node: Node) -> frozenset[CodeId]:
        """Codebooks whose codewords are contained in the node's observation."""
        obs = self.observations.get(node, frozenset())
        return frozenset(c for c in self.codebooks if c.var() in obs)


def unfold_network(net: Network, B: int) -> UnfoldedNetwork:
    """Replicate each node per transmission block (plus a decision copy for
    each destination) and record what each copy observes.

    Node (k, b) for b >= 2 observes, over its orthogonal self-link, all
    channel outputs of blocks before b; node (k, 1) observes its decoded
    start-up auxiliary; node (1, 1) observes the message.
    """
    if B < 1:
        raise SchemaError("need B >= 1")
    n = net.N
    nodes: list[Node] = [(k, b) for b in range(1, B + 1) for k in range(1, n + 1)]
    nodes += [(d, B + 1) for d in sorted(net.destinations)]
    obs: dict[Node, frozenset[Var]] = {}
    for k, b in nodes:
        if (k, b) == (1, 1):
            obs[(k, b)] = frozenset({Var("M")})
        elif b == 1:
            obs[(k, b)] = frozenset({Var(f"V{k}", 1)})
        else:
            upto = min(b - 1, B)
            obs[(k, b)] = frozenset(
                Var(f"Y{k}", bb) for bb in range(1, upto + 1)
            )
    return UnfoldedNetwork(
        N=n,
        B=B,
        nodes=tuple(nodes),
        observations=obs,
        destinations=net.destinations,
    )


def build_nncpdf_omega(net: Network, B: int) -> OmegaParameters:
    """The coding-parameter family whose unified-coding constraints yield
    the hybrid decode-and-compress achievable region."""
    if B < 2:
        raise SchemaError("need B >= 2")
    n = net.N
    relays = list(range(2, n + 1))
    blocks = list(range(1, B + 1))

    l0 = IndexId("l0")
    indices: list[IndexId] = [l0]
    indices += [IndexId("l1", block=b) for b in blocks]
    indices += [IndexId("l", k, bp) for k in relays for bp in range(0, B + 1)]
    indices += [IndexId("lp", k, bpp) for k in relays for bpp in range(0, B)]
    mu = 2 * B * n - B + n
    assert len(indices) == mu

    m_code = CodeId("M")
    codebooks: list[CodeId] = [m_code]
    codebooks += [CodeId("X1", 1, b) for b in blocks]
    codebooks += [CodeId("U", k, b) for k in relays for b in blocks]
    codebooks += [CodeId("V", k, b) for k in relays for b in blocks]
    codebooks += [CodeId("X", k, b) for k in relays for b in blocks]
    codebooks += [CodeId("Yhat", k, b) for k in relays for b in range(1, B)]
    nu = 4 * B * n - 3 * B - n + 2
    assert len(codebooks) == nu
    codebooks.sort(key=CodeId.order_key)

    gamma: dict[CodeId, frozenset[IndexId]] = {m_code: frozenset({l0})}
    sup: dict[CodeId, frozenset[CodeId]] = {m_code: frozenset()}
    for b in blocks:
        gamma[CodeId("X1", 1, b)] = frozenset(
            {l0, IndexId("l1", block=b)}
            | {IndexId("l", k, b - 1) for k in relays}
        )
        sup[CodeId("X1", 1, b)] = frozenset(CodeId("V", k, b) for k in relays)
    for k in relays:
        for b in blocks:
            gamma[CodeId("U", k, b)] = frozenset(
                {IndexId("l", k, b), IndexId("l", k, b - 1)}
            )
            sup[CodeId("U", k, b)] = frozenset({CodeId("V", k, b)})
            gamma[CodeId("V", k, b)] = frozenset({IndexId("l", k, b - 1)})
            sup[CodeId("V", k, b)] = frozenset()
        gamma[CodeId("X", k, 1)] = frozenset(
            {IndexId("l", k, 0), IndexId("lp", k, 0)}
        )
        sup[CodeId("X", k, 1)] = frozenset({CodeId("V", k, 1)})
        for b in range(2, B + 1):
            gamma[CodeId("X", k, b)] = frozenset(
                {IndexId("l", k, b - 1), IndexId("lp", k, b - 1)}
            )
            sup[CodeId("X", k, b)] = frozenset({CodeId("V", k, b)})
        for b in range(1, B):
            gamma[CodeId("Yhat", k, b)] = frozenset(
                {
                    IndexId("lp", k, b),
                    IndexId("l", k, b),
                    IndexId("lp", k, b - 1),
                    IndexId("l", k, b - 1),
                }
            )
            sup[CodeId("Yhat", k, b)] = frozenset(
                {CodeId("X", k, b), CodeId("U", k, b), CodeId("V", k, b)}
            )

    covering: dict[Node, frozenset[CodeId]] = {}
    decoded: dict[Node, frozenset[CodeId]] = {}
    nonunique: dict[Node, frozenset[CodeId]] = {}

    w11 = {m_code} | {CodeId("X1", 1, b) for b in blocks}
    w11 |= {CodeId(c, k, b) for c in ("U", "V") for k in relays for b in blocks}
    covering[(1, 1)] = frozenset(w11)
    decoded[(1, 1)] = frozenset()
    nonunique[(1, 1)] = frozenset()

    for k in relays:
        covering[(k, 1)] = frozenset({CodeId("X", k, 1)})
        decoded[(k, 1)] = frozenset({CodeId("V", k, 1)})
        nonunique[(k, 1)] = frozenset()
    for b in range(2, B + 1):
        covering[(1, b)] = frozenset()
        decoded[(1, b)] = covering[(1, 1)]
        nonunique[(1, b)] = frozenset()
    for k in relays:
        w_hist = {CodeId("X", k, 1)}
        d_hist = {CodeId("V", k, 1)}
        for b in range(2, B + 1):
            decoded[(k, b)] = frozenset(
                w_hist | d_hist | {CodeId("U", k, b - 1), CodeId("V", k, b)}
            )
            covering[(k, b)] = frozenset(
                {CodeId("Yhat", k, b - 1), CodeId("X", k, b)}
            )
            nonunique[(k, b)] = frozenset()
            w_hist |= covering[(k, b)]
            d_hist |= decoded[(k, b)]
    for d in sorted(net.destinations):
        w_hist = set().union(*(covering[(d, b)] for b in blocks))
        d_hist = set().union(*(decoded[(d, b)] for b in blocks))
        decoded[(d, B + 1)] = frozenset(w_hist | d_hist | {m_code})
        covering[(d, B + 1)] = frozenset()
        others = [k for k in relays if k != d]
        nonunique[(d, B + 1)] = frozenset(
            {CodeId("X1", 1, b) for b in range(1, B)}
            | {
                CodeId(c, k, b)
                for c in ("U", "V", "X", "Yhat")
                for k in others
                for b in range(1, B)
            }
        )

    rate_of: dict[IndexId, str | None] = {l0: "r0"}
    for b in blocks:
        rate_of[IndexId("l1", block=b)] = "r1"
    for k in relays:
        for bp in range(0, B + 1):
            rate_of[IndexId("l", k, bp)] = f"r{k}" if bp < B else None
        for bpp in range(0, B):
            rate_of[IndexId("lp", k, bpp)] = f"rp{k}"

    unf = unfold_network(net, B)
    nodes = unf.nodes
    observations = dict(unf.observations)
    # codeword content of a node's own history travels the orthogonal link
    for k in relays:
        for b in range(2, B + 2):
            if (k, b) not in covering and (k, b) not in decoded:
                continue
            hist: set[CodeId] = set()
            for bb in range(1, b):
                hist |= covering.get((k, bb), frozenset())
                hist |= decoded.get((k, bb), frozenset())
            observations[(k, b)] = observations.get((k, b), frozenset()) | frozenset(
                c.var() for c in hist
            )
    for b in range(2, B + 1):
        observations[(1, b)] = observations.get((1, b), frozenset()) | frozenset(
            c.var() for c in covering[(1, 1)]
        ) | frozenset({Var("M")})

    return OmegaParameters(
        N=n,
        B=B,
        mu=mu,
        nu=nu,
        indices=tuple(indices),
        codebooks=tuple(codebooks),
        gamma=gamma,
        sup=sup,
        covering=covering,
        decoded=decoded,
        nonunique=nonunique,
        nodes=nodes,
        observations=observations,
        rate_of=rate_of,
        message_rate_blocks=B,
    )


def build_p2p_omega() -> OmegaParameters:
    """Two-node point-to-point instance: the sender covers the message
    representation and one channel codebook; the receiver decodes both."""
    m_code = CodeId("M")
    x1 = CodeId("X1", 1, None)
    l0 = IndexId("l0")
    return OmegaParameters(
        N=2,
        B=1,
        mu=1,
        nu=2,
        indices=(l0,),
        codebooks=(m_code, x1),
        gamma={m_code: frozenset({l0}), x1: frozenset({l0})},
        sup={m_code: frozenset(), x1: frozenset({m_code})},
        covering={(1, 1): frozenset({m_code, x1}), (2, 1): frozenset()},
        decoded={(1, 1): frozenset(), (2, 1): frozenset({m_code, x1})},
        nonunique={(1, 1): frozenset(), (2, 1): frozenset()},
        nodes=((1, 1), (2, 1)),
        observations={
            (1, 1): frozenset({Var("M")}),
            (2, 1): frozenset({Var("Y2")}),
        },
        rate_of={l0: "r0"},
        message_rate_blocks=1,
    )


def validate_omega(omega: OmegaParameters) -> list[str]:
    """Structural constraint check; returns one entry per violation."""
    violations: list[str] = []
    order = {c: i for i, c in enumerate(omega.codebooks)}

    # A-1: the fresh index sets claimed by each node are disjoint
    claimed: dict[IndexId, Node] = {}
    for node in omega.nodes:
        fresh = omega.gamma_of(omega.covering[node]) - omega.gamma_of(
            omega.decoded[node]
        )
        for l in fresh:
            if l in claimed and claimed[l] != node:
                violations.append(
                    f"A-1: index {l} claimed by both {claimed[l]} and {node}"
                )
            claimed[l] = node

    # A-2: superposition parents use sub-index-sets and come earlier
    for c in omega.codebooks:
        for parent in omega.sup.get(c, frozenset()):
            if not omega.gamma[parent] <= omega.gamma[c]:
                violations.append(f"A-2: gamma of parent {parent} not within {c}")
            if order[parent] >= order[c]:
                violations.append(f"A-2: parent {parent} not earlier than {c}")

    # A-3 and the covering/decoding history containments
    w_hist: set[CodeId] = set()
    for node in omega.nodes:
        w = omega.covering[node]
        d = omega.decoded[node]
        b = omega.nonunique[node]
        for c in w:
            if not omega.sup.get(c, frozenset()) <= (w | d):
                violations.append(f"A-3: parents of covered {c} escape W+D at {node}")
        for c in b:
            if not omega.sup.get(c, frozenset()) <= (d | b):
                violations.append(f"A-3: parents of nonunique {c} escape D+B at {node}")
        for c in d:
            if not omega.sup.get(c, frozenset()) <= d:
                violations.append(f"A-3: parents of decoded {c} escape D at {node}")
        if w & w_hist:
            violations.append(f"covering at {node} reuses earlier codebooks")
        if not d <= w_hist:
            violations.append(f"decoding at {node} references uncovered codebooks")
        if not b <= (w_hist - d):
            violations.append(f"nonunique set at {node} outside W-history minus D")
        w_hist |= w
    return violations
