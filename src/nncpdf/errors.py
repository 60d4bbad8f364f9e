"""Exception hierarchy shared by all nncpdf modules."""


class NncpdfError(Exception):
    """Base class for all library errors."""


class NotNormalized(NncpdfError):
    """A pmf or kernel row does not sum to 1 within tolerance."""


class NegativeMass(NncpdfError):
    """A probability entry is below the negative-mass tolerance."""


class ShapeMismatch(NncpdfError):
    """Array length or alphabet sizes inconsistent with the declared variables."""


class UnknownVariable(NncpdfError):
    """A referenced variable is not part of the distribution."""


class OverlappingSets(NncpdfError):
    """Variable sets of an information term are not pairwise disjoint."""


class CyclicFactorization(NncpdfError):
    """A factor's inputs are not produced by earlier factors."""


class RowNotNormalized(NotNormalized):
    """A conditional kernel row does not sum to 1."""


class StateSpaceTooLarge(NncpdfError):
    """Joint state space exceeds the dense-tensor cap."""


class SchemaError(NncpdfError):
    """A network/scheme document does not match the expected schema."""


class IndexOutOfRange(SchemaError):
    """A node index in a document is outside the valid range."""


class InvalidCut(NncpdfError):
    """A (d, S, T) cut violates S subset T subset [2:N] minus {d}."""


class WrongForm(NncpdfError):
    """A scheme is not in the reduced shape a specialized evaluator requires."""


class WrongN(NncpdfError):
    """An evaluator restricted to a fixed network size got another size."""


class SearchSpaceTooLarge(NncpdfError):
    """Grid search parameter count exceeds the configured cap."""


class NoFeasibleStart(NncpdfError):
    """Coordinate ascent could not find a feasible starting scheme."""


class SideConditionViolated(NncpdfError):
    """A constraint-reduction request violates the reduction side condition."""


class UnsupportedLabeling(NncpdfError):
    """An information term lies outside the recognized variable family."""


class NotAffineInB(NncpdfError):
    """A symbolic coefficient is not affine in the block count."""


class UnassignedAtom(NncpdfError):
    """A region evaluation is missing a value for some information atom."""


class EliminationTooLarge(NncpdfError):
    """A Fourier-Motzkin step produced more inequalities than the cap."""


class LPFailed(NncpdfError):
    """The linear-programming solver failed on a region evaluation."""


class CoefficientOverflow(NncpdfError):
    """A Fourier-Motzkin coefficient would not fit the int64 integer rows."""
