"""Exception taxonomy shared by all fingeo modules."""


class FingeoError(Exception):
    """Base class for all library errors."""


class DivisionByZero(FingeoError, ZeroDivisionError):
    pass


class InvalidArgument(FingeoError, ValueError):
    """An argument outside the values a function takes."""


class InvalidArgumentType(FingeoError, TypeError):
    """An argument of a type a function cannot interpret."""


class ReadOnlyField(FingeoError, AttributeError):
    """An assignment to a field of an immutable record."""


class FieldMismatch(FingeoError):
    pass


class SizeLimit(FingeoError):
    """Requested object is beyond the supported desk scale."""


class NotGenerating(FingeoError):
    pass


class PreconditionLinesTooShort(FingeoError):
    pass


class NotConstantOnClasses(FingeoError):
    pass


class NotAMorphism(FingeoError):
    """A partial map is undefined off its exceptional flat, or its
    restriction pulls a flat back to a non-flat."""


class NotProjective(FingeoError):
    pass


class ZeroMap(FingeoError):
    pass


class DimensionTooLow(FingeoError):
    pass


class EqualHyperplanes(FingeoError):
    pass


class NoEmbedding(FingeoError):
    pass


class NoIrreducibleForm(FingeoError):
    pass


class NotAffinoProjective(FingeoError):
    pass


class ImageInLine(FingeoError):
    pass


class ImageInPlane(FingeoError):
    pass


class ExceptionalNotFlat(FingeoError):
    pass


class SigmaNotHomomorphism(FingeoError):
    pass


class VerificationFailed(FingeoError):
    """A reconstructed map disagrees with its input; the failing point is in args."""


class InternalContradiction(FingeoError):
    """A condition guaranteed by the input's preconditions failed anyway."""


class NoBasePair(FingeoError):
    pass


class NotEnoughPoints(FingeoError):
    """A plane of the geometry has no quadrilateral."""


class FieldClauseViolated(FingeoError):
    pass


class InconsistentExtension(FingeoError):
    pass


class ReductionsDisagree(FingeoError):
    pass


class LiftInconsistent(FingeoError):
    pass


class NotProportional(FingeoError):
    pass


class CapExceeded(FingeoError):
    pass


class FileFormatError(FingeoError):
    pass
