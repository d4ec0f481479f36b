"""Exception types raised by the public API."""


class SwitchDeckError(ValueError):
    """Base class for all errors raised by this package."""


# graph construction and codecs

class VertexOutOfRange(SwitchDeckError):
    pass


class LoopArc(SwitchDeckError):
    pass


class DigonViolation(SwitchDeckError):
    pass


class LengthMismatch(SwitchDeckError):
    pass


class NotConnected(SwitchDeckError):
    pass


class MalformedHeader(SwitchDeckError):
    pass


class TruncatedBits(SwitchDeckError):
    pass


# orders, t values and shards outside what is supported

class OutOfRange(SwitchDeckError):
    pass


# decks

class CardAbsent(SwitchDeckError):
    pass


class IsomorphicInputs(SwitchDeckError):
    pass


class OrderMismatch(SwitchDeckError):
    pass


# stability and switching-isomorphism solving

class EmptySet(SwitchDeckError):
    pass


class MixedUnderlying(SwitchDeckError):
    pass


class NotUnderlyingAut(SwitchDeckError):
    pass


# cycle analysis

class WUndefined(SwitchDeckError):
    pass


class HypothesisUnmet(SwitchDeckError):
    pass


# census pipelines

class HeavyFlagRequired(SwitchDeckError):
    pass


class UniverseNotClosed(SwitchDeckError):
    pass


class NotDisconnected(SwitchDeckError):
    pass


class DichotomyViolated(SwitchDeckError):
    pass
