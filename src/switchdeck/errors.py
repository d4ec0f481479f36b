"""Exception types raised by the public API.

There is one class for each way a caller handles an error: the CLI maps
each class to its own exit code, and library code catches only the classes
named here.  Add a class only for a new way of handling an error; a new
check that callers treat like an existing one raises that class with its
own message.
"""


class SwitchDeckError(ValueError):
    """Base class for all errors raised by this package; the CLI exits 2 on
    it unless a subclass below names another code."""


class OutOfRange(SwitchDeckError):
    """An order, vertex, t value, class label or shard outside what is
    supported (CLI exit 2)."""


class HypothesisUnmet(SwitchDeckError):
    """An input that breaks the hypothesis of the call: malformed digraph6,
    a loop or forbidden digon, mismatched lengths or orders, a disconnected
    graph where a connected one is needed, isomorphic inputs where distinct
    ones are needed, and the like (CLI exit 2)."""


class CardAbsent(SwitchDeckError):
    """A t = -1 deck of a graph whose deck holds no copy of the graph itself;
    census grouping and matching_t skip such a t (CLI exit 4)."""


class HeavyFlagRequired(SwitchDeckError):
    """A range above the default order ceiling without heavy=True or
    --heavy (CLI exit 3)."""


class DichotomyViolated(SwitchDeckError):
    """A disconnected same-deck pair fits neither option of the paper's
    dichotomy, or a family member joins two non-isomorphic
    switching-adjacent components (CLI exit 5)."""
