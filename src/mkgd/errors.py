"""Exception types shared across the package."""


class MkgdError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(MkgdError):
    """Tensor shapes are incompatible with the requested operation."""


class NumericError(MkgdError):
    """A computation produced a non-finite value."""


class ContractError(MkgdError):
    """A caller violated an operation's precondition."""


class VocabError(MkgdError):
    """A token index is outside the vocabulary."""


class DataError(MkgdError):
    """Input data is malformed or insufficient."""
