"""Exception hierarchy shared across the toolkit."""


class DeepA2Error(Exception):
    """Base class for all toolkit errors."""


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of an immutable value."""


class MissingDimensionError(DeepA2Error):
    """A record dimension required by an operation is absent."""


class DimensionParseError(DeepA2Error):
    """A serialized dimension value could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class FormulaParseError(DimensionParseError):
    """A formula string violates the formula grammar."""


class UnsupportedFragmentError(DeepA2Error):
    """A formula falls outside the decidable fragment handled here."""


class ArgdownParseError(DimensionParseError):
    """An argument reconstruction block is malformed."""


class CatalogError(DeepA2Error):
    """An inference-scheme catalog entry is invalid."""


class ChainDefinitionError(DeepA2Error):
    """A generative chain references a dimension no prior mode produces."""


class GenerationError(DeepA2Error):
    """The corpus generator could not produce a valid record."""


class ImportFormatError(DeepA2Error):
    """An external dataset record is malformed."""


class BackendError(DeepA2Error):
    """A model backend failed to produce output."""


class BackendUnavailableError(BackendError):
    """The backend stayed unreachable after exhausting the retry budget."""


class ConfigError(DeepA2Error):
    """A configuration file or CLI argument is invalid."""


class UndefinedMetricError(DeepA2Error):
    """A corpus-level metric was requested on an empty collection."""
