"""Exception types shared across the package."""


class SdsrError(Exception):
    """Base class for every error raised by this package."""


class IoFailure(SdsrError):
    """A file or directory could not be read or written."""


class MalformedFile(SdsrError):
    """A library or document file is not structurally parseable."""


class NoSummary(MalformedFile):
    """The file carries no summary block at all."""


class SummaryNotFirst(MalformedFile):
    """A file's first top-level key is not its summary block."""


class EmptyLibrary(SdsrError):
    """An operation needs at least one category."""


class NameCollision(SdsrError):
    """Injected category names clash with existing ones."""


class UnknownTarget(SdsrError):
    """A high-interference distractor points at a missing category."""


class UnknownCategory(SdsrError):
    """A category name does not resolve inside the library."""


class DanglingComplement(SdsrError):
    """A complement annotation names a category that does not exist."""


class NoFiles(SdsrError):
    """Tier-1 routing was invoked without any summaries."""


class EmptyLoadSet(SdsrError):
    """Tier-2 selection was invoked without any loaded libraries."""


class AllSelectionsInvalid(SdsrError):
    """Every selection the backend produced failed the existence guard."""


class UnknownQuestion(SdsrError):
    """A response line references a question id outside the question set."""


class EmptyKey(SdsrError):
    """Scoring requires a non-empty answer key."""


class EmptyDocument(SdsrError):
    """Sectioning requires non-empty document text."""


class DanglingReference(SdsrError):
    """A cross-reference endpoint names a missing section."""


class TransportError(SdsrError):
    """The remote backend failed at the HTTP level after retries."""
