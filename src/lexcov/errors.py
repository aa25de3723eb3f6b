"""Exception types shared across the package."""

from contextlib import contextmanager


class LexcovError(Exception):
    """Base class for all errors raised by this package."""


class MalformedEntry(LexcovError):
    """A DELAF line does not match the entry grammar.

    Carries the offending line, the column where parsing failed, and
    (when known) the 1-based line number in the source file and its
    ``path``, which the message leaves out.
    """

    def __init__(self, message, line, column, line_number=None):
        self.line = line
        self.column = column
        self.line_number = line_number
        self.path = None
        where = f"line {line_number}, " if line_number is not None else ""
        super().__init__(f"{where}col {column}: {message}: {line!r}")


class EmptyLexicon(LexcovError):
    """Compilation was attempted with zero entries."""


class FormatVersionMismatch(LexcovError):
    """A saved lexicon file uses an unsupported format version."""


class CorruptFile(LexcovError):
    """A saved lexicon file failed structural or checksum validation."""


class MalformedAnnotations(LexcovError):
    """A row of a run's types.tsv cannot be read back."""


class MalformedReplacements(LexcovError):
    """A line of a replacement table is not a form and its replacement."""


class MalformedManifest(LexcovError):
    """A run's run.json, or a row of a --counts file, lacks a key or holds
    an unknown value for it."""


class PolicyMismatch(LexcovError):
    """Results produced under different case policies cannot be merged."""


class MismatchedCorpus(LexcovError):
    """Coverage reports refer to different corpora and cannot be compared."""


class ConfigError(LexcovError):
    """A classifier configuration file is invalid."""


@contextmanager
def decoding(path):
    """Re-raise a UnicodeDecodeError of the block as a LexcovError naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise LexcovError(f"{path}: {exc}") from None
