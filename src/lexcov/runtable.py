"""The types of an apply run's table, and its types.tsv reader: what
``coverage --run`` needs to read a run back.  Only ``enum``,
``collections`` and ``errors`` are imported here, so that such a command
loads neither the automaton nor the tokenizer.  ``automaton`` imports the
case policies from here, ``preprocess`` the str enum and ``dico`` the
rest, and each module re-exports what it imports."""

from __future__ import annotations

import enum
from collections import Counter, namedtuple

from .errors import MalformedAnnotations, decoding


class CaseFoldPolicy(enum.Enum):
    EXACT = "exact"
    UNITEX_LIKE = "unitex_like"
    FULL_FOLD = "full_fold"


class _StrEnum(str, enum.Enum):
    """An enum whose members are str, equal to their values, so a key
    holding them hashes at C speed.  ``str()`` and ``format()`` give
    ``Class.MEMBER``, as a plain enum's do, on every Python version."""

    def __str__(self):
        return f"{type(self).__name__}.{self.name}"

    def __format__(self, spec):
        return format(str(self), spec)


class TokenStatus(_StrEnum):
    """A word token's status."""

    KNOWN_SIMPLE = "known_simple"
    IN_COMPOUND_ONLY = "in_compound_only"
    UNKNOWN = "unknown"


class DicoResult(namedtuple("DicoResult", "policy dlf dlc word_counts sentence_count")):
    """The ``dlf`` entry set and ``dlc`` entry counts of a run, and its
    ``word_counts``: word tokens counted by (text, status,
    sentence_initial), the one table every per-type measure of a run is
    read from.  ``sentence_count`` is 1 + the largest sentence index
    applied (0 before any token).  The tables default to new empty ones."""

    __slots__ = ()

    def __new__(cls, policy, dlf=None, dlc=None, word_counts=None, sentence_count=0):
        return super().__new__(
            cls,
            policy,
            set() if dlf is None else dlf,
            {} if dlc is None else dlc,
            Counter() if word_counts is None else word_counts,
            sentence_count,
        )

    @property
    def err(self) -> set[str]:
        return {
            text for text, status, _ in self.word_counts if status is TokenStatus.UNKNOWN
        }

    def status_counts(self) -> dict[TokenStatus, int]:
        counts = dict.fromkeys(TokenStatus, 0)
        for (_, status, _), n in self.word_counts.items():
            counts[status] += n
        return counts

    @property
    def word_token_count(self) -> int:
        return sum(self.word_counts.values())


# the status and sentence-initial flag columns of a types.tsv row -> their values
_STATUSES = {status.value: status for status in TokenStatus}
_FLAGS = {"0": False, "1": True}


def read_types(path) -> Counter[tuple[str, TokenStatus, bool]]:
    """Read a run's types.tsv back into its ``word_counts`` table; a leading
    BOM is dropped."""
    word_counts = Counter()
    with open(path, encoding="utf-8-sig") as fh, decoding(path):
        for line_number, line in enumerate(fh, 1):
            row = line.rstrip("\n").split("\t")
            if len(row) != 4:
                found = f"expected 4 tab-separated fields, found {len(row)}"
                raise MalformedAnnotations(f"{path}, line {line_number}: {found}")
            text, status_column, flag, count = row
            status, initial = _STATUSES.get(status_column), _FLAGS.get(flag)
            try:
                n = int(count) if count.isascii() and count.isdigit() else 0
            except ValueError:  # more digits than int() converts
                n = 0
            if not text:
                problem = "empty text"
            elif status is None:
                problem = f"unknown status {status_column!r}"
            elif initial is None:
                problem = f"sentence-initial flag {flag!r} is not 0 or 1"
            elif n < 1:
                problem = f"count {count!r} is not a positive integer"
            elif (text, status, initial) in word_counts:
                problem = f"repeats the key {text!r}, {status_column}, {flag} of an earlier row"
            else:
                word_counts[text, status, initial] = n
                continue
            raise MalformedAnnotations(f"{path}, line {line_number}: {problem}")
    return word_counts
