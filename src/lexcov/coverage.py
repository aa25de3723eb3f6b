"""Coverage percentages, version deltas, dictionary diffs.

Percentages are computed exactly and rounded half-up to two decimals,
matching how the coverage tables are conventionally printed.  ``decimal``
is imported in :func:`pct` and :func:`mean_delta`, which make every Decimal
here, so that the commands that print no percentage do not load it.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .delaf import DictFile
from .dico import DicoResult, TokenStatus
from .errors import MismatchedCorpus


def pct(part: int, total: int) -> Decimal:
    """100*part/total rounded half-up to two decimals (0.00 if total is 0)."""
    from decimal import ROUND_HALF_UP, Decimal

    if total == 0:
        return Decimal("0.00")
    return (Decimal(part) * 100 / Decimal(total)).quantize(Decimal("0.01"), ROUND_HALF_UP)


class CoverageReport(
    namedtuple(
        "CoverageReport",
        "corpus_id dict_id types_total types_unknown tokens_total tokens_unknown",
    )
):
    """The types and tokens of a corpus, and how many of each no
    dictionary entry covers."""

    __slots__ = ()

    @property
    def pct_types_unknown(self) -> Decimal:
        return pct(self.types_unknown, self.types_total)

    @property
    def pct_tokens_unknown(self) -> Decimal:
        return pct(self.tokens_unknown, self.tokens_total)

    def to_dict(self) -> dict:
        return {
            "corpus_id": self.corpus_id,
            "dict_id": self.dict_id,
            "types_total": self.types_total,
            "types_unknown": self.types_unknown,
            "pct_types_unknown": str(self.pct_types_unknown),
            "tokens_total": self.tokens_total,
            "tokens_unknown": self.tokens_unknown,
            "pct_tokens_unknown": str(self.pct_tokens_unknown),
        }


def coverage_from_dico(
    dico: DicoResult, *, cased: bool = False, corpus_id: str = "", dict_id: str = ""
) -> CoverageReport:
    """Coverage of the corpus a dictionary application annotated, its types
    casefolded unless ``cased``.  A type counts as unknown when none of its
    token occurrences received an analysis or compound cover."""
    tokens_by_type = {}
    known = set()
    for (text, status, _), n in dico.word_counts.items():
        form = text if cased else text.casefold()
        tokens_by_type[form] = tokens_by_type.get(form, 0) + n
        if status is not TokenStatus.UNKNOWN:
            known.add(form)
    unknown = [n for form, n in tokens_by_type.items() if form not in known]
    return CoverageReport(
        corpus_id,
        dict_id,
        len(tokens_by_type),
        len(unknown),
        sum(tokens_by_type.values()),
        sum(unknown),
    )


class VersionDelta(namedtuple("VersionDelta", "corpus_id delta_types_pp delta_tokens_pp")):
    """Improvement from an old to a new dictionary version, in percentage
    points of unknown types/tokens (positive means the new one covers more),
    as Decimals."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "corpus_id": self.corpus_id,
            "delta_types_pp": str(self.delta_types_pp),
            "delta_tokens_pp": str(self.delta_tokens_pp),
        }


def compare_versions(r_old: CoverageReport, r_new: CoverageReport) -> VersionDelta:
    if r_old.corpus_id != r_new.corpus_id:
        raise MismatchedCorpus(f"{r_old.corpus_id!r} vs {r_new.corpus_id!r}")
    return VersionDelta(
        corpus_id=r_old.corpus_id,
        delta_types_pp=r_old.pct_types_unknown - r_new.pct_types_unknown,
        delta_tokens_pp=r_old.pct_tokens_unknown - r_new.pct_tokens_unknown,
    )


def mean_delta(deltas: list[Decimal]) -> Decimal:
    from decimal import ROUND_HALF_UP, Decimal

    if not deltas:
        return Decimal("0.00")
    return (sum(deltas) / len(deltas)).quantize(Decimal("0.01"), ROUND_HALF_UP)


class DictDiff(namedtuple("DictDiff", "only_in_a only_in_b common fold_mode")):
    """The sorted forms only in version A and only in version B, and how
    many both have, with forms ``folded`` or ``cased`` as ``fold_mode``
    says."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def diff_dictionaries(a: list[DictFile], b: list[DictFile], *, cased: bool = False) -> DictDiff:
    """Set comparison of unique surface forms of two dictionary versions,
    casefolded unless ``cased``."""

    def forms(files):
        out = set()
        for f in files:
            # an entry is a DictEntry or a plain 5-tuple; the form is first
            form_of = map(itemgetter(0), f.entries)
            out.update(form_of if cased else map(str.casefold, form_of))
        return out

    fa, fb = forms(a), forms(b)
    return DictDiff(
        only_in_a=sorted(fa - fb),
        only_in_b=sorted(fb - fa),
        common=len(fa & fb),
        fold_mode="cased" if cased else "folded",
    )


# -- rendering --------------------------------------------------------------

def format_int(value: int, locale: str = "plain") -> str:
    if locale == "pt-BR":
        return f"{value:,}".replace(",", ".")
    return str(value)


def format_decimal(value: Decimal, locale: str = "plain") -> str:
    """``value`` to two decimals, with a decimal comma under pt-BR."""
    text = f"{value:.2f}"
    return text.replace(".", ",") if locale == "pt-BR" else text


def format_pct(value: Decimal, locale: str = "plain") -> str:
    return format_decimal(value, locale) + "%"


def render_coverage_text(report: CoverageReport, locale: str = "plain") -> str:
    lines = [
        f"corpus:          {report.corpus_id}",
        f"dictionary:      {report.dict_id}",
        f"types:           {format_int(report.types_total, locale)}",
        f"unknown types:   {format_int(report.types_unknown, locale)}"
        f" ({format_pct(report.pct_types_unknown, locale)})",
        f"tokens:          {format_int(report.tokens_total, locale)}",
        f"unknown tokens:  {format_int(report.tokens_unknown, locale)}"
        f" ({format_pct(report.pct_tokens_unknown, locale)})",
    ]
    return "\n".join(lines)


def render_delta_text(delta: VersionDelta, locale: str = "plain") -> str:
    return "\n".join(
        [
            f"corpus:         {delta.corpus_id}",
            f"types delta:    {format_decimal(delta.delta_types_pp, locale)} pp",
            f"tokens delta:   {format_decimal(delta.delta_tokens_pp, locale)} pp",
        ]
    )


def render_diff_text(diff: DictDiff) -> str:
    lines = [f"common forms: {diff.common} (fold: {diff.fold_mode})"]
    lines.append(f"only in A ({len(diff.only_in_a)}):")
    lines.extend(f"  {form}" for form in diff.only_in_a)
    lines.append(f"only in B ({len(diff.only_in_b)}):")
    lines.extend(f"  {form}" for form in diff.only_in_b)
    return "\n".join(lines)
