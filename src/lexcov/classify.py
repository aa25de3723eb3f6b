"""Heuristic categorization of out-of-coverage forms.

Each unknown form gets exactly one of seven categories, decided by an
ordered rule pipeline.  Every rule that fires is recorded as evidence so
the winner can be audited; thresholds live in ClassifierConfig.
"""

from __future__ import annotations

import enum
from collections import Counter, namedtuple

from .automaton import Lexicon
from .dico import DicoResult, TokenStatus
from .errors import ConfigError, LexcovError, decoding
from .preprocess import reform_normalize

PORTUGUESE_ALPHABET = "abcdefghijklmnopqrstuvwxyzáàâãçéêíóôõúü"

_VOWELS = set("aeiouyáàâãéèêíìóòôõúùü")


class Category(enum.Enum):
    TYPING_ERROR = "typing_error"
    OLD_SPELLING = "old_spelling"
    PROPER_NAME = "proper_name"
    ABBREVIATION_ACRONYM = "abbreviation_acronym"
    FOREIGN_OR_SLANG = "foreign_or_slang"
    OTHER_NOUN = "other_noun"
    OTHER = "other"


# bigrams essentially absent from Portuguese spelling; ^/$ anchor to the
# word start/end
DEFAULT_FOREIGN_BIGRAMS = ("th", "sh", "ck", "wh", "gh", "ed$", "^y")

# everyday forms where k/w/y is ordinary Portuguese usage
DEFAULT_FOREIGN_EXCEPTIONS = frozenset(
    {"km", "kg", "kw", "kb", "watt", "watts", "web", "kiwi", "wi"}
)


class CasingProfile(
    namedtuple(
        "CasingProfile",
        "all_lower capitalized all_upper mixed non_initial non_initial_cap",
        defaults=(0,) * 6,
    )
):
    """How a form's occurrences were written in the source text; of them,
    ``non_initial`` were not sentence-initial, ``non_initial_cap`` of
    those capitalized."""

    __slots__ = ()

    @property
    def total(self) -> int:
        return self.all_lower + self.capitalized + self.all_upper + self.mixed

    def ratio(self, count: int) -> float:
        return count / self.total if self.total else 0.0

    @property
    def mid_sentence_cap_ratio(self) -> float:
        return self.non_initial_cap / self.non_initial if self.non_initial else 0.0


class UnknownRecord(namedtuple("UnknownRecord", "form profile evidence", defaults=((),))):
    """A casefolded unknown form and its CasingProfile; :func:`classify`
    adds the evidence, a tuple of (rule, detail) pairs in precedence order.
    The first pair decides the verdict."""

    __slots__ = ()

    @property
    def frequency(self) -> int:
        return self.profile.total

    @property
    def winning_rule(self) -> str | None:
        return self.evidence[0][0] if self.evidence else None

    @property
    def category(self) -> Category:
        return RULE_CATEGORY.get(self.winning_rule, Category.OTHER)

    @property
    def firing_rules(self) -> tuple[str, ...]:
        return tuple(rule for rule, _ in self.evidence)


def _casing_class(text: str) -> str:
    if text == text.lower():
        return "all_lower"
    if len(text) > 1 and text == text.upper():
        return "all_upper"
    if text[0].isupper() and text[1:] == text[1:].lower():
        return "capitalized"
    return "mixed"


def build_unknown_records(dico: DicoResult) -> list[UnknownRecord]:
    """Group a run's unknown token occurrences into per-form records."""
    counts: dict[str, Counter] = {}  # form -> its CasingProfile's fields
    for (text, status, initial), n in dico.word_counts.items():
        if status is not TokenStatus.UNKNOWN:
            continue
        fields = counts.setdefault(text.casefold(), Counter())
        fields[_casing_class(text)] += n
        if not initial:
            fields["non_initial"] += n
            if text[0].isupper():
                fields["non_initial_cap"] += n
    return [UnknownRecord(form, CasingProfile(**fields)) for form, fields in sorted(counts.items())]


def _split_candidates(form, lexicons, min_part):
    for i in range(min_part, len(form) - min_part + 1):
        left, right = form[:i], form[i:]
        if any(left in lex for lex in lexicons) and any(
            right in lex for lex in lexicons
        ):
            yield left, right


def classify(
    records: list[UnknownRecord],
    lex_new: Lexicon,
    lex_old: Lexicon | None = None,
    config: ClassifierConfig | None = None,
) -> list[UnknownRecord]:
    """Give every record the evidence of each rule that fires on it, in
    precedence order; the first decides its category."""
    config = config or ClassifierConfig()
    lexicons = [lex_new] + ([lex_old] if lex_old is not None else [])
    out = []
    for record in records:
        fired = {}
        for rule in config.precedence:
            detail = _RULES[rule][1](record, lexicons, lex_new, config)
            if detail is not None:
                fired[rule] = detail
        out.append(record._replace(evidence=tuple(fired.items())))
    return out


def _rule_acr(record, lexicons, lex_new, config):
    form = record.form
    prof = record.profile
    if (
        config.acr_min_len <= len(form) <= config.acr_max_len
        and prof.ratio(prof.all_upper) >= config.upper_ratio
    ):
        return f"all-uppercase in {prof.all_upper}/{prof.total} occurrences"
    if form and not any(ch in _VOWELS for ch in form):
        return "vowel-free form"
    if form in config.acronyms:
        return "listed acronym"
    return None


def _rule_old(record, lexicons, lex_new, config):
    reformed = reform_normalize(record.form)
    if reformed != record.form and reformed in lex_new:
        return f"reform spelling {reformed!r} is in the new dictionary"
    return None


def _rule_prop(record, lexicons, lex_new, config):
    prof = record.profile
    if prof.non_initial >= 1 and prof.mid_sentence_cap_ratio >= config.prop_ratio:
        return (
            f"capitalized mid-sentence in {prof.non_initial_cap}/{prof.non_initial}"
            " occurrences"
        )
    return None


def _rule_typo(record, lexicons, lex_new, config):
    form = record.form
    for lex in lexicons:
        for cand in lex.within_one_edit(form, PORTUGUESE_ALPHABET):
            if len(cand) >= config.typo_min_form_len:
                return f"edit distance 1 to {cand!r}"
    for left, right in _split_candidates(form, lexicons, config.typo_split_min_part):
        return f"splits into {left!r} + {right!r}"
    return None


def _rule_foreign(record, lexicons, lex_new, config):
    form = record.form
    if form not in config.foreign_exceptions and any(ch in "kwy" for ch in form):
        return "contains k/w/y"
    for bigram in config.foreign_bigrams:
        if bigram.startswith("^"):
            if form.startswith(bigram[1:]):
                return f"starts with {bigram[1:]!r}"
        elif bigram.endswith("$"):
            if form.endswith(bigram[:-1]):
                return f"ends with {bigram[:-1]!r}"
        elif bigram in form:
            return f"contains {bigram!r}"
    return None


def _rule_noun(record, lexicons, lex_new, config):
    prof = record.profile
    if (
        len(record.form) >= config.noun_min_len
        and prof.ratio(prof.all_lower) >= config.noun_ratio
    ):
        return f"all-lowercase in {prof.all_lower}/{prof.total} occurrences"
    return None


# each rule in default precedence order, with the category it assigns
# and its test, which returns the evidence when the rule fires
_RULES = {
    "R-acr": (Category.ABBREVIATION_ACRONYM, _rule_acr),
    "R-old": (Category.OLD_SPELLING, _rule_old),
    "R-prop": (Category.PROPER_NAME, _rule_prop),
    "R-typo": (Category.TYPING_ERROR, _rule_typo),
    "R-foreign": (Category.FOREIGN_OR_SLANG, _rule_foreign),
    "R-noun": (Category.OTHER_NOUN, _rule_noun),
}
RULE_CATEGORY = {rule: category for rule, (category, _) in _RULES.items()}
DEFAULT_PRECEDENCE = tuple(_RULES)


# each setting of the classifier, with its default; a config file gives
# a setting a value of its default's type
_CONFIG_DEFAULTS = {
    "precedence": DEFAULT_PRECEDENCE,
    "acr_min_len": 2,
    "acr_max_len": 6,
    "upper_ratio": 0.9,
    "prop_ratio": 0.9,
    "typo_min_form_len": 5,
    "typo_split_min_part": 2,
    "noun_ratio": 0.9,
    "noun_min_len": 4,
    "acronyms": frozenset(),
    "foreign_bigrams": DEFAULT_FOREIGN_BIGRAMS,
    "foreign_exceptions": DEFAULT_FOREIGN_EXCEPTIONS,
}


class ClassifierConfig(
    namedtuple("ClassifierConfig", _CONFIG_DEFAULTS, defaults=_CONFIG_DEFAULTS.values())
):
    """The classifier's thresholds and word lists (docs/classifier.md);
    an unknown rule id in ``precedence`` raises ConfigError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for rule in self.precedence:
            if rule not in RULE_CATEGORY:
                raise ConfigError(f"unknown rule id in precedence list: {rule!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def write_classification_tsv(records: list[UnknownRecord], path) -> None:
    rows = []
    for r in records:
        rows.append(
            "\t".join(
                (
                    r.form,
                    str(r.frequency),
                    r.category.value,
                    r.winning_rule or "",
                    ",".join(r.firing_rules),
                    "; ".join(f"{rule}: {detail}" for rule, detail in r.evidence),
                )
            )
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(row + "\n" for row in rows))


def category_histogram(records: list[UnknownRecord]) -> dict[str, int]:
    hist = {c.value: 0 for c in Category}
    for r in records:
        hist[r.category.value] += 1
    return hist


# -- config file ------------------------------------------------------------

# each word-list key, naming a file, and the setting it gives its words
_WORD_LISTS = {
    "acronym_list": "acronyms",
    "bigram_list": "foreign_bigrams",
    "exception_list": "foreign_exceptions",
}


def load_classifier_config(path) -> ClassifierConfig:
    """Key/value config: ``key = value`` lines, ``#`` comments, lists in
    ``[a, b]`` form, word-list values naming files (one word per line)."""
    kwargs = {}
    precedence_line = None  # ClassifierConfig checks the rule ids this line set
    with open(path, encoding="utf-8-sig") as fh, decoding(path):
        for line_number, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{line_number}: expected 'key = value'")
            key = key.strip()
            value = value.strip().strip('"')
            kind = type(_CONFIG_DEFAULTS.get(key))
            if key not in _WORD_LISTS and kind not in (int, float, tuple):
                raise ConfigError(f"{path}:{line_number}: unknown key {key!r}")
            try:
                if key in _WORD_LISTS:
                    with open(value, encoding="utf-8-sig") as wf, decoding(value):
                        words = {w.strip().casefold() for w in wf if w.strip()}
                    name = _WORD_LISTS[key]
                    kwargs[name] = type(_CONFIG_DEFAULTS[name])(sorted(words))
                elif kind is tuple:
                    if key == "precedence":
                        precedence_line = line_number
                    items = [v.strip().strip('"') for v in value.strip("[]").split(",")]
                    kwargs[key] = tuple(i for i in items if i)
                else:
                    kwargs[key] = kind(value)
            except LexcovError as exc:
                # a word list that is not UTF-8: named first, as every such
                # input is, then the line that names it
                raise ConfigError(f"{exc} ({key} at {path}:{line_number})") from None
            except (ValueError, OSError) as exc:
                raise ConfigError(f"{path}:{line_number}: {exc}") from None
    try:
        return ClassifierConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}:{precedence_line}: {exc}") from None
