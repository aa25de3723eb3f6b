"""Raw-text preprocessing: delimiter normalization, tokenization,
sentence segmentation, and the 1990-Agreement spelling normalizer.

Tokenization is lossless: concatenating token texts reproduces the input
byte-for-byte.  Word tokens are maximal runs of Unicode letters, number
tokens maximal digit runs, whitespace runs become single space tokens,
and every other character is its own punct token.

A tokenized text is a :class:`TokenStream` of parallel columns, one entry
per token, after Unitex's ``Tokenize``: no Python object is made per
token unless a caller asks for :class:`Token` views.
"""

from __future__ import annotations

import enum
import re
import unicodedata
from bisect import bisect_left
from itertools import accumulate, compress, count, repeat
from operator import itemgetter

from .errors import MalformedReplacements, decoding

_CRLF_RE = re.compile(r"\r\n?")
# C0 and C1 controls other than \t and \n, and DEL
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b-\x1f\x7f-\x9f]+")
_HSPACE_RE = re.compile(r"[^\S\n]+")

# word | number | whitespace | anything else (one char); a token's first
# character decides which alternative matches it
_TOKEN_ALTERNATIVES = (r"[^\W\d_]+", r"\d+", r"\s+", r".")
_TOKEN_RE = re.compile("|".join(_TOKEN_ALTERNATIVES), re.DOTALL)
_GROUPED_TOKEN_RE = re.compile("|".join(f"({a})" for a in _TOKEN_ALTERNATIVES), re.DOTALL)

_TERMINATORS = frozenset({".", "!", "?", "…"})


class _StrEnum(str, enum.Enum):
    """An enum whose members are str, equal to their values, so a key
    holding them hashes at C speed.  ``str()`` and ``format()`` give
    ``Class.MEMBER``, as a plain enum's do, on every Python version."""

    def __str__(self):
        return f"{type(self).__name__}.{self.name}"

    def __format__(self, spec):
        return format(str(self), spec)


class TokenKind(_StrEnum):
    """A token's kind."""

    WORD = "word"
    NUMBER = "number"
    PUNCT = "punct"
    SPACE = "space"


# the kinds of _TOKEN_ALTERNATIVES, in order
_KIND_OF_GROUP = (None, TokenKind.WORD, TokenKind.NUMBER, TokenKind.SPACE, TokenKind.PUNCT)


class _KindOfFirst(dict):
    """A token's first character -> the token's kind, found the first time
    the character is seen by the grouped pattern, so that it agrees with
    the pattern that split the text; one entry per distinct character."""

    def __missing__(self, ch):
        kind = self[ch] = _KIND_OF_GROUP[_GROUPED_TOKEN_RE.match(ch).lastindex]
        return kind


_KIND_OF_FIRST = _KindOfFirst()
_FIRST = itemgetter(0)


def token_columns(text: str) -> tuple[list[TokenKind], list[str]]:
    """The kinds and the texts of ``text``'s tokens, in order."""
    texts = _TOKEN_RE.findall(text)
    return list(map(_KIND_OF_FIRST.__getitem__, map(_FIRST, texts))), texts


class TokenStream:
    """One text's tokens as parallel columns, one entry per token:

    - ``kinds``: the :class:`TokenKind` of each token;
    - ``texts``: each token's text;
    - ``sentence_indices``: each token's sentence, ascending, 0 until
      :func:`segment_sentences` fills it;
    - ``initial_positions``: the ascending positions of the
      sentence-initial word tokens.

    :meth:`byte_spans` gives each token's UTF-8 byte span in the text it
    was tokenized from, computed on request.  :attr:`tokens` is a list of
    :class:`Token` views, made on each read.  ``TokenStream(tokens=[
    Token(...), ...])`` builds a stream from tokens and takes them over:
    they become views of its columns.
    """

    def __init__(self, tokens=()):
        tokens = list(tokens)
        self.kinds = [t.kind for t in tokens]
        self.texts = [t.text for t in tokens]
        self.sentence_indices = [t.sentence_index for t in tokens]
        self.initial_positions = [i for i, t in enumerate(tokens) if t.sentence_initial]
        self._byte_spans = [t.byte_span for t in tokens]
        self._source = None
        for i, tok in enumerate(tokens):
            tok._stream, tok._i = self, i

    def _fields(self):
        return (
            self.kinds, self.texts, self.byte_spans(), self.sentence_indices,
            self.initial_positions,
        )

    def __eq__(self, other):
        if not isinstance(other, TokenStream):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        return f"TokenStream(tokens={self.tokens!r})"

    @classmethod
    def _of_columns(cls, kinds, texts, *, source=None, byte_spans=None):
        stream = cls.__new__(cls)
        stream.kinds = kinds
        stream.texts = texts
        stream.sentence_indices = [0] * len(texts)
        stream.initial_positions = []
        stream._byte_spans = byte_spans
        stream._source = source
        return stream

    def byte_spans(self) -> list[tuple[int, int]]:
        """Each token's (start, end) UTF-8 byte offsets in the text it was
        tokenized from; computed on the first call."""
        if self._byte_spans is None:
            # the source's own pieces: apply_replacements may have changed texts
            pieces = _TOKEN_RE.findall(self._source)
            ends = list(accumulate(map(len, map(str.encode, pieces))))
            self._byte_spans = list(zip([0, *ends], ends))
        return self._byte_spans

    @property
    def tokens(self) -> list[Token]:
        """The stream as a list of :class:`Token` views, made on each read;
        read it once and keep the list, as each read costs O(n)."""
        return [Token._at(self, i) for i in range(len(self.texts))]

    def word_tokens(self) -> list[Token]:
        return [Token._at(self, i) for i, k in enumerate(self.kinds) if k is TokenKind.WORD]


def _column(name):
    """A Token field that reads and sets the stream column ``name``."""

    def get(token):
        return getattr(token._stream, name)[token._i]

    def set(token, value):
        getattr(token._stream, name)[token._i] = value

    return property(get, set)


class Token:
    """One token of a :class:`TokenStream`: a view of one position of its
    columns, so reading a field reads the column and setting it sets the
    column.  ``Token(kind, text, byte_span)`` makes a token of its own,
    until a TokenStream is built from it."""

    __slots__ = ("_stream", "_i")

    def __init__(self, kind, text, byte_span, sentence_index=0, sentence_initial=False):
        stream = TokenStream._of_columns([kind], [text], byte_spans=[byte_span])
        stream.sentence_indices[0] = sentence_index
        if sentence_initial:
            stream.initial_positions.append(0)
        self._stream, self._i = stream, 0

    @classmethod
    def _at(cls, stream, i):
        tok = cls.__new__(cls)
        tok._stream, tok._i = stream, i
        return tok

    kind = _column("kinds")
    text = _column("texts")
    sentence_index = _column("sentence_indices")

    @property
    def byte_span(self) -> tuple[int, int]:
        return self._stream.byte_spans()[self._i]

    @byte_span.setter
    def byte_span(self, value):
        self._stream.byte_spans()[self._i] = value

    @property
    def sentence_initial(self) -> bool:
        positions = self._stream.initial_positions
        at = bisect_left(positions, self._i)
        return at < len(positions) and positions[at] == self._i

    @sentence_initial.setter
    def sentence_initial(self, value):
        positions = self._stream.initial_positions
        at = bisect_left(positions, self._i)
        present = at < len(positions) and positions[at] == self._i
        if value and not present:
            positions.insert(at, self._i)
        elif present and not value:
            del positions[at]

    def _fields(self):
        return (self.kind, self.text, self.byte_span, self.sentence_index, self.sentence_initial)

    def __eq__(self, other):
        if not isinstance(other, Token):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        kind, text, span, index, initial = self._fields()
        return (
            f"Token(kind={kind!r}, text={text!r}, byte_span={span!r},"
            f" sentence_index={index!r}, sentence_initial={initial!r})"
        )


def normalize_delimiters(raw: str) -> str:
    """Normalize a raw text: NFC, LF line endings, single spaces,
    control characters (other than LF) removed."""
    text = unicodedata.normalize("NFC", raw)
    text = _CRLF_RE.sub("\n", text)
    text = _CONTROL_RE.sub("", text)
    text = _HSPACE_RE.sub(" ", text)
    return text


def tokenize(text: str) -> TokenStream:
    """Split a normalized text into word/number/punct/space tokens."""
    kinds, texts = token_columns(text)
    return TokenStream._of_columns(kinds, texts, source=text)


def _normalize_abbreviations(abbreviations) -> set[str]:
    return {a.strip().rstrip(".").casefold() for a in abbreviations if a.strip()}


def load_abbreviation_list(path) -> set[str]:
    """One abbreviation per line, trailing dot optional."""
    with open(path, encoding="utf-8-sig") as fh, decoding(path):
        return _normalize_abbreviations(fh)


def segment_sentences(stream: TokenStream, abbreviations=()) -> TokenStream:
    """Fill the stream's sentence indices and initial positions in place.

    A boundary follows ``.``/``!``/``?``/``…`` when the next word token is
    uppercase-initial (or the text ends).  A period preceded by a single
    uppercase letter or a listed abbreviation does not end a sentence.
    """
    abbrevs = _normalize_abbreviations(abbreviations)
    kinds, texts = stream.kinds, stream.texts
    n = len(texts)
    # the position of each sentence's first token, and n
    starts = [0]
    for i in compress(count(), map(_TERMINATORS.__contains__, texts)):
        if kinds[i] is not TokenKind.PUNCT:
            continue
        if texts[i] == "." and _is_abbreviation_dot(kinds, texts, i, abbrevs):
            continue
        if _starts_new_sentence(kinds, texts, i):
            starts.append(i + 1)
    starts.append(n)
    indices = []
    initial = []
    for s, (start, stop) in enumerate(zip(starts, starts[1:])):
        indices.extend(repeat(s, stop - start))
        try:
            initial.append(kinds.index(TokenKind.WORD, start, stop))
        except ValueError:
            pass  # a sentence with no word
    stream.sentence_indices = indices
    stream.initial_positions = initial
    return stream


def _is_abbreviation_dot(kinds, texts, i, abbrevs) -> bool:
    if i == 0 or kinds[i - 1] is not TokenKind.WORD:
        return False
    prev = texts[i - 1]
    if len(prev) == 1 and prev.isupper():
        return True
    return prev.casefold() in abbrevs


def _starts_new_sentence(kinds, texts, i) -> bool:
    for j in range(i + 1, len(texts)):
        kind = kinds[j]
        if kind is TokenKind.SPACE:
            continue
        if kind is TokenKind.PUNCT and texts[j] in _TERMINATORS:
            # terminator runs ("?!", "...") end one sentence, at the last mark
            return False
        if kind is TokenKind.WORD:
            return texts[j][0].isupper()
        return False
    return True  # end of text


def apply_replacements(stream: TokenStream, table: dict[str, str]) -> TokenStream:
    """Replace word-token texts via a lookup table (unambiguous-form hook)."""
    if table:
        kinds, texts = stream.kinds, stream.texts
        for i in compress(count(), map(table.__contains__, texts)):
            if kinds[i] is TokenKind.WORD:
                texts[i] = table[texts[i]]
    return stream


def load_replacement_table(path) -> dict[str, str]:
    """Two-column TSV: source form, replacement.

    Raises MalformedReplacements for a non-blank line that is not exactly
    two non-empty tab-separated fields: a replacement holding a tab would
    break the run's annotations.tsv, and an empty one would turn a word
    into an empty token.
    """
    table = {}
    with open(path, encoding="utf-8-sig") as fh, decoding(path):
        for line_number, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not all(fields):
                raise MalformedReplacements(
                    f"{path}, line {line_number}: expected a form and its replacement,"
                    f" two non-empty tab-separated fields, found {line!r}"
                )
            table[fields[0]] = fields[1]
    return table


_PLAIN_VOWELS = "aeiou"
_VOWELS = "aeiouáàâãäéèêëíìîïóòôõöúùûü"


def _vowel_run_count(text: str) -> int:
    runs = 0
    in_run = False
    for ch in text:
        if ch in _VOWELS:
            if not in_run:
                runs += 1
                in_run = True
        else:
            in_run = False
    return runs


def reform_normalize(form: str) -> str:
    """Rewrite an old-orthography word to the 1990-Agreement spelling.

    Handles trema removal, open-diphthong accent loss in paroxytones
    (éi/ói), double-vowel circumflex loss (ôo/êe), and the accent on i/u
    after a diphthong.  Idempotent; never changes base letters.
    """
    word = form.replace("ü", "u")
    # one rule can expose another's context (crêéi... is contrived but the
    # fuzzer finds such shapes), so rewrite to a fixpoint
    previous = None
    while word != previous:
        previous = word
        word = _reform_pass(word)
    return word


def _reform_pass(word: str) -> str:
    word = word.replace("ôo", "oo").replace("êe", "ee")
    # éi/ói lose the accent unless the diphthong sits in the last syllable
    for accented, plain in (("éi", "ei"), ("ói", "oi")):
        pos = word.find(accented)
        while pos != -1:
            tail = word[pos + 2 :]
            if _vowel_run_count(tail) == 1:
                word = word[:pos] + plain + word[pos + 2 :]
            pos = word.find(accented, pos + 1)
    # stressed i/u right after a falling diphthong (feiúra -> feiura)
    for accented, plain in (("í", "i"), ("ú", "u")):
        pos = word.find(accented)
        while pos != -1:
            if (
                pos >= 2
                and word[pos - 1] in "iu"
                and word[pos - 2] in _PLAIN_VOWELS
                and _vowel_run_count(word[pos + 1 :]) <= 1
            ):
                word = word[:pos] + plain + word[pos + 1 :]
            pos = word.find(accented, pos + 1)
    return word
