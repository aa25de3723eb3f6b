"""Raw-text preprocessing: delimiter normalization, tokenization,
sentence segmentation, and the 1990-Agreement spelling normalizer.

Tokenization is lossless: concatenating token texts reproduces the input
byte-for-byte.  Word tokens are maximal runs of Unicode letters, number
tokens maximal digit runs, whitespace runs become single space tokens,
and every other character is its own punct token.
"""

from __future__ import annotations

import enum
import re
import unicodedata
from dataclasses import dataclass, field

from .errors import MalformedReplacements

_CRLF_RE = re.compile(r"\r\n?")
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b-\x1f\x7f-]+")
_HSPACE_RE = re.compile(r"[^\S\n]+")

# word | number | whitespace | anything else (one char)
_TOKEN_RE = re.compile(r"([^\W\d_]+)|(\d+)|(\s+)|(.)", re.DOTALL)

_TERMINATORS = {".", "!", "?", "…"}


class TokenKind(enum.Enum):
    WORD = "word"
    NUMBER = "number"
    PUNCT = "punct"
    SPACE = "space"


@dataclass
class Token:
    kind: TokenKind
    text: str
    byte_span: tuple[int, int]
    sentence_index: int = 0
    sentence_initial: bool = False


@dataclass
class TokenStream:
    tokens: list[Token] = field(default_factory=list)
    source_id: str = ""

    @property
    def word_token_count(self) -> int:
        return sum(1 for t in self.tokens if t.kind is TokenKind.WORD)

    def word_tokens(self) -> list[Token]:
        return [t for t in self.tokens if t.kind is TokenKind.WORD]


def normalize_delimiters(raw: str) -> str:
    """Normalize a raw text: NFC, LF line endings, single spaces,
    control characters (other than LF) removed."""
    text = unicodedata.normalize("NFC", raw)
    text = _CRLF_RE.sub("\n", text)
    text = _CONTROL_RE.sub("", text)
    text = _HSPACE_RE.sub(" ", text)
    return text


def tokenize(text: str, source_id: str = "") -> TokenStream:
    """Split a normalized text into word/number/punct/space tokens."""
    tokens = []
    byte_pos = 0
    for m in _TOKEN_RE.finditer(text):
        piece = m.group(0)
        if m.group(1) is not None:
            kind = TokenKind.WORD
        elif m.group(2) is not None:
            kind = TokenKind.NUMBER
        elif m.group(3) is not None:
            kind = TokenKind.SPACE
        else:
            kind = TokenKind.PUNCT
        nbytes = len(piece.encode("utf-8"))
        tokens.append(Token(kind, piece, (byte_pos, byte_pos + nbytes)))
        byte_pos += nbytes
    return TokenStream(tokens=tokens, source_id=source_id)


def _normalize_abbreviations(abbreviations) -> set[str]:
    return {a.strip().rstrip(".").casefold() for a in abbreviations if a.strip()}


def load_abbreviation_list(path) -> set[str]:
    """One abbreviation per line, trailing dot optional."""
    with open(path, encoding="utf-8-sig") as fh:
        return _normalize_abbreviations(fh)


def segment_sentences(stream: TokenStream, abbreviations=()) -> TokenStream:
    """Assign sentence indices and sentence-initial flags in place.

    A boundary follows ``.``/``!``/``?``/``…`` when the next word token is
    uppercase-initial (or the text ends).  A period preceded by a single
    uppercase letter or a listed abbreviation does not end a sentence.
    """
    abbrevs = _normalize_abbreviations(abbreviations)
    tokens = stream.tokens
    index = 0
    for i, tok in enumerate(tokens):
        tok.sentence_index = index
        tok.sentence_initial = False
        if tok.kind is not TokenKind.PUNCT or tok.text not in _TERMINATORS:
            continue
        if tok.text == "." and _is_abbreviation_dot(tokens, i, abbrevs):
            continue
        if _starts_new_sentence(tokens, i):
            index += 1
    seen = set()
    for tok in tokens:
        if tok.kind is TokenKind.WORD and tok.sentence_index not in seen:
            tok.sentence_initial = True
            seen.add(tok.sentence_index)
    return stream


def _is_abbreviation_dot(tokens, i, abbrevs) -> bool:
    if i == 0 or tokens[i - 1].kind is not TokenKind.WORD:
        return False
    prev = tokens[i - 1].text
    if len(prev) == 1 and prev.isupper():
        return True
    return prev.casefold() in abbrevs


def _starts_new_sentence(tokens, i) -> bool:
    for j in range(i + 1, len(tokens)):
        nxt = tokens[j]
        if nxt.kind is TokenKind.SPACE:
            continue
        if nxt.kind is TokenKind.PUNCT and nxt.text in _TERMINATORS:
            # terminator runs ("?!", "...") end one sentence, at the last mark
            return False
        if nxt.kind is TokenKind.WORD:
            return nxt.text[0].isupper()
        return False
    return True  # end of text


def apply_replacements(stream: TokenStream, table: dict[str, str]) -> TokenStream:
    """Replace word-token texts via a lookup table (unambiguous-form hook)."""
    if table:
        for tok in stream.tokens:
            if tok.kind is TokenKind.WORD and tok.text in table:
                tok.text = table[tok.text]
    return stream


def load_replacement_table(path) -> dict[str, str]:
    """Two-column TSV: source form, replacement.

    Raises MalformedReplacements for a non-blank line that is not exactly
    two non-empty tab-separated fields: a replacement holding a tab would
    break the run's annotations.tsv, and an empty one would turn a word
    into an empty token.
    """
    table = {}
    with open(path, encoding="utf-8-sig") as fh:
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
