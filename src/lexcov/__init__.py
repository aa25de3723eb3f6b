"""DELAF dictionary compiler and lexical-coverage toolkit."""

__version__ = "0.1.0"

from .automaton import CaseFoldPolicy, Lexicon, compile_lexicon, load_lexicon
from .delaf import (
    DictEntry,
    DictFile,
    RoleTag,
    iter_dict_entries,
    load_dict_file,
    parse_entry,
    serialize_entry,
)
from .dico import DicoResult, apply_dictionaries
from .preprocess import normalize_delimiters, reform_normalize, segment_sentences, tokenize

__all__ = [
    "CaseFoldPolicy",
    "Lexicon",
    "compile_lexicon",
    "load_lexicon",
    "DictEntry",
    "DictFile",
    "RoleTag",
    "iter_dict_entries",
    "load_dict_file",
    "parse_entry",
    "serialize_entry",
    "DicoResult",
    "apply_dictionaries",
    "normalize_delimiters",
    "reform_normalize",
    "segment_sentences",
    "tokenize",
]
