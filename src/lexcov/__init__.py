"""DELAF dictionary compiler and lexical-coverage toolkit.

The names below are imported from their modules on first use (PEP 562),
so that importing the package, as every command does, loads none of them.
"""

__version__ = "0.1.0"

# each exported name -> the module that defines it
_HOMES = {
    "CaseFoldPolicy": "runtable",
    "Lexicon": "automaton",
    "compile_lexicon": "automaton",
    "load_lexicon": "automaton",
    "DictEntry": "delaf",
    "DictFile": "delaf",
    "RoleTag": "delaf",
    "iter_dict_entries": "delaf",
    "load_dict_file": "delaf",
    "parse_entry": "delaf",
    "serialize_entry": "delaf",
    "DicoResult": "runtable",
    "apply_dictionaries": "dico",
    "normalize_delimiters": "preprocess",
    "reform_normalize": "preprocess",
    "segment_sentences": "preprocess",
    "tokenize": "preprocess",
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later uses do not come here
    return value
