"""Command-line front end: compile, apply, coverage, classify, diff.

Exit codes: 0 success, 1 environment/IO problems, 2 invalid input.
Run manifests (run.json) honor SOURCE_DATE_EPOCH for reproducible trees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .automaton import CaseFoldPolicy, compile_lexicon, load_lexicon, save_lexicon
from .classify import (
    ClassifierConfig,
    build_unknown_records,
    category_histogram,
    classify,
    load_classifier_config,
    write_classification_tsv,
)
from .coverage import (
    CoverageReport,
    compare_versions,
    coverage_from_dico,
    diff_dictionaries,
    format_decimal,
    mean_delta,
    render_coverage_text,
    render_delta_text,
    render_diff_text,
)
from .delaf import DictFile, RoleTag, _read_entries
from .dico import (
    DicoResult,
    apply_dictionaries,
    open_annotations,
    read_types,
    write_outputs,
)
from .errors import EmptyLexicon, LexcovError, MalformedEntry, MalformedManifest, decoding
from .preprocess import (
    load_abbreviation_list,
    load_replacement_table,
    apply_replacements,
    normalize_delimiters,
    segment_sentences,
    tokenize,
)

_POLICIES = {p.value: p for p in CaseFoldPolicy}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _timestamp() -> str:
    """Now, or SOURCE_DATE_EPOCH when it is set, in ISO 8601 UTC."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        moment = time.gmtime(int(epoch) if epoch else None)
    except (ValueError, OverflowError, OSError):
        moment = None
    if moment is None or not 1 <= moment.tm_year <= 9999:
        raise LexcovError(f"SOURCE_DATE_EPOCH {epoch!r}: expected whole seconds since 1970")
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", moment)


def _expand_corpus(patterns) -> list[str]:
    import glob  # imported here: only apply and coverage of a corpus expand globs

    paths = []
    for pattern in patterns:
        hits = sorted(glob.glob(pattern))
        paths.extend(hits if hits else [pattern])
    return sorted(dict.fromkeys(paths))


def _preprocess_file(path, abbrevs, replacements, digests):
    with open(path, "rb") as fh:
        data = fh.read()
    digests[path] = hashlib.sha256(data).hexdigest()
    # a leading BOM is dropped; normalizing turns \r\n and \r into \n, as
    # reading in text mode would
    with decoding(path):
        text = normalize_delimiters(data.decode("utf-8-sig"))
    stream = tokenize(text)
    if replacements:
        apply_replacements(stream, replacements)
    return segment_sentences(stream, abbrevs)


def _apply_corpus(
    patterns, lexicon_paths, policy, abbrev=None, replacements=None, annotations=None
):
    """Apply the lexicons to the expanded corpus; the sorted file list
    with the sha256 of each file as it was read, and the one DicoResult
    over all of it.  The rows go to ``annotations``, as for
    :func:`apply_dictionaries`."""
    lexicons = [load_lexicon(p) for p in lexicon_paths]
    corpus = _expand_corpus(patterns)
    abbrevs = load_abbreviation_list(abbrev) if abbrev else ()
    table = load_replacement_table(replacements) if replacements else None
    digests = {}
    # one file's tokens at a time, in sorted corpus order
    streams = (_preprocess_file(path, abbrevs, table, digests) for path in corpus)
    result = apply_dictionaries(lexicons, streams, policy, annotations)
    return [(path, digests[path]) for path in corpus], result


# -- subcommands ------------------------------------------------------------

def _streamed(paths, codes_of, role=RoleTag.GENERAL) -> list[DictFile]:
    """DictFiles whose entries, plain 5-tuples, are read from their files
    as they are used; ``codes_of`` is the one codes cache of the command."""
    return [DictFile(_read_entries(p, codes_of), role) for p in paths]


def cmd_compile(args) -> int:
    try:
        lex = compile_lexicon(_streamed(args.dicts, {}, RoleTag(args.role)))
    except EmptyLexicon as exc:
        raise EmptyLexicon(f"{', '.join(args.dicts)}: {exc}") from None
    save_lexicon(lex, args.output)
    stats = {
        "entries": lex.stats.entry_count,
        "unique_forms": lex.stats.unique_form_count,
        "unique_forms_folded": lex.stats.unique_form_count_folded,
        "states": lex.stats.state_count,
        "transitions": lex.stats.transition_count,
        "analyses": lex.stats.analysis_count,
        "compounds": lex.stats.compound_count,
    }
    out = sys.stdout if args.json else sys.stderr
    print(json.dumps(stats, indent=2, sort_keys=True), file=out)
    return 0


def cmd_apply(args) -> int:
    policy = _POLICIES[args.case_policy]
    created = _timestamp()  # checked before the run directory is made
    # annotations.tsv replaces an earlier run's only once the whole corpus
    # is applied
    with open_annotations(args.output) as annotations:
        inputs, result = _apply_corpus(
            args.corpus, args.lexicon, policy, args.abbrev, args.replacements, annotations
        )
        write_outputs(result, args.output)
    counts = result.status_counts()
    manifest = {
        "tool": "lexcov",
        "version": __version__,
        "command": ["apply"] + args.corpus,
        "created": created,
        "corpus_id": ",".join(os.path.basename(p) for p, _ in inputs),
        "policy": policy.value,
        "inputs": [{"path": str(p), "sha256": digest} for p, digest in inputs],
        "lexicons": [{"path": str(p), "sha256": _sha256(p)} for p in args.lexicon],
        "configs": {
            "abbrev": _sha256(args.abbrev) if args.abbrev else None,
            "replacements": _sha256(args.replacements) if args.replacements else None,
        },
        "counts": {
            "word_tokens": result.word_token_count,
            **{status.value: n for status, n in counts.items()},
            "err_forms": len(result.err),
        },
    }
    with open(os.path.join(args.output, "run.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    return 0


def _required(mapping, key, where):
    """``mapping[key]``, or MalformedManifest naming ``where`` and the key."""
    if not isinstance(mapping, dict):
        raise MalformedManifest(f"{where}: expected a JSON object")
    if key not in mapping:
        raise MalformedManifest(f"{where}: missing key {key!r}")
    return mapping[key]


def _checked(value, valid, where, key, expected):
    """``value``, the value of ``key``, if it is ``valid``; otherwise
    MalformedManifest naming ``where``, the key and what it should hold."""
    if not valid:
        raise MalformedManifest(f"{where}: key {key!r} holds {value!r}, expected {expected}")
    return value


def _string(mapping, key, where):
    """``mapping``'s optional string ``key``, "" when it is absent."""
    value = mapping.get(key, "")
    return _checked(value, isinstance(value, str), where, key, "a string")


_COUNT_KEYS = ("types_total", "types_unknown", "tokens_total", "tokens_unknown")


def _load_json(path):
    """The JSON value in the UTF-8 file ``path``, a leading BOM dropped; a
    LexcovError naming the file when it is not UTF-8 or not JSON (both
    ValueErrors), holds an integer of more digits than ``int()`` reads, or
    nests deeper than the parser recurses."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise LexcovError(f"{path}: {exc}") from None


def _reports_from_counts(path):
    """The reports of a ``--counts`` file: a JSON array of row objects, each
    with four non-negative integer counts, no unknown count above its total."""
    rows = _load_json(path)
    if not isinstance(rows, list):
        raise MalformedManifest(f"{path}: expected a JSON array of row objects")
    reports = []
    for number, row in enumerate(rows, 1):
        where = f"{path}, row {number}"
        counts = [_required(row, key, where) for key in _COUNT_KEYS]
        for key, n in zip(_COUNT_KEYS, counts):
            # bool is an int subclass, but true is no count
            _checked(n, type(n) is int and n >= 0, where, key, "a non-negative integer")
        for total, part in ((0, 1), (2, 3)):
            n, most = counts[part], counts[total]
            _checked(n, n <= most, where, _COUNT_KEYS[part], f"at most {_COUNT_KEYS[total]}")
        ids = _string(row, "corpus_id", where), _string(row, "dict_id", where)
        reports.append(CoverageReport(*ids, *counts))
    return reports


def _read_run(run_dir):
    """An apply run's DicoResult, read from types.tsv under the policy of its
    run.json once that is checked, and the run's corpus and dictionary ids."""
    manifest_path, types_path = (os.path.join(run_dir, n) for n in ("run.json", "types.tsv"))
    for path in (manifest_path, types_path):
        if not os.path.isfile(path):
            raise LexcovError(f"{path}: no such file; re-run `lexcov apply` to write it")
    manifest = _load_json(manifest_path)
    policy = _required(manifest, "policy", manifest_path)
    if not isinstance(policy, str) or policy not in _POLICIES:
        raise MalformedManifest(
            f"{manifest_path}: key 'policy' holds an unknown case policy {policy!r}"
        )
    lexicons = manifest.get("lexicons", [])
    _checked(lexicons, isinstance(lexicons, list), manifest_path, "lexicons", "a JSON array")
    where = f"{manifest_path}, lexicons"
    paths = [_required(lex, "path", where) for lex in lexicons]
    for path in paths:
        _checked(path, isinstance(path, str), where, "path", "a string")
    corpus_id = _string(manifest, "corpus_id", manifest_path)
    dico = DicoResult(_POLICIES[policy], word_counts=read_types(types_path))
    return dico, corpus_id, ",".join(map(os.path.basename, paths))


def cmd_coverage(args) -> int:
    sources = {
        "--counts": args.counts,
        "--run": args.run,
        "-l/--lexicon": args.lexicon,
        "CORPUS": args.corpus,
        "--cased": args.cased,
        "--case-policy": args.case_policy,
    }
    # the inputs in their order of precedence, then the options; --counts
    # takes neither another input nor an option, --run only --cased (its
    # policy is the run's)
    given = [name for name, value in sources.items() if value]
    takes = {"--counts": (), "--run": ("--cased",)}
    if given and given[0] in takes:
        extra = [name for name in given[1:] if name not in takes[given[0]]]
        if extra:
            raise LexcovError(f"coverage: {given[0]} cannot be combined with {', '.join(extra)}")
    reports = []
    deltas = []
    if args.counts:
        reports = _reports_from_counts(args.counts)
    elif args.run:
        reports = [
            coverage_from_dico(dico, cased=args.cased, corpus_id=corpus_id, dict_id=dict_id)
            for dico, corpus_id, dict_id in map(_read_run, args.run)
        ]
    else:
        if not args.lexicon or not args.corpus:
            raise LexcovError("coverage: need --counts, --run, or --lexicon with corpus")
        # an in-memory apply, so this equals `coverage --run` of such a run
        policy = _POLICIES[args.case_policy or CaseFoldPolicy.UNITEX_LIKE.value]
        inputs, dico = _apply_corpus(args.corpus, args.lexicon, policy)
        reports.append(
            coverage_from_dico(
                dico,
                cased=args.cased,
                corpus_id=",".join(os.path.basename(p) for p, _ in inputs),
                dict_id=",".join(os.path.basename(p) for p in args.lexicon),
            )
        )

    by_corpus = {}
    for report in reports:
        by_corpus.setdefault(report.corpus_id, []).append(report)
    for group in by_corpus.values():
        for old, new in zip(group, group[1:]):
            deltas.append(compare_versions(old, new))

    if args.format == "json":
        payload = {"reports": [r.to_dict() for r in reports]}
        if deltas:
            payload["deltas"] = [d.to_dict() for d in deltas]
            payload["mean_delta_types_pp"] = str(
                mean_delta([d.delta_types_pp for d in deltas])
            )
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        blocks = [render_coverage_text(r, args.locale) for r in reports]
        blocks.extend(render_delta_text(d, args.locale) for d in deltas)
        if deltas:
            mean = mean_delta([d.delta_types_pp for d in deltas])
            blocks.append(f"mean types delta: {format_decimal(mean, args.locale)} pp")
        print("\n\n".join(blocks))
    return 0


def cmd_classify(args) -> int:
    records = build_unknown_records(_read_run(args.run_dir)[0])
    lex_new = load_lexicon(args.lexicon)
    lex_old = load_lexicon(args.old) if args.old else None
    config = load_classifier_config(args.config) if args.config else ClassifierConfig()
    classified = classify(records, lex_new, lex_old, config)
    out_path = args.output or os.path.join(args.run_dir, "classification.tsv")
    write_classification_tsv(classified, out_path)
    print(json.dumps(category_histogram(classified), indent=2, sort_keys=True))
    return 0


def cmd_diff(args) -> int:
    codes_of = {}  # both versions repeat the same codes texts
    diff = diff_dictionaries(
        _streamed(args.a, codes_of), _streamed(args.b, codes_of), cased=args.cased
    )
    if args.format == "json":
        print(json.dumps(diff.to_dict(), indent=2, ensure_ascii=False))
    else:
        print(render_diff_text(diff))
    return 0


# -- argument parsing -------------------------------------------------------

def _terminal_columns() -> int:
    """The columns ``shutil.get_terminal_size()`` reports: $COLUMNS when it
    is a positive integer, else the width of the terminal on the original
    stdout, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return columns or 80


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, given the width it would compute itself, so
    that no command imports shutil (and through it bz2 and lzma): argparse
    makes a formatter on every add_argument."""

    def __init__(self, prog, **kwargs):
        super().__init__(prog, width=_terminal_columns() - 2, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexcov",
        description="DELAF dictionary compiler and lexical-coverage toolkit",
        formatter_class=_HelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return sub.add_parser(name, help=summary, formatter_class=_HelpFormatter)

    p = command("compile", "compile DELAF files into a lexicon binary")
    p.add_argument("dicts", nargs="+", metavar="DICT")
    p.add_argument("--role", choices=[r.value for r in RoleTag], default="general")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true", help="print stats to stdout as JSON")
    p.set_defaults(func=cmd_compile)

    p = command("apply", "apply compiled lexicons to a corpus")
    p.add_argument("corpus", nargs="+", metavar="CORPUS", help="files or globs")
    p.add_argument("-l", "--lexicon", action="append", required=True)
    p.add_argument("-o", "--output", required=True, help="run output directory")
    p.add_argument("--case-policy", choices=sorted(_POLICIES), default="unitex_like")
    p.add_argument("--abbrev", help="abbreviation list for sentence segmentation")
    p.add_argument("--replacements", help="two-column TSV replacement table")
    p.set_defaults(func=cmd_apply)

    p = command("coverage", "coverage report / version delta")
    p.add_argument("corpus", nargs="*", metavar="CORPUS")
    p.add_argument("--counts", help="JSON counts file (replay mode)")
    p.add_argument("--run", action="append", help="completed apply run directory")
    p.add_argument("-l", "--lexicon", action="append")
    p.add_argument("--case-policy", choices=sorted(_POLICIES))
    p.add_argument("--cased", action="store_true", help="keep case when counting types")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--locale", choices=["plain", "pt-BR"], default="plain")
    p.set_defaults(func=cmd_coverage)

    p = command("classify", "categorize a run's unknown forms")
    p.add_argument("run_dir", metavar="RUN_DIR")
    p.add_argument("-l", "--lexicon", required=True, help="new-version lexicon")
    p.add_argument("--old", help="old-version lexicon")
    p.add_argument("--config", help="classifier config file")
    p.add_argument("-o", "--output", help="classification TSV path")
    p.set_defaults(func=cmd_classify)

    p = command("diff", "diff the form sets of two dictionary versions")
    p.add_argument("-a", nargs="+", required=True, metavar="DICT_A")
    p.add_argument("-b", nargs="+", required=True, metavar="DICT_B")
    p.add_argument("--cased", action="store_true")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_diff)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MalformedEntry as exc:
        where = "" if exc.path is None else f"{exc.path}: "
        print(f"lexcov: {where}malformed entry: {exc}", file=sys.stderr)
        return 2
    except (LexcovError, UnicodeDecodeError) as exc:
        print(f"lexcov: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"lexcov: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
