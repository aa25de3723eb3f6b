"""Run one ``lexcov`` command with its layer calls traced from outside.

Usage: ``python3 trace_cli.py OUT.json COMMAND ARGS...`` with ``src`` on
``PYTHONPATH``.  The public functions that ``lexcov.cli`` imports, and the
``Lexicon`` methods, are replaced by wrappers before ``lexcov.cli.main``
runs, so the trace follows the command's own call sequence.  Spans stay in
memory with parent links and are written to OUT.json when the command ends.
The per-token methods (``HOT``) are only aggregated, not kept one by one.
A name in ``EXPECTED`` that the program no longer has is listed as absent.
"""

from __future__ import annotations

import json
import sys
import time
import types

EXPECTED = (
    "load_dict_file", "compile_lexicon", "load_lexicon", "save_lexicon",
    "normalize_delimiters", "tokenize", "segment_sentences", "apply_dictionaries",
    "merge_results", "write_outputs", "read_annotations", "build_word_list",
    "coverage_from_dico", "diff_dictionaries", "build_unknown_records", "classify",
    "Lexicon.save", "Lexicon.lookup_forms", "Lexicon.entry_for",
    "Lexicon.match_compounds", "Lexicon.__contains__",
)
HOT = {"Lexicon.lookup_forms", "Lexicon.entry_for", "Lexicon.match_compounds",
       "Lexicon.__contains__", "Lexicon.lookup"}


def _items(name, result):
    """Work done by one call, counted at the boundary where it happens."""
    if name in ("tokenize", "segment_sentences"):
        return len(result.tokens)
    if name == "load_dict_file":
        return len(result.entries)
    if name == "read_annotations":
        return len(result)
    if name == "compile_lexicon":
        return result.stats.entry_count
    return 0


class Tracer:
    def __init__(self):
        self.spans = []      # [id, parent, name, layer, start, end, self_s, items]
        self.stack = []      # open frames: [span id, child seconds]
        self.hot = {}        # name -> [layer, calls, total_s, self_s]

    def wrap(self, name, layer, fn):
        clock = time.perf_counter
        stack = self.stack

        if name in HOT:
            entry = self.hot.setdefault(name, [layer, 0, 0.0, 0.0])

            def hot_wrapper(*args, **kwargs):
                frame = [None, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += duration
                    entry[1] += 1
                    entry[2] += duration
                    entry[3] += duration - frame[1]
            return hot_wrapper

        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = stack[-1][0] if stack else None
            span = [span_id, parent, name, layer, 0.0, 0.0, 0.0, 0]
            self.spans.append(span)
            frame = [span_id, 0.0]
            stack.append(frame)
            span[4] = start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[5] = end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                span[6] = end - start - frame[1]
                try:
                    span[7] = _items(name, result)
                except (AttributeError, TypeError):
                    span[7] = 0
        return wrapper


def main(argv) -> int:
    out_path, command = argv[0], argv[1:]
    import lexcov.cli as cli
    from lexcov.automaton import Lexicon

    tracer = Tracer()
    found = set()
    for name, obj in list(vars(cli).items()):
        module = getattr(obj, "__module__", "") or ""
        if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                and module.startswith("lexcov.") and module != "lexcov.cli"):
            setattr(cli, name, tracer.wrap(name, module.split(".")[1], obj))
            found.add(name)
    for method in ("save", "lookup_forms", "lookup", "entry_for", "match_compounds",
                   "__contains__"):
        fn = Lexicon.__dict__.get(method)
        if isinstance(fn, types.FunctionType):
            setattr(Lexicon, method, tracer.wrap(f"Lexicon.{method}", "automaton", fn))
            found.add(f"Lexicon.{method}")

    main_fn = tracer.wrap("main", "cli", cli.main)
    status = 1
    try:
        status = main_fn(command)
    finally:
        payload = {
            "command": command[0],
            "status": status,
            "spans": tracer.spans,
            "hot": tracer.hot,
            "absent": [n for n in EXPECTED if n not in found],
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
