import argparse
import ast
import gc
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lexcov.automaton import CaseFoldPolicy, load_lexicon
from lexcov.cli import main
from lexcov.coverage import diff_dictionaries
from lexcov.delaf import load_dict_file
from lexcov.dico import (
    DicoResult,
    TokenStatus,
    apply_dictionaries,
    read_types,
    write_outputs,
)
from lexcov.preprocess import normalize_delimiters, segment_sentences, tokenize

from oracles import (
    merge_results,
    oracle_annotate,
    oracle_annotations_tsv,
    oracle_normalize,
    oracle_segment,
    oracle_tokenize,
)
from test_automaton import resign, set_item


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_reader(command, run_dir, lexicon):
    """The argv of ``command``, coverage or classify, reading ``run_dir``."""
    if command == "coverage":
        return ["coverage", "--run", str(run_dir)]
    return ["classify", str(run_dir), "-l", str(lexicon)]


@pytest.fixture
def neymar_bin(fixtures_dir, tmp_path, capsys):
    out = tmp_path / "neymar.lex"
    code = main(["compile", str(fixtures_dir / "neymar.dic"), "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    return out


class TestCompile:
    def test_stats_json(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "lex.bin"
        code, stdout, _ = run_cli(
            capsys,
            "compile", str(fixtures_dir / "neymar.dic"), "-o", str(out), "--json",
        )
        assert code == 0
        stats = json.loads(stdout)
        assert stats["entries"] == 12
        assert stats["unique_forms"] == 7
        assert stats["compounds"] == 0
        assert out.exists()

    def test_malformed_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.dic"
        bad.write_text("casa,.N:fs\nsem virgula\n", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "compile", str(bad), "-o", str(tmp_path / "x.bin")
        )
        assert code == 2
        assert "line 2" in stderr

    def test_missing_file(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "compile", str(tmp_path / "nope.dic"), "-o", str(tmp_path / "x")
        )
        assert code == 1
        assert stderr

    def test_empty_dictionary(self, tmp_path, capsys):
        empty = tmp_path / "empty.dic"
        empty.write_text("", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "compile", str(empty), "-o", str(tmp_path / "x.bin")
        )
        assert code == 2
        assert stderr == f"lexcov: {empty}: no entries to compile\n"
        blank = tmp_path / "blank.dic"
        blank.write_text("\n \n\t\n", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "compile", str(empty), str(blank), "-o", str(tmp_path / "x.bin")
        )
        assert code == 2
        assert stderr == f"lexcov: {empty}, {blank}: no entries to compile\n"
        assert not (tmp_path / "x.bin").exists()

    def test_dot_in_lemma_round_trips_through_dlf(self, tmp_path, capsys):
        dic = tmp_path / "srs.dic"
        dic.write_text("Srs,Sr\\..N:mp\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "compile", str(dic), "-o", str(tmp_path / "srs.lex"))
        assert code == 0
        corpus = tmp_path / "c.txt"
        corpus.write_text("Os Srs chegaram.\n", encoding="utf-8")
        run = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "apply", str(corpus), "-l", str(tmp_path / "srs.lex"), "-o", str(run)
        )
        assert code == 0
        assert (run / "dlf").read_bytes() == dic.read_bytes()

    def test_form_with_65536_analyses_compiles_and_applies(self, tmp_path, capsys):
        # counts are u32: a form may have more analyses than a u16 holds
        dic = tmp_path / "many.dic"
        dic.write_text("".join(f"x,l{i}.N\n" for i in range(65536)), encoding="utf-8")
        out = tmp_path / "many.lex"
        code, _, _ = run_cli(capsys, "compile", str(dic), "-o", str(out))
        assert code == 0
        corpus = tmp_path / "c.txt"
        corpus.write_text("x X.\n", encoding="utf-8")
        run = tmp_path / "run"
        code, _, _ = run_cli(capsys, "apply", str(corpus), "-l", str(out), "-o", str(run))
        assert code == 0
        dlf = (run / "dlf").read_text(encoding="utf-8").splitlines()
        assert len(dlf) == 65536
        words = read_types(run / "types.tsv")
        assert {(text, status) for text, status, _ in words} == {
            ("x", TokenStatus.KNOWN_SIMPLE),
            ("X", TokenStatus.KNOWN_SIMPLE),
        }


class TestApply:
    def test_neymar_run(self, fixtures_dir, neymar_bin, tmp_path, capsys):
        outdir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys,
            "apply", str(fixtures_dir / "neymar.txt"),
            "-l", str(neymar_bin), "-o", str(outdir),
        )
        assert code == 0
        assert (outdir / "err").read_text(encoding="utf-8") == "Neymar\n"
        assert (outdir / "dlc").read_text(encoding="utf-8") == ""
        dlf = (outdir / "dlf").read_text(encoding="utf-8").splitlines()
        assert len(dlf) == 12
        manifest = json.loads((outdir / "run.json").read_text(encoding="utf-8"))
        assert manifest["counts"]["word_tokens"] == 8
        assert manifest["counts"]["unknown"] == 1

    def test_two_lexicons_union(self, fixtures_dir, neymar_bin, tmp_path, capsys):
        extra_dic = tmp_path / "extra.dic"
        extra_dic.write_text("neymar,.N+Prop\n", encoding="utf-8")
        extra_bin = tmp_path / "extra.lex"
        assert main(["compile", str(extra_dic), "-o", str(extra_bin)]) == 0
        capsys.readouterr()
        outdir = tmp_path / "run2"
        code, _, _ = run_cli(
            capsys,
            "apply", str(fixtures_dir / "neymar.txt"),
            "-l", str(neymar_bin), "-l", str(extra_bin), "-o", str(outdir),
        )
        assert code == 0
        assert (outdir / "err").read_text(encoding="utf-8") == ""

    def test_empty_corpus_file(self, neymar_bin, tmp_path, capsys):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("", encoding="utf-8")
        outdir = tmp_path / "run3"
        code, _, _ = run_cli(
            capsys, "apply", str(corpus), "-l", str(neymar_bin), "-o", str(outdir)
        )
        assert code == 0
        manifest = json.loads((outdir / "run.json").read_text(encoding="utf-8"))
        assert manifest["counts"]["word_tokens"] == 0

    @staticmethod
    def multi_file_run(tmp_path, capsys):
        """`lexcov apply` over four files, one of them empty and one with
        no terminator: the lexicon binary, the corpus and the run directory."""
        dic = tmp_path / "c.dic"
        dic.write_text("por exemplo,.ADV\no,.DET\ntime,.N\n", encoding="utf-8")
        lex_bin = tmp_path / "c.lex"
        assert main(["compile", str(dic), "-o", str(lex_bin)]) == 0
        texts = {
            "1_a.txt": "O time, por exemplo. O time venceu.\n",
            "2_b.txt": "Um exemplo bom. Outro exemplo\n",
            "3_c.txt": "",
            "4_d.txt": "por exemplo o time sem ponto final",
        }
        corpus = []
        for name, text in texts.items():
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            corpus.append(path)
        outdir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "apply", *map(str, corpus), "-l", str(lex_bin), "-o", str(outdir)
        )
        assert code == 0
        return lex_bin, corpus, outdir

    def test_streams_match_merge_fold(self, tmp_path, capsys):
        # "exemplo" is in_compound_only in 1_a and 4_d and unknown in 2_b, so
        # the run-wide lookup cache must not carry a token status across files
        lex_bin, corpus, outdir = self.multi_file_run(tmp_path, capsys)

        # the references: one apply per file, folded, and the reference
        # annotator over all of them, each file's sentences after the last's
        lex = load_lexicon(lex_bin)
        folded = DicoResult(policy=CaseFoldPolicy.UNITEX_LIKE)
        token_lists = []
        for path in corpus:
            text = path.read_text(encoding="utf-8")
            stream = segment_sentences(tokenize(normalize_delimiters(text)))
            folded = merge_results(folded, apply_dictionaries(lex, stream))
            token_lists.append(oracle_segment(oracle_tokenize(oracle_normalize(text))))
        annotations, _ = oracle_annotate([lex], token_lists, CaseFoldPolicy.UNITEX_LIKE)
        statuses = {(a.text, a.status) for a in annotations}
        assert ("exemplo", TokenStatus.IN_COMPOUND_ONLY) in statuses
        assert ("exemplo", TokenStatus.UNKNOWN) in statuses
        # each file starts at 1 + the largest index before it; 1_a's trailing
        # newline holds index 2, and the empty 3_c adds none
        rows = [
            line.split("\t")
            for line in (outdir / "annotations.tsv").read_text(encoding="utf-8").splitlines()
        ]
        assert sorted({int(r[2]) for r in rows if r[1] == "word"}) == [0, 1, 3, 4, 5]
        write_outputs(folded, tmp_path / "folded")
        for name in ("dlf", "dlc", "err"):
            assert (outdir / name).read_bytes() == (tmp_path / "folded" / name).read_bytes()
        assert (outdir / "annotations.tsv").read_text(encoding="utf-8") == (
            oracle_annotations_tsv(annotations)
        )

    def test_library_writes_the_run_rows(self, tmp_path, capsys):
        # the library call over the files as `lexcov apply` reads them
        lex_bin, corpus, outdir = self.multi_file_run(tmp_path, capsys)
        streams = (
            segment_sentences(tokenize(normalize_delimiters(path.read_text(encoding="utf-8"))))
            for path in corpus
        )
        rows = io.StringIO()
        apply_dictionaries(load_lexicon(lex_bin), streams, annotations=rows)
        assert rows.getvalue().encode("utf-8") == (outdir / "annotations.tsv").read_bytes()


class TestCoverage:
    def test_counts_replay_pt_br(self, tmp_path, capsys):
        counts = tmp_path / "counts.json"
        counts.write_text(
            json.dumps(
                [
                    {"corpus_id": "DG", "dict_id": "2004",
                     "types_total": 53966, "types_unknown": 10512,
                     "tokens_total": 984465, "tokens_unknown": 36190},
                    {"corpus_id": "DG", "dict_id": "2015",
                     "types_total": 53966, "types_unknown": 9967,
                     "tokens_total": 984465, "tokens_unknown": 34611},
                ]
            ),
            encoding="utf-8",
        )
        code, stdout, _ = run_cli(
            capsys, "coverage", "--counts", str(counts), "--locale", "pt-BR"
        )
        assert code == 0
        assert "19,48%" in stdout
        assert "18,47%" in stdout

    def test_counts_replay_json_deltas(self, tmp_path, capsys):
        rows = [
            {"corpus_id": "DG", "dict_id": "2004", "types_total": 53966,
             "types_unknown": 10512, "tokens_total": 984465, "tokens_unknown": 36190},
            {"corpus_id": "DG", "dict_id": "2015", "types_total": 53966,
             "types_unknown": 9967, "tokens_total": 984465, "tokens_unknown": 34611},
            {"corpus_id": "MA", "dict_id": "2004", "types_total": 22414,
             "types_unknown": 3048, "tokens_total": 215776, "tokens_unknown": 11624},
            {"corpus_id": "MA", "dict_id": "2015", "types_total": 22414,
             "types_unknown": 2769, "tokens_total": 215776, "tokens_unknown": 10870},
        ]
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps(rows), encoding="utf-8")
        code, stdout, _ = run_cli(
            capsys, "coverage", "--counts", str(counts), "--format", "json"
        )
        assert code == 0
        payload = json.loads(stdout)
        types_deltas = [d["delta_types_pp"] for d in payload["deltas"]]
        assert types_deltas == ["1.01", "1.25"]
        assert payload["mean_delta_types_pp"] == "1.13"

    def test_inline_corpus(self, fixtures_dir, neymar_bin, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "coverage", str(fixtures_dir / "neymar.txt"),
            "-l", str(neymar_bin), "--format", "json",
        )
        assert code == 0
        report = json.loads(stdout)["reports"][0]
        assert report["types_total"] == 8
        assert report["types_unknown"] == 1

    def test_run_mode_matches_inline(self, fixtures_dir, neymar_bin, tmp_path, capsys):
        outdir = tmp_path / "run"
        assert main([
            "apply", str(fixtures_dir / "neymar.txt"),
            "-l", str(neymar_bin), "-o", str(outdir),
        ]) == 0
        capsys.readouterr()
        code, stdout, _ = run_cli(
            capsys, "coverage", "--run", str(outdir), "--format", "json"
        )
        assert code == 0
        report = json.loads(stdout)["reports"][0]
        assert report["types_unknown"] == 1
        assert report["tokens_unknown"] == 1

    @pytest.mark.parametrize("policy", ["exact", "unitex_like", "full_fold"])
    def test_direct_equals_run(self, tmp_path, capsys, policy):
        # "Brasil" and "UFRJ" are cased entries and "por"/"exemplo" are known
        # only through the compound, so folding types before lookup or
        # skipping compounds would count them unknown in the direct mode
        dic = tmp_path / "roadmap.dic"
        dic.write_text(
            "o,.DET\na,.DET\nBrasil,.N\nvenceu,vencer.V\ndisse,dizer.V\n"
            "que,.CONJ\nUFRJ,.SIGL\npor exemplo,.ADV\n",
            encoding="utf-8",
        )
        corpus = tmp_path / "roadmap.txt"
        corpus.write_text(
            "O Brasil venceu. A UFRJ disse que por exemplo o Brasil venceu.\n",
            encoding="utf-8",
        )
        lex, outdir = tmp_path / "roadmap.lex", tmp_path / "run"
        assert main(["compile", str(dic), "-o", str(lex)]) == 0
        assert main(["apply", str(corpus), "-l", str(lex), "-o", str(outdir),
                     "--case-policy", policy]) == 0
        capsys.readouterr()
        code, direct, _ = run_cli(capsys, "coverage", str(corpus), "-l", str(lex),
                                  "--case-policy", policy, "--format", "json")
        assert code == 0
        code, from_run, _ = run_cli(capsys, "coverage", "--run", str(outdir),
                                    "--format", "json")
        assert code == 0
        assert json.loads(direct) == json.loads(from_run)
        report = json.loads(direct)["reports"][0]
        assert report["types_total"] == 9
        if policy != "exact":
            assert report["types_unknown"] == 0

    def test_run_takes_cased(self, neymar_bin, tmp_path, capsys):
        # --cased counts the run's types by case, as the direct mode does
        # under its default policy; "O" and "o" are one type folded
        corpus, outdir = tmp_path / "corpus.txt", tmp_path / "run"
        corpus.write_text("O time de Neymar. E o time\n", encoding="utf-8")
        assert main(["apply", str(corpus), "-l", str(neymar_bin), "-o", str(outdir)]) == 0
        capsys.readouterr()

        def report(*argv):
            code, stdout, _ = run_cli(capsys, "coverage", *argv, "--format", "json")
            assert code == 0
            return json.loads(stdout)["reports"][0]

        run, direct = ["--run", str(outdir)], [str(corpus), "-l", str(neymar_bin)]
        cased = report(*run, "--cased")
        assert cased == report(*direct, "--cased")
        assert cased["types_total"] == 6
        folded = report(*run)
        assert folded == report(*direct)
        assert folded["types_total"] == 5

    def test_no_inputs_is_usage_error(self, capsys):
        code, _, stderr = run_cli(capsys, "coverage")
        assert code == 2
        assert "coverage" in stderr


class TestClassify:
    def test_histogram_totality(self, fixtures_dir, tmp_path, capsys):
        lex_bin = tmp_path / "cls.lex"
        assert main([
            "compile", str(fixtures_dir / "classifier.dic"), "-o", str(lex_bin)
        ]) == 0
        corpus = tmp_path / "c.txt"
        corpus.write_text("A idéia de Zumbi venceu o jogo em Marte.\n", encoding="utf-8")
        outdir = tmp_path / "run"
        assert main([
            "apply", str(corpus), "-l", str(lex_bin), "-o", str(outdir)
        ]) == 0
        capsys.readouterr()
        code, stdout, _ = run_cli(
            capsys, "classify", str(outdir), "-l", str(lex_bin)
        )
        assert code == 0
        hist = json.loads(stdout)
        assert sum(hist.values()) == len(
            (outdir / "classification.tsv").read_text(encoding="utf-8").splitlines()
        )
        assert hist["old_spelling"] >= 1  # idéia

    def test_lists_a_form_that_coverage_counts_as_known(self, tmp_path, capsys):
        # a record per casefolded text with an unknown occurrence; folded
        # coverage counts a type known when any occurrence is known
        dic, lex, corpus = tmp_path / "d.dic", tmp_path / "d.lex", tmp_path / "c.txt"
        dic.write_text("casa,.N\n", encoding="utf-8")
        corpus.write_text("A casa. Casa nova.\n", encoding="utf-8")
        run = tmp_path / "run"
        assert main(["compile", str(dic), "-o", str(lex)]) == 0
        assert main([
            "apply", str(corpus), "-l", str(lex), "-o", str(run), "--case-policy", "exact"
        ]) == 0
        capsys.readouterr()
        code, stdout, _ = run_cli(capsys, "coverage", "--run", str(run), "--format", "json")
        assert code == 0
        assert json.loads(stdout)["reports"][0]["types_unknown"] == 2
        assert run_cli(capsys, "classify", str(run), "-l", str(lex))[0] == 0
        rows = (run / "classification.tsv").read_text(encoding="utf-8").splitlines()
        assert [row.split("\t")[0] for row in rows] == ["a", "casa", "nova"]


class TestDiff:
    def test_json(self, tmp_path, capsys):
        a = tmp_path / "a.dic"
        b = tmp_path / "b.dic"
        a.write_text("casa,.N:fs\nvelho,.A:ms\n", encoding="utf-8")
        b.write_text("casa,.N:fs\nnovo,.A:ms\n", encoding="utf-8")
        code, stdout, _ = run_cli(
            capsys, "diff", "-a", str(a), "-b", str(b), "--format", "json"
        )
        assert code == 0
        diff = json.loads(stdout)
        assert diff["only_in_a"] == ["velho"]
        assert diff["only_in_b"] == ["novo"]
        assert diff["common"] == 1

    @pytest.mark.parametrize("cased", [False, True])
    def test_streamed_diff_equals_listed_diff(self, fixtures_dir, capsys, cased):
        # lexcov diff reads the files as it goes; diff_dictionaries over
        # loaded lists must give the same JSON, for every pair of fixtures
        paths = sorted(fixtures_dir.glob("*.dic"))
        for a, b in itertools.product(paths, repeat=2):
            flag = ["--cased"] if cased else []
            code, stdout, _ = run_cli(
                capsys, "diff", "-a", str(a), "-b", str(b), "--format", "json", *flag
            )
            assert code == 0
            listed = diff_dictionaries([load_dict_file(a)], [load_dict_file(b)], cased=cased)
            assert stdout == json.dumps(listed.to_dict(), indent=2, ensure_ascii=False) + "\n"


BOM = "\ufeff".encode("utf-8")


class TestByteOrderMark:
    """A leading BOM is dropped from every text input, as from a DELAF file."""

    def test_corpus(self, tmp_path, capsys):
        dic, lex_bin = tmp_path / "c.dic", tmp_path / "c.lex"
        dic.write_text("por exemplo,.ADV\no,.DET\ntime,.N\n", encoding="utf-8")
        assert main(["compile", str(dic), "-o", str(lex_bin)]) == 0
        text = "O time, por exemplo. Neymar venceu\r\n".encode("utf-8")
        outputs = []
        for name, data in (("plain", text), ("bom", BOM + text)):
            corpus = tmp_path / name / "corpus.txt"  # one basename: one corpus id
            corpus.parent.mkdir()
            corpus.write_bytes(data)
            outdir = tmp_path / name / "run"
            assert main(["apply", str(corpus), "-l", str(lex_bin), "-o", str(outdir)]) == 0
            capsys.readouterr()
            code, report, _ = run_cli(capsys, "coverage", str(corpus), "-l", str(lex_bin))
            assert code == 0
            files = ("annotations.tsv", "types.tsv", "dlf", "dlc", "err")
            outputs.append([(outdir / f).read_bytes() for f in files] + [report])
        assert outputs[0] == outputs[1]
        assert outputs[1][0].startswith("O\tword\t".encode("utf-8"))
        assert outputs[1][3] == b"por exemplo,.ADV\n"

    def test_counts_file(self, tmp_path, capsys):
        rows = [{"corpus_id": "DG", "dict_id": "2004", "types_total": 53966,
                 "types_unknown": 10512, "tokens_total": 984465, "tokens_unknown": 36190}]
        outputs = []
        for name, prefix in (("plain", b""), ("bom", BOM)):
            counts = tmp_path / f"{name}.json"
            counts.write_bytes(prefix + json.dumps(rows).encode("utf-8"))
            outputs.append(run_cli(capsys, "coverage", "--counts", str(counts)))
        assert outputs[0] == outputs[1]
        assert outputs[1][0] == 0 and "19.48%" in outputs[1][1]

    @pytest.mark.parametrize("command", ["coverage", "classify"])
    def test_run_files(self, neymar_bin, tmp_path, capsys, command):
        corpus, outdir = tmp_path / "corpus.txt", tmp_path / "run"
        corpus.write_text("O time de Neymar. E o time\n", encoding="utf-8")
        assert main(["apply", str(corpus), "-l", str(neymar_bin), "-o", str(outdir)]) == 0
        capsys.readouterr()
        argv = run_reader(command, outdir, neymar_bin)
        plain = run_cli(capsys, *argv)
        assert plain[0] == 0
        for name in ("types.tsv", "run.json"):
            path = outdir / name
            path.write_bytes(BOM + path.read_bytes())
            assert run_cli(capsys, *argv) == plain, name
        assert read_types(outdir / "types.tsv")[("Neymar", TokenStatus.UNKNOWN, False)] == 1


class TestReproducibility:
    def test_identical_trees(self, fixtures_dir, neymar_bin, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        trees = []
        for name in ("one", "two"):
            outdir = tmp_path / name
            assert main([
                "apply", str(fixtures_dir / "neymar.txt"),
                "-l", str(neymar_bin), "-o", str(outdir),
            ]) == 0
            capsys.readouterr()
            trees.append(outdir)
        names = sorted(p.name for p in trees[0].iterdir())
        assert names == sorted(p.name for p in trees[1].iterdir())
        for name in names:
            assert (trees[0] / name).read_bytes() == (trees[1] / name).read_bytes()

    def test_manifest_timestamp_honors_epoch(
        self, fixtures_dir, neymar_bin, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        outdir = tmp_path / "run"
        assert main([
            "apply", str(fixtures_dir / "neymar.txt"),
            "-l", str(neymar_bin), "-o", str(outdir),
        ]) == 0
        capsys.readouterr()
        manifest = json.loads((outdir / "run.json").read_text(encoding="utf-8"))
        assert manifest["created"] == "1970-01-01T00:00:00Z"

    @pytest.mark.parametrize(
        "epoch, created",
        [("-1", "1969-12-31T23:59:59Z"), ("1700000000", "2023-11-14T22:13:20Z")],
    )
    def test_manifest_timestamp_of_epoch(
        self, fixtures_dir, neymar_bin, tmp_path, capsys, monkeypatch, epoch, created
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        outdir = tmp_path / "run"
        assert main([
            "apply", str(fixtures_dir / "neymar.txt"),
            "-l", str(neymar_bin), "-o", str(outdir),
        ]) == 0
        capsys.readouterr()
        manifest = json.loads((outdir / "run.json").read_text(encoding="utf-8"))
        assert manifest["created"] == created

    def test_compile_deterministic(self, fixtures_dir, tmp_path, capsys):
        a = tmp_path / "a.lex"
        b = tmp_path / "b.lex"
        for out in (a, b):
            assert main([
                "compile", str(fixtures_dir / "neymar.dic"), "-o", str(out)
            ]) == 0
            capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_failed_apply_keeps_the_earlier_run(
        self, fixtures_dir, neymar_bin, tmp_path, capsys
    ):
        outdir = tmp_path / "run"
        assert main([
            "apply", str(fixtures_dir / "neymar.txt"), "-l", str(neymar_bin), "-o", str(outdir)
        ]) == 0
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert sorted(before) == [
            "annotations.tsv", "dlc", "dlf", "err", "run.json", "types.tsv"
        ]
        # the second file fails after the first has been applied
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "1.txt").write_text("O time venceu.\n", encoding="utf-8")
        (corpus / "2.txt").write_bytes(b"O time \xff venceu.\n")
        code, _, stderr = run_cli(
            capsys, "apply", str(corpus / "*.txt"), "-l", str(neymar_bin), "-o", str(outdir)
        )
        assert code == 2
        assert stderr.startswith(f"lexcov: {corpus / '2.txt'}: 'utf-8' codec")
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before

    def test_corrupt_lexicon(self, neymar_bin, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.lex"
        data = bytearray(neymar_bin.read_bytes())
        data[-1] ^= 0xFF
        corrupt.write_bytes(bytes(data))
        corpus = tmp_path / "c.txt"
        corpus.write_text("O time venceu.\n", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "apply", str(corpus), "-l", str(corrupt), "-o", str(tmp_path / "run")
        )
        assert code == 2
        assert "checksum mismatch" in stderr

    def test_old_format_version_says_to_recompile(self, neymar_bin, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("O time venceu.\n", encoding="utf-8")
        data = bytearray(neymar_bin.read_bytes())
        for version in (1, 2, 3, 4):
            data[4:6] = version.to_bytes(2, "little")
            neymar_bin.write_bytes(bytes(data))
            code, _, stderr = run_cli(
                capsys, "apply", str(corpus), "-l", str(neymar_bin), "-o", str(tmp_path / "run")
            )
            assert code == 2
            assert f"format version {version}, expected 5" in stderr
            assert "re-run `lexcov compile`" in stderr

    def test_resigned_broken_payload(self, neymar_bin, tmp_path, capsys):
        # the root's first edge leads to a state that does not exist, and
        # the file's checksum is valid
        resign(neymar_bin, set_item("targets", 0, 999))
        corpus = tmp_path / "c.txt"
        corpus.write_text("O time venceu.\n", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "apply", str(corpus), "-l", str(neymar_bin), "-o", str(tmp_path / "run")
        )
        assert code == 2
        assert "edge to state 999" in stderr

    @pytest.mark.parametrize(
        "argv", ["compile {dic} {bad} -o {out}", "diff -a {dic} -b {bad}"], ids=["compile", "diff"]
    )
    def test_malformed_delaf_line_names_its_file(self, fixtures_dir, tmp_path, capsys, argv):
        paths = {
            "dic": fixtures_dir / "neymar.dic", "bad": tmp_path / "bad.dic", "out": tmp_path / "out"
        }
        paths["bad"].write_text("a,.N\nxx,yy\n", encoding="utf-8")
        code, _, stderr = run_cli(capsys, *(arg.format(**paths) for arg in argv.split()))
        assert code == 2
        assert stderr == (
            f"lexcov: {paths['bad']}: malformed entry: line 2, col 5: missing '.' separator:"
            " 'xx,yy'\n"
        )

    @pytest.mark.parametrize(
        "argv", ["compile {bad} -o {out}", "diff -a {dic} -b {bad}"], ids=["compile", "diff"]
    )
    def test_form_with_an_edge_space_names_its_file(self, fixtures_dir, tmp_path, capsys, argv):
        paths = {
            "dic": fixtures_dir / "neymar.dic", "bad": tmp_path / "bad.dic", "out": tmp_path / "out"
        }
        paths["bad"].write_text("casa ,.N\n", encoding="utf-8")
        code, _, stderr = run_cli(capsys, *(arg.format(**paths) for arg in argv.split()))
        assert code == 2
        assert stderr == (
            f"lexcov: {paths['bad']}: malformed entry: line 1, col 4:"
            " surface form ends with a space: 'casa ,.N'\n"
        )

    @pytest.mark.parametrize(
        "argv", ["compile {bad} -o {out}", "diff -a {dic} -b {bad}"], ids=["compile", "diff"]
    )
    def test_form_with_edge_whitespace_names_its_file(self, fixtures_dir, tmp_path, capsys, argv):
        # a form ending in a tab would compile into one no token matches
        paths = {
            "dic": fixtures_dir / "neymar.dic", "bad": tmp_path / "bad.dic", "out": tmp_path / "out"
        }
        paths["bad"].write_text("a,.N\ncasa\t,.N\n", encoding="utf-8")
        code, _, stderr = run_cli(capsys, *(arg.format(**paths) for arg in argv.split()))
        assert code == 2
        assert stderr == (
            f"lexcov: {paths['bad']}: malformed entry: line 2, col 4:"
            " surface form ends with whitespace '\\t': 'casa\\t,.N'\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row", ["time\tbom\ttime", "time", "\tbom", "time\t"])
    def test_malformed_replacement_row(self, fixtures_dir, neymar_bin, tmp_path, capsys, row):
        outdir = tmp_path / "run"
        assert main([
            "apply", str(fixtures_dir / "neymar.txt"), "-l", str(neymar_bin), "-o", str(outdir)
        ]) == 0
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        table = tmp_path / "replacements.tsv"
        table.write_text(f"corria\tcorreu\n\n{row}\n", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "apply", str(fixtures_dir / "neymar.txt"), "-l", str(neymar_bin),
            "-o", str(outdir), "--replacements", str(table),
        )
        assert code == 2
        assert f"{table}, line 3: expected a form and its replacement" in stderr
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before

    # not an integer, too large for the platform's time_t, and the first
    # second of the year 10000
    @pytest.mark.parametrize("epoch", ["abc", "1.5", "99999999999999999", "253402300800"])
    def test_bad_source_date_epoch(
        self, fixtures_dir, neymar_bin, tmp_path, capsys, monkeypatch, epoch
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        outdir = tmp_path / "run"
        code, _, stderr = run_cli(
            capsys, "apply", str(fixtures_dir / "neymar.txt"), "-l", str(neymar_bin),
            "-o", str(outdir),
        )
        assert code == 2
        assert stderr.startswith(f"lexcov: SOURCE_DATE_EPOCH {epoch!r}")
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["coverage", "classify"])
    def test_annotation_row_with_a_sixth_field(self, neymar_bin, tmp_path, capsys, command):
        corpus = tmp_path / "c.txt"
        corpus.write_text("O time venceu.\n", encoding="utf-8")
        outdir = tmp_path / "run"
        assert main(["apply", str(corpus), "-l", str(neymar_bin), "-o", str(outdir)]) == 0
        capsys.readouterr()
        table = outdir / "types.tsv"
        rows = table.read_text(encoding="utf-8").splitlines()
        rows[1] += "\textra\textra"
        table.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
        code, _, stderr = run_cli(capsys, *run_reader(command, outdir, neymar_bin))
        assert code == 2
        assert stderr == f"lexcov: {table}, line 2: expected 4 tab-separated fields, found 6\n"

    @pytest.mark.parametrize("command", ["coverage", "classify"])
    def test_cut_annotation_row(self, neymar_bin, tmp_path, capsys, command):
        corpus = tmp_path / "c.txt"
        corpus.write_text("O time de Neymar corria atrás do prejuízo e venceu\n", encoding="utf-8")
        outdir = tmp_path / "run"
        assert main(["apply", str(corpus), "-l", str(neymar_bin), "-o", str(outdir)]) == 0
        capsys.readouterr()
        table = outdir / "types.tsv"
        rows = table.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 10
        rows[3] = "\t".join(rows[3].split("\t")[:3])
        table.write_text("".join(r + "\n" for r in rows), encoding="utf-8")
        code, _, stderr = run_cli(capsys, *run_reader(command, outdir, neymar_bin))
        assert code == 2
        assert stderr == f"lexcov: {table}, line 4: expected 4 tab-separated fields, found 3\n"

    @pytest.mark.parametrize("missing", ["run.json", "types.tsv"])
    @pytest.mark.parametrize("command", ["coverage", "classify"])
    def test_run_without_a_file(self, neymar_bin, tmp_path, capsys, command, missing):
        corpus = tmp_path / "c.txt"
        corpus.write_text("O time venceu.\n", encoding="utf-8")
        outdir = tmp_path / "run"
        assert main(["apply", str(corpus), "-l", str(neymar_bin), "-o", str(outdir)]) == 0
        capsys.readouterr()
        (outdir / missing).unlink()
        code, _, stderr = run_cli(capsys, *run_reader(command, outdir, neymar_bin))
        assert code == 2
        message = f"{outdir / missing}: no such file; re-run `lexcov apply` to write it"
        assert stderr == f"lexcov: {message}\n"

    @pytest.mark.parametrize(
        "bad, argv",
        [
            ("abbrev.txt", "apply {corpus} -l {lex} -o {out} --abbrev {bad}"),
            ("replacements.tsv", "apply {corpus} -l {lex} -o {out} --replacements {bad}"),
            ("corpus.txt", "apply {bad} -l {lex} -o {out}"),
            ("corpus.txt", "coverage {bad} -l {lex}"),
            ("classifier.cfg", "classify {run} -l {lex} --config {bad}"),
            ("acronyms.txt", "classify {run} -l {lex} --config {config}"),
            ("delaf.dic", "compile {bad} -o {out}"),
            ("delaf.dic", "diff -a {dic} -b {bad}"),
            ("run/run.json", "coverage --run {run}"),
            ("run/types.tsv", "coverage --run {run}"),
            ("run/types.tsv", "classify {run} -l {lex}"),
            ("counts.json", "coverage --counts {bad}"),
        ],
        ids=[
            "abbrev", "replacements", "apply corpus", "coverage corpus", "classifier config",
            "config word list", "compile", "diff", "run.json", "coverage types.tsv",
            "classify types.tsv", "counts",
        ],
    )
    def test_input_file_that_is_not_utf8(
        self, fixtures_dir, neymar_bin, tmp_path, capsys, bad, argv
    ):
        paths = {
            "corpus": tmp_path / "c.txt",
            "lex": neymar_bin,
            "out": tmp_path / "out",
            "run": tmp_path / "run",
            "dic": fixtures_dir / "neymar.dic",
            "config": tmp_path / "config.cfg",
            "bad": tmp_path / bad,
        }
        paths["corpus"].write_text("O time venceu.\n", encoding="utf-8")
        word_list = tmp_path / "acronyms.txt"
        paths["config"].write_text(f"acronym_list = {word_list}\n", encoding="utf-8")
        apply = ["apply", paths["corpus"], "-l", neymar_bin, "-o", paths["run"]]
        assert main(list(map(str, apply))) == 0
        capsys.readouterr()
        paths["bad"].write_bytes(b"time\t\xff\n")
        code, _, stderr = run_cli(capsys, *(arg.format(**paths) for arg in argv.split()))
        assert code == 2
        assert stderr.startswith(f"lexcov: {paths['bad']}: 'utf-8' codec can't decode byte 0xff")
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "policy, message",
        [
            (None, "run.json: missing key 'policy'"),
            ("lower_only", "run.json: key 'policy' holds an unknown case policy 'lower_only'"),
        ],
    )
    def test_bad_manifest_policy(self, neymar_bin, tmp_path, capsys, policy, message):
        corpus = tmp_path / "c.txt"
        corpus.write_text("O time venceu.\n", encoding="utf-8")
        outdir = tmp_path / "run"
        assert main(["apply", str(corpus), "-l", str(neymar_bin), "-o", str(outdir)]) == 0
        capsys.readouterr()
        manifest_path = outdir / "run.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if policy is None:
            del manifest["policy"]
        else:
            manifest["policy"] = policy
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        code, _, stderr = run_cli(capsys, "coverage", "--run", str(outdir))
        assert code == 2
        assert str(outdir / message) in stderr

    def test_counts_row_missing_key(self, tmp_path, capsys):
        counts = tmp_path / "counts.json"
        row = {"types_total": 10, "types_unknown": 2, "tokens_total": 30, "tokens_unknown": 4}
        short = {k: v for k, v in row.items() if k != "tokens_total"}
        counts.write_text(json.dumps([row, short]), encoding="utf-8")
        code, _, stderr = run_cli(capsys, "coverage", "--counts", str(counts))
        assert code == 2
        assert f"{counts}, row 2: missing key 'tokens_total'" in stderr

    @pytest.mark.parametrize("top", ["5", '{"types_total": 10}', '"rows"'])
    def test_counts_file_not_an_array(self, tmp_path, capsys, top):
        counts = tmp_path / "counts.json"
        counts.write_text(top, encoding="utf-8")
        code, _, stderr = run_cli(capsys, "coverage", "--counts", str(counts))
        assert code == 2
        assert stderr == f"lexcov: {counts}: expected a JSON array of row objects\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ("", "Expecting value: line 1 column 1 (char 0)"),
            ("[1,]", "Expecting value: line 1 column 4 (char 3)"),
        ],
    )
    def test_counts_file_that_is_not_json(self, tmp_path, capsys, text, message):
        counts = tmp_path / "counts.json"
        counts.write_text(text, encoding="utf-8")
        code, _, stderr = run_cli(capsys, "coverage", "--counts", str(counts))
        assert code == 2
        assert stderr == f"lexcov: {counts}: {message}\n"

    @pytest.mark.parametrize("command", ["coverage", "classify"])
    def test_run_json_that_is_not_json(self, neymar_bin, tmp_path, capsys, command):
        corpus = tmp_path / "c.txt"
        corpus.write_text("O time venceu.\n", encoding="utf-8")
        outdir = tmp_path / "run"
        assert main(["apply", str(corpus), "-l", str(neymar_bin), "-o", str(outdir)]) == 0
        capsys.readouterr()
        (outdir / "run.json").write_text("[\n", encoding="utf-8")
        code, _, stderr = run_cli(capsys, *run_reader(command, outdir, neymar_bin))
        assert code == 2
        message = "Expecting value: line 2 column 1 (char 2)"
        assert stderr == f"lexcov: {outdir / 'run.json'}: {message}\n"

    def test_unknown_rule_id_in_config_names_its_line(self, neymar_bin, tmp_path, capsys):
        corpus, config = tmp_path / "c.txt", tmp_path / "bad.cfg"
        corpus.write_text("O time venceu.\n", encoding="utf-8")
        config.write_text("acr_min_len = 2\nprecedence = [R-x]\n", encoding="utf-8")
        outdir = tmp_path / "run"
        assert main(["apply", str(corpus), "-l", str(neymar_bin), "-o", str(outdir)]) == 0
        capsys.readouterr()
        code, stdout, stderr = run_cli(
            capsys, "classify", str(outdir), "-l", str(neymar_bin), "--config", str(config)
        )
        assert code == 2
        assert stdout == ""
        assert stderr == f"lexcov: {config}:2: unknown rule id in precedence list: 'R-x'\n"

    @pytest.mark.parametrize(
        "key, value, shown, expected",
        [
            ("types_total", "x", "'x'", "a non-negative integer"),
            ("types_unknown", True, "True", "a non-negative integer"),
            ("tokens_total", -1, "-1", "a non-negative integer"),
            ("tokens_unknown", 1.5, "1.5", "a non-negative integer"),
            ("tokens_total", None, "None", "a non-negative integer"),
            ("corpus_id", [1], "[1]", "a string"),
            ("dict_id", 5, "5", "a string"),
            ("types_unknown", 11, "11", "at most types_total"),
            ("tokens_unknown", 31, "31", "at most tokens_total"),
        ],
    )
    def test_counts_row_value_of_the_wrong_type(
        self, tmp_path, capsys, key, value, shown, expected
    ):
        counts = tmp_path / "counts.json"
        row = {"types_total": 10, "types_unknown": 2, "tokens_total": 30, "tokens_unknown": 4}
        counts.write_text(json.dumps([row, {**row, key: value}]), encoding="utf-8")
        code, _, stderr = run_cli(capsys, "coverage", "--counts", str(counts))
        assert code == 2
        message = f"{counts}, row 2: key {key!r} holds {shown}, expected {expected}"
        assert stderr == f"lexcov: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda m: m.update(lexicons=5),
                "run.json: key 'lexicons' holds 5, expected a JSON array",
            ),
            (
                lambda m: m["lexicons"][0].update(path=5),
                "run.json, lexicons: key 'path' holds 5, expected a string",
            ),
            (
                lambda m: m.update(corpus_id=[1]),
                "run.json: key 'corpus_id' holds [1], expected a string",
            ),
        ],
        ids=["lexicons", "lexicon_path", "corpus_id"],
    )
    def test_manifest_value_of_the_wrong_type(
        self, neymar_bin, tmp_path, capsys, edit, message
    ):
        corpus = tmp_path / "c.txt"
        corpus.write_text("O time venceu.\n", encoding="utf-8")
        outdir = tmp_path / "run"
        assert main(["apply", str(corpus), "-l", str(neymar_bin), "-o", str(outdir)]) == 0
        capsys.readouterr()
        manifest_path = outdir / "run.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        edit(manifest)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        # a second, intact run of the same corpus makes a pair to group
        other = tmp_path / "other"
        assert main(["apply", str(corpus), "-l", str(neymar_bin), "-o", str(other)]) == 0
        capsys.readouterr()
        code, _, stderr = run_cli(capsys, "coverage", "--run", str(other), "--run", str(outdir))
        assert code == 2
        assert stderr == f"lexcov: {outdir / message}\n"

    def test_internal_key_error_is_not_invalid_input(
        self, fixtures_dir, neymar_bin, tmp_path, monkeypatch
    ):
        # a KeyError raised by a bug is not reported as bad input (exit 2)
        def broken(*args, **kwargs):
            raise KeyError("bug")

        # apply imports load_lexicon from the automaton when it runs
        monkeypatch.setattr("lexcov.automaton.load_lexicon", broken)
        with pytest.raises(KeyError):
            main([
                "apply", str(fixtures_dir / "neymar.txt"), "-l", str(neymar_bin),
                "-o", str(tmp_path / "run"),
            ])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "argv, conflict",
        [
            ("--counts {counts} --run {run}", "--counts cannot be combined with --run"),
            (
                "--counts {counts} {corpus} -l {lex}",
                "--counts cannot be combined with -l/--lexicon, CORPUS",
            ),
            ("--run {run} {corpus}", "--run cannot be combined with CORPUS"),
            ("--run {run} -l {lex}", "--run cannot be combined with -l/--lexicon"),
            # the options a mode has no use for: --counts holds the counts
            # already, and a run's policy is in its run.json
            ("--counts {counts} --cased", "--counts cannot be combined with --cased"),
            (
                "--counts {counts} --case-policy unitex_like",
                "--counts cannot be combined with --case-policy",
            ),
            (
                "--counts {counts} --case-policy exact --cased --run {run}",
                "--counts cannot be combined with --run, --cased, --case-policy",
            ),
            ("--run {run} --case-policy exact", "--run cannot be combined with --case-policy"),
            (
                "--run {run} --cased --case-policy unitex_like",
                "--run cannot be combined with --case-policy",
            ),
        ],
        ids=[
            "counts-run", "counts-corpus", "run-corpus", "run-lexicon", "counts-cased",
            "counts-case-policy", "counts-all", "run-case-policy", "run-cased-case-policy",
        ],
    )
    def test_coverage_refuses_mixed_modes(
        self, fixtures_dir, neymar_bin, tmp_path, capsys, argv, conflict
    ):
        # each input is valid on its own, so no mode can be dropped unseen
        paths = {
            "counts": tmp_path / "counts.json", "run": tmp_path / "run",
            "corpus": fixtures_dir / "neymar.txt", "lex": neymar_bin,
        }
        paths["counts"].write_text(json.dumps([
            {"types_total": 4, "types_unknown": 1, "tokens_total": 9, "tokens_unknown": 2}
        ]), encoding="utf-8")
        assert main([
            "apply", str(paths["corpus"]), "-l", str(neymar_bin), "-o", str(paths["run"])
        ]) == 0
        capsys.readouterr()
        code, stdout, stderr = run_cli(
            capsys, "coverage", *(arg.format(**paths) for arg in argv.split())
        )
        assert code == 2
        assert stdout == ""
        assert stderr == f"lexcov: coverage: {conflict}\n"

    @pytest.mark.parametrize(
        "argv", ["", "-l {lex}", "{corpus}"], ids=["none", "lexicon", "corpus"]
    )
    def test_coverage_without_input(self, fixtures_dir, neymar_bin, capsys, argv):
        paths = {"corpus": fixtures_dir / "neymar.txt", "lex": neymar_bin}
        code, stdout, stderr = run_cli(
            capsys, "coverage", *(arg.format(**paths) for arg in argv.split())
        )
        assert code == 2
        assert stdout == ""
        assert stderr == "lexcov: coverage: need --counts, --run, or --lexicon with corpus\n"


# every lexcov command imports lexcov.cli first; no command needs these
# modules, and each would add to its start-up time (shutil, which argparse's
# help formatter imports for the terminal width, brings bz2 and lzma)
HEAVY_MODULES = (
    "dataclasses", "inspect", "ast", "pathlib", "datetime", "typing",
    "shutil", "bz2", "lzma", "decimal", "glob",
)


# the layers of compile, apply, classify and direct coverage, and the
# standard modules only they use (hashlib loads OpenSSL): a command that
# reads a run or diffs two versions does not load them
LAYER_MODULES = (
    "lexcov.automaton", "lexcov.preprocess", "lexcov.dico", "lexcov.classify",
    "hashlib", "zlib", "unicodedata",
)


def _modules_after(call, modules):
    """The ``modules`` loaded once a fresh ``python -S`` child has run
    ``import lexcov.cli`` and then the statements ``call``."""
    probe = (
        f"import sys, lexcov.cli\n{call}\n"
        f"print(*sorted(m for m in {modules!r} if m in sys.modules), file=sys.stderr)"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stderr.splitlines()[-1].split()


def _main_call(argv):
    """The statements that run ``lexcov.cli.main(argv)`` and check that it
    ends with exit code 0."""
    return (
        f"try:\n    code = lexcov.cli.main({argv!r})\n"
        f"except SystemExit as exc:\n    code = exc.code\n"
        f"assert code == 0, code"
    )


def test_cli_import_loads_no_heavy_module():
    call = "lexcov.cli.build_parser()"
    assert _modules_after(call, HEAVY_MODULES + LAYER_MODULES) == []


def test_diff_loads_no_heavy_module(fixtures_dir):
    argv = ["diff", "-a", str(fixtures_dir / "neymar.dic"), "-b", str(fixtures_dir / "sample.dic")]
    assert _modules_after(_main_call(argv), HEAVY_MODULES + LAYER_MODULES) == []


class TestCommandImports:
    """Each command imports only the layers it runs."""

    @pytest.fixture
    def paths(self, fixtures_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["apply", str(fixtures_dir / "neymar.txt"),
                     "-l", str(fixtures_dir / "neymar.lex"), "-o", str(run)]) == 0
        counts = tmp_path / "counts.json"
        counts.write_text(
            '[{"types_total": 4, "types_unknown": 1, "tokens_total": 9, "tokens_unknown": 2}]'
        )
        capsys.readouterr()
        return {
            "dic": fixtures_dir / "neymar.dic", "txt": fixtures_dir / "neymar.txt",
            "lex": fixtures_dir / "neymar.lex", "run": run, "counts": counts,
            "out": tmp_path / "out",
        }

    @staticmethod
    def loaded(paths, argv, modules=LAYER_MODULES):
        argv = [arg.format(**paths) for arg in argv.split()]
        return _modules_after(_main_call(argv), modules)

    # build_parser() and diff are checked with the HEAVY_MODULES above;
    # coverage prints percentages, so it loads decimal
    @pytest.mark.parametrize(
        "argv", ["--version", "coverage --run {run} --run {run}", "coverage --counts {counts}"]
    )
    def test_run_readers_load_no_layer(self, paths, argv):
        assert self.loaded(paths, argv) == []

    def test_compile_loads_no_dico_or_classify(self, paths):
        argv = "compile {dic} -o {out}.lex"
        assert self.loaded(paths, argv, ("lexcov.dico", "lexcov.classify")) == []

    def test_apply_loads_no_classify(self, paths):
        argv = "apply {txt} -l {lex} -o {out}"
        assert self.loaded(paths, argv, ("lexcov.classify",)) == []


class TestPackageNames:
    """The package's names load on first use, each from its own module."""

    def test_names_are_their_modules(self):
        import importlib

        import lexcov

        for name in lexcov.__all__:
            home = importlib.import_module(f"lexcov.{lexcov._HOMES[name]}")
            assert getattr(lexcov, name) is getattr(home, name), name

    def test_import_star_binds_every_name(self):
        import lexcov

        namespace = {}
        exec("from lexcov import *", namespace)
        assert {name: namespace[name] for name in lexcov.__all__} == {
            name: getattr(lexcov, name) for name in lexcov.__all__
        }

    def test_unknown_name_raises_attribute_error(self):
        import lexcov

        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            lexcov.no_such_name
        with pytest.raises(ImportError):
            exec("from lexcov import no_such_name", {})

    def test_old_homes_keep_the_run_table_names(self):
        from lexcov import automaton, dico, preprocess, runtable

        assert automaton.CaseFoldPolicy is runtable.CaseFoldPolicy
        assert preprocess._StrEnum is runtable._StrEnum
        for name in ("TokenStatus", "DicoResult", "read_types"):
            assert getattr(dico, name) is getattr(runtable, name), name

    def test_benchmark_probe_imports_run(self):
        # perfbench/probe.py imports names from their old homes
        probe = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"
        tree = ast.parse(probe.read_text(encoding="utf-8"))
        imports = [
            node for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module.startswith("lexcov")
        ]
        assert imports
        namespace = {}
        exec(compile(ast.Module(imports, []), str(probe), "exec"), namespace)
        assert all(alias.name in namespace for node in imports for alias in node.names)


class TestEntryPoint:
    """``run()`` is what a command's process runs: it freezes the heap the
    imports made, and ``main()``, which long-lived callers use, leaves the
    collector as it is."""

    @staticmethod
    def child(code, *args):
        """The stdout and stderr of a fresh ``python -S -c code args``."""
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-S", "-c", code, *args],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        return done.stdout, done.stderr

    @pytest.fixture
    def argv(self, fixtures_dir):
        dicts = (str(fixtures_dir / name) for name in ("neymar.dic", "sample.dic"))
        return ["diff", "-a", next(dicts), "-b", next(dicts)]

    def test_run_freezes_the_import_heap(self, argv, capsys):
        out, err = self.child(
            "import gc, sys, lexcov.cli\n"
            "code = lexcov.cli.run(sys.argv[1:])\n"
            "print(code, gc.get_freeze_count(), file=sys.stderr)",
            *argv,
        )
        code, frozen = map(int, err.split())
        assert code == 0 and frozen > 0
        assert out == run_cli(capsys, *argv)[1]

    def test_module_runs_through_run(self, argv):
        # what `python -m lexcov.cli` runs
        _, err = self.child(
            "import gc, runpy, sys\n"
            "try:\n"
            "    runpy.run_module('lexcov.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.get_freeze_count(), file=sys.stderr)",
            *argv,
        )
        code, frozen = map(int, err.split())
        assert code == 0 and frozen > 0

    def test_main_leaves_the_collector_alone(self, argv, capsys):
        frozen = gc.get_freeze_count()
        assert run_cli(capsys, *argv)[0] == 0
        assert gc.get_freeze_count() == frozen

    def test_console_script_is_run(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
        assert scripts.splitlines() == ['lexcov = "lexcov.cli:run"']


# the top parser and each subcommand, with arguments that make it print a
# usage error
USAGE_ERRORS = [
    [], ["compile"], ["apply"], ["coverage", "--format"], ["classify"], ["diff"]
]


def _help_and_usage_texts(capsys):
    """The help text of the top parser and of each subcommand, and the usage
    error each prints."""
    texts = []
    for argv in USAGE_ERRORS:
        for args, code in ((argv[:1] + ["--help"], 0), (argv, 2)):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == code
            texts.append(capsys.readouterr())
    return texts


@pytest.mark.parametrize("terminal", [None, 0, 70], ids=["no-tty", "tty-0", "tty-70"])
@pytest.mark.parametrize("columns", [None, "0", "abc", "40", "57", "200"])
def test_help_matches_argparse_formatter(monkeypatch, capsys, columns, terminal):
    # the width lexcov's formatter computes is the one argparse's own
    # formatter gets from shutil.get_terminal_size
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)

    def terminal_size(fd):
        if terminal is None:
            raise OSError("not a terminal")
        return os.terminal_size((terminal, 24))

    monkeypatch.setattr(os, "get_terminal_size", terminal_size)
    texts = _help_and_usage_texts(capsys)
    monkeypatch.setattr("lexcov.cli._HelpFormatter", argparse.HelpFormatter)
    assert _help_and_usage_texts(capsys) == texts
