import contextlib
import gc
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from random import Random

import pytest

import seifert as sf
from seifert.cli import main
from support import (int_digit_limit, mutated, random_move_word,
                     random_valid, with_epsilon)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "normalize", "{0;(o1,0,(0,0));(|);((5,7))}")
        assert code == 0
        assert out.strip() == "{1;(o1,0,(0,0));(|);((5,2))}"

    def test_normalize_json(self, capsys):
        code, out, _ = run(capsys, "normalize", "--json",
                           "{0;(o1,0,(0,0));(|);((5,7))}")
        assert code == 0
        doc = json.loads(out)
        assert doc["normalized"] == "{1;(o1,0,(0,0));(|);((5,2))}"

    def test_eq(self, capsys):
        code, out, _ = run(capsys, "eq", "{1;(n1,2,(0,0));(|);((3,1))}",
                           "{0;(n1,2,(0,0));(|);((3,2))}")
        assert code == 0 and out.strip() == "equivalent"
        code, out, _ = run(capsys, "eq", "{0;(n1,1,(0,0));(0|);}",
                           "{0;(o1,0,(1,0));(0|);}")
        assert code == 0 and out.strip() == "not equivalent"

    def test_bound_text_and_json(self, capsys):
        code, out, _ = run(capsys, "bound", "{0;(n1,1,(0,0));(|);}")
        assert code == 0
        assert "value: 1" in out and "RP2xS1" in out
        code, out, _ = run(capsys, "bound", "--json", "{1;(n1,1,(0,0));(|);}")
        doc = json.loads(out)
        assert doc["value"] == 0 and doc["exact"] is True
        assert doc["case_tag"] == "S2twistS1"

    def test_bound_prints_sharper_family_note(self, capsys):
        _, out, _ = run(capsys, "bound",
                        "{-1;(o1,0,(0,0));(|);((2,1),(3,1),(4,1))}")
        assert "note:" in out

    def test_info(self, capsys):
        code, out, _ = run(capsys, "info", "{0;(o,4,(1,1));(1|0);((3,1),(5,2))}")
        assert code == 0
        assert "orientable: no" in out
        assert "base euler characteristic: -6" in out

    def test_conjecture(self, capsys):
        code, out, _ = run(capsys, "conjecture", "{0;(n1,2,(0,0));(|);((2,1))}")
        assert code == 0 and "9" in out
        code, out, _ = run(capsys, "conjecture", "{0;(n1,1,(0,0));(|);}")
        assert code == 0 and "not applicable" in out
        code, _, err = run(capsys, "conjecture", "{3;(o1,0,(0,0));(|);}")
        assert code == 2

    def test_bound_json_is_pinned(self, capsys):
        # the record fields appear in their declared order
        code, out, err = run(capsys, "bound", "--json",
                             "{-2;(o1,0,(0,0));(|);((3,1))}")
        assert code == 0 and err == ""
        assert out == """\
{
  "params": "{-2;(o1,0,(0,0));(|);((3,1))}",
  "normalized": "{1;(o1,0,(0,0));(|);((3,2))}",
  "value": 1,
  "case_tag": "Lens_bpq",
  "exact": false,
  "label": "L(5,2)",
  "note": null
}
"""

    def test_info_json_is_pinned(self, capsys):
        code, out, err = run(capsys, "info", "--json",
                             "{0;(n,2,(1,1));(0|2);((3,1),(5,2))}")
        assert code == 0 and err == ""
        assert out == """\
{
  "params": "{0;(n,2,(1,1));(0|2);((3,1),(5,2))}",
  "normalized": "{0;(n,2,(1,1));(0|2);((3,1),(5,2))}",
  "orientable": false,
  "closed": false,
  "euler_char_base": 0,
  "boundary_profile": {
    "tori": 1,
    "klein_regular": 0,
    "klein_with_exceptional": 2,
    "exceptional_annuli": 2
  },
  "orbifold_summary": {
    "genus": 2,
    "orientable_base": false,
    "cone_points": [
      [
        3,
        1
      ],
      [
        5,
        2
      ]
    ],
    "reflector_circles": 1,
    "reflector_arcs": 2,
    "underlying_boundary_components": 3,
    "minus_decorations": 2
  }
}
"""

    def test_import_loads_no_introspection_modules(self):
        # a one-shot call pays for every module the CLI imports
        src = Path(__file__).resolve().parent.parent / "src"
        script = ("import sys; sys.path.insert(0, sys.argv[1]); "
                  "import seifert.cli; "
                  "print(' '.join(sorted(sys.modules)))")
        out = subprocess.run([sys.executable, "-S", "-c", script, str(src)],
                             capture_output=True, text=True, check=True,
                             timeout=60).stdout.split()
        assert "seifert.cli" in out
        # and json, which only the --json paths import, and __future__,
        # which no module of the package imports
        loaded = ({"dataclasses", "inspect", "ast", "dis", "tokenize", "json",
                   "typing", "__future__"} & set(out))
        assert loaded == set()

    def test_one_shot_loads_no_census(self):
        # a one-shot command compiles only the modules it runs; census
        # loads on first use
        src = Path(__file__).resolve().parent.parent / "src"
        for module in ("seifert", "seifert.cli"):
            script = ("import sys; sys.path.insert(0, sys.argv[1]); "
                      f"import {module}; "
                      "print(' '.join(sorted(sys.modules)))")
            out = subprocess.run(
                [sys.executable, "-S", "-c", script, str(src)],
                capture_output=True, text=True, check=True,
                timeout=60).stdout.split()
            assert module in out and "seifert.census" not in out
        # python -i keeps the child alive past main's sys.exit and reads
        # its last lines from stdin, so the modules are those of a real
        # python -m process; its __main__ is seifert.__main__
        listed = ("import sys\n"
                  "print(*sorted(m.__spec__.name for m in list(sys.modules.values())"
                  " if getattr(m, '__spec__', None)"
                  " and m.__spec__.name.partition('.')[0] == 'seifert'))\n")
        proc = subprocess.run(
            [sys.executable, "-i", "-m", "seifert", "bound",
             "{0;(n1,1,(0,0));(|);}"],
            input=listed, capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)))
        lines = proc.stdout.splitlines()
        assert "value: 1" in lines
        assert lines[-1].split() == [
            "seifert", "seifert.__main__", "seifert.cli", "seifert.complexity",
            "seifert.core", "seifert.normal_form", "seifert.notation"]

    # the public names of the package, by the module that defines them
    PUBLIC = {
        "census": ["CensusFormatError", "CensusRecord", "ComparisonReport",
                   "ComparisonRow", "compare", "enumerate_nonorientable_closed",
                   "enumerate_pairs_by_budget", "ingest_census"],
        "complexity": ["conjectured_complexity", "sharper_bound_note",
                       "upper_bound", "zero_complexity_corollary_check"],
        "core": ["ORIENTABLE_AWAY_FROM_SE", "BoundaryProfile", "CaseTag",
                 "ComplexityBound", "Epsilon", "FibredSolidTorusType",
                 "NormalizedSeifertParams", "OrbifoldSummary", "SeifertParams",
                 "boundary_profile", "cf_sum", "euler_char_base", "is_closed",
                 "is_orientable", "orbifold_summary", "validate"],
        "normal_form": ["absorb_unit_pairs", "equivalent", "insert_unit_pair",
                        "mirror", "normalize", "reflect_pair",
                        "solid_torus_equivalent", "twist"],
        "notation": ["ParseError", "format_params", "parse_params"],
    }

    def test_public_api_is_unchanged(self):
        # in a fresh interpreter, so that census is not loaded yet
        src = Path(__file__).resolve().parent.parent / "src"
        script = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from importlib import import_module
import seifert
found = {"dir": sorted(set(seifert.__all__) - set(dir(seifert))),
         "pairs": seifert.census.enumerate_pairs_by_budget(5)}
star = {}
exec("from seifert import *", star)
found["star"] = sorted(set(seifert.__all__) - set(star))
found["not_home"] = sorted(
    name for home, names in json.loads(sys.argv[2]).items() for name in names
    if getattr(seifert, name) is not getattr(import_module("seifert." + home), name))
try:
    seifert.no_such_name
except AttributeError as exc:
    found["unknown"] = str(exc)
print(json.dumps(found))
"""
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, str(src),
             json.dumps(self.PUBLIC)],
            capture_output=True, text=True, timeout=60)
        assert proc.stderr == ""
        assert sorted(sf.__all__) == sorted(
            name for names in self.PUBLIC.values() for name in names)
        assert json.loads(proc.stdout) == {
            "dir": [],
            "pairs": [list(pq) for pq in sf.enumerate_pairs_by_budget(5)],
            "star": [],
            "not_home": [],
            "unknown": "module 'seifert' has no attribute 'no_such_name'",
        }


# sha256 of the answers of main to oneshot_corpus(), one line each: the
# argv, exit code, stdout and stderr of the call
PINNED_ONESHOT = (
    "ed9144d0e369861dff526a847e829d7410983542ee7f1a1592ee9d293f6c9251")


def oneshot_corpus() -> list[list[str]]:
    """About 2,800 command lines of the one-shot commands, text and
    --json: random valid sets, census entries rewritten by move words,
    mutated spellings and swapped eps words (parse errors and invalid
    sets), and sets each command refuses or answers specially.  No integer comes near the
    digit cap, so the answers do not depend on the interpreter."""
    rng = Random(47)
    entries = [P for P, _ in sf.enumerate_nonorientable_closed(9)]
    texts = ["{0;(n1,1,(0,0));(|);}", "{3;(o1,0,(0,0));(|);((2,1),(3,1))}",
             "{0;(o1,0,(1,0));(0|);((3,1))}", "{0;(n,2,(1,1));(0|2);((3,1))}",
             "{0;(n4,1,(0,1));(|);((4,2))}", "{0;(o1,0,(0,0);(|);}"]
    pairs = []
    for _ in range(60):
        P = rng.choice(entries)
        raw = sf.format_params(random_valid(rng))
        moved = sf.format_params(random_move_word(rng, P, 4))
        again = sf.format_params(random_move_word(rng, P, 4))
        texts += [raw, moved, mutated(rng, raw), mutated(rng, moved),
                  with_epsilon(raw, rng.choice(["o", "o1", "n1", "n4"]))]
        pairs += [(moved, again), (raw, moved), (mutated(rng, again), raw)]
    argvs = [[command, text] for text in texts
             for command in ("normalize", "bound", "info", "conjecture")]
    argvs += [["eq", left, right] for left, right in pairs]
    return [argv[:1] + flags + argv[1:]
            for argv in argvs for flags in ([], ["--json"])]


def test_oneshot_answers_are_pinned(capsys):
    # every answer of the one-shot commands as one digest: a change to
    # how the CLI writes must leave it unchanged
    answers = [(argv, *run(capsys, *argv)) for argv in oneshot_corpus()]
    codes = [code for _, code, _, _ in answers]
    assert len(answers) > 2500
    assert all(codes.count(code) > 100 for code in (0, 1, 2))
    digest = hashlib.sha256(
        "\n".join(map(repr, answers)).encode()).hexdigest()
    assert digest == PINNED_ONESHOT


class TestExitCodes:
    def test_parse_error_is_one(self, capsys):
        code, _, err = run(capsys, "normalize", "{0;(o1,0,(0,0);(|);}")
        assert code == 1 and "parse error" in err

    def test_unknown_eps_word_is_named_whole(self, capsys):
        code, out, err = run(capsys, "bound", "{0;(N1,1,(0,0));(|);}")
        assert code == 1 and out == ""
        assert err == ("parse error at position 4: unknown symbol 'N1'; "
                       "expected one of o, o1, o2, n, n1, n2, n3, n4\n")

    def test_usage_error_is_one(self, capsys):
        # no reverse command: the canonical form forgets orientation, so
        # normalize already answers for the mirror image
        for argv in (["no-such-command"],
                     ["reverse", "{3;(o1,0,(0,0));(|);}"]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert "invalid choice" in err

    def test_validation_failure_is_two(self, capsys):
        code, _, err = run(capsys, "normalize", "{0;(n4,1,(0,0));(|);}")
        assert code == 2 and "n4 requires g >= 3" in err

    def test_validation_failure_lists_every_problem(self, capsys):
        code, out, err = run(capsys, "normalize",
                             "{0;(n4,1,(0,1));(|);((4,2))}")
        assert code == 2 and out == ""
        assert err == ("invalid parameters:\n"
                       "  pair (4,2) is not coprime\n"
                       "  k = 1 exceeds t = 0\n"
                       "  k + m- is odd\n"
                       "  epsilon is o or n exactly when k + m- > 0\n"
                       "  n4 requires g >= 3\n")

    def test_valid_argument_is_validated_once(self, capsys, monkeypatch):
        calls = []

        def counting_validate(params):
            calls.append(params)
            return sf.validate(params)

        monkeypatch.setattr("seifert.cli.validate", counting_validate)
        monkeypatch.setattr("seifert.normal_form.validate", counting_validate)
        code, _, _ = run(capsys, "bound", "{0;(n1,2,(0,0));(|);((2,1))}")
        assert code == 0
        assert len(calls) == 1


class TestCensusCommands:
    def test_gen_stdout(self, capsys):
        code, out, _ = run(capsys, "census", "gen", "--cmax", "1")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 3
        assert lines[0].split("\t")[0] == "{0;(n1,1,(0,0));(|);}"

    def test_gen_json_and_out_file(self, capsys, tmp_path):
        target = tmp_path / "census.json"
        code, out, _ = run(capsys, "census", "gen", "--cmax", "0",
                           "--json", "--out", str(target))
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["count"] == 2
        assert {e["label"] for e in doc["entries"]} == {"S2 x~ S1"}

    def test_check_sharp_file(self, capsys, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_text(
            "RP2xS1\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\n"
            "X\t{0;(n3,2,(0,0));(|);((3,2))}\t10\tburton\n")
        code, out, _ = run(capsys, "census", "check", "--file", str(table))
        assert code == 0
        assert "sharp: 2" in out and "violations: 0" in out

    def test_check_violation_exit_code(self, capsys, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_text("bad\t{1;(n1,1,(0,0));(|);}\t5\tnormalized\n")
        code, out, _ = run(capsys, "census", "check", "--file", str(table))
        assert code == 3 and "violation" in out

    def test_check_json(self, capsys, tmp_path):
        table = tmp_path / "table.tsv"
        # one name JSON escapes, recorded with two fibrations
        odd = 'q"\\ \u00e9\u2028\U0001F600'
        table.write_text(
            "opt\t{0;(n1,2,(0,0));(|);((2,1))}\t7\tnormalized\n"
            f"{odd}\t{{0;(n1,1,(0,0));(|);}}\t1\tnormalized\n"
            f"{odd}\t{{0;(n3,2,(0,0));(|);((3,2))}}\t10\tburton\n",
            encoding="utf-8")
        code, out, _ = run(capsys, "census", "check", "--json",
                           "--file", str(table))
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["status"] == "overestimate(by 2)"
        assert doc["summary"]["overestimates"] == 1
        assert [row["name"] for row in doc["rows"]] == ["opt", odd, odd]
        assert len(doc["notes"]) == 1
        # the layout is that of json.dumps(doc, indent=2)
        assert out == json.dumps(doc, indent=2) + "\n"

    def test_check_malformed_file_is_two(self, capsys, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_text("only two\tfields\n")
        code, _, err = run(capsys, "census", "check", "--file", str(table))
        assert code == 2 and "line 1" in err
        # a bad row after good ones: the rows already graded are not
        # printed either
        good = ("# a comment\n"
                "RP2xS1\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\n"
                "opt\t{0;(n1,2,(0,0));(|);((2,1))}\t7\tburton\n")
        for bad, fragment in [
                ("only two\tfields", "expected 4 tab-separated fields"),
                ("a\t{0;(n1,1,(0,0));(|)}\t1\tnormalized", "parse error"),
                ("a\t{0;(n4,1,(0,0));(|);}\t1\tnormalized",
                 "invalid parameters"),
                ("a\t{0;(n1,1,(0,0));(|);}\tx\tnormalized", "not an integer"),
                ("a\t{0;(n1,1,(0,0));(|);}\t1\tregina", "unknown convention"),
        ]:
            table.write_text(good + bad + "\n" + good)
            # --cmax filters graded rows; every row is still read
            for flags in ((), ("--json",), ("--cmax", "0")):
                code, out, err = run(capsys, "census", "check",
                                     "--file", str(table), *flags)
                assert (code, out) == (2, "")
                assert f"{table}: line 4: " in err and fragment in err

    def test_check_skips_a_byte_order_mark(self, capsys, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_bytes(b"\xef\xbb\xbf# exported with a BOM\n"
                          b"RP2xS1\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\n")
        code, out, _ = run(capsys, "census", "check", "--file", str(table))
        assert code == 0
        assert out.startswith("RP2xS1\t{0;(n1,1,(0,0));(|);}\t")

    def test_check_missing_file_is_one(self, capsys, tmp_path):
        # a file that cannot be read is reported as such, never as a
        # failed write
        for path in (tmp_path / "absent.tsv", tmp_path):
            code, out, err = run(capsys, "census", "check", "--file",
                                 str(path))
            assert (code, out) == (1, "")
            assert err.startswith(f"cannot read {path}: ")

    @pytest.mark.parametrize("argv,digest", [
        (("--cmax", "15"), "b67935a82b9c73fb519b9f4607133a9aff87e79874635cd2ad1e69b1bc265af4"),
        (("--cmax", "12", "--json"), "ac98e6413cd80347f319b927737393b682387217eb51173bf6f1b7fd9b554e27"),
        # at budgets 3 to 5 the pair (2,1) costs more than budget - 3, so
        # it stands alone and the walk lists it apart from the pool
        (("--cmax", "5"), "54a3da8b96f403378630b17cd43df1e4c7f4477572e618b0dd042edcb95d3d10"),
        (("--cmax", "16"), "e8c80a081d66d4cf3de2e268309c180b902f6e338a7039cf988b4009eefe7eca"),
    ], ids=["text", "json", "lone-2-1", "text-16"])
    def test_gen_output_is_pinned(self, capsys, argv, digest):
        code, out, err = run(capsys, "census", "gen", *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_gen_lines_agree_with_the_library(self, capsys):
        for c in range(17):
            code, out, err = run(capsys, "census", "gen", "--cmax", str(c))
            entries = sf.enumerate_nonorientable_closed(c)
            assert code == 0 and err == ""
            assert out.splitlines()[2:] == [
                f"{sf.format_params(P)}\t{bound.value}\t{bound.case_tag.value}"
                f"\t{'yes' if bound.exact else 'no'}\t{bound.label or '-'}"
                for P, bound in entries]

    def test_gen_json_agrees_with_the_library(self, capsys):
        for c in range(13):
            code, out, err = run(capsys, "census", "gen", "--cmax", str(c),
                                 "--json")
            entries = sf.enumerate_nonorientable_closed(c)
            assert code == 0 and err == ""
            assert json.loads(out) == {
                "cmax": c, "count": len(entries),
                "entries": [{"params": sf.format_params(P),
                             "value": bound.value,
                             "case_tag": bound.case_tag.value,
                             "exact": bound.exact, "label": bound.label}
                            for P, bound in entries]}
            # the layout, written by hand, is that of json.dumps(doc, indent=2)
            assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_gen_count_is_the_number_listed(self, capsys):
        # the count is printed before the first entry is walked, so it
        # is not counted off the listing
        for c in range(18):
            code, out, _ = run(capsys, "census", "gen", "--cmax", str(c))
            header, _, *lines = out.splitlines()
            assert code == 0
            assert header == (f"# closed non-orientable census, bound <= {c} "
                              f"({len(lines)} entries)")
        for c in (0, 3, 9, 14):
            code, out, _ = run(capsys, "census", "gen", "--cmax", str(c),
                               "--json")
            doc = json.loads(out)
            assert code == 0 and doc["count"] == len(doc["entries"])

    def test_gen_formats_once_per_shape_and_b(self, capsys, monkeypatch):
        # an entry with pairs is spelled from its shape's printed head, so
        # format_params must not run once per entry
        import seifert.census
        import seifert.notation

        calls = []
        original = seifert.notation.format_params

        def counted(params):
            calls.append(params)
            return original(params)

        for module in (sf, seifert.census, seifert.cli, seifert.notation):
            monkeypatch.setattr(module, "format_params", counted)
        code, out, _ = run(capsys, "census", "gen", "--cmax", "12")
        monkeypatch.undo()
        assert code == 0
        forms = [sf.parse_params(line.split("\t")[0])
                 for line in out.splitlines()[2:]]
        assert len(forms) == 2079
        shapes = {P[1:5] for P in forms}
        pairless = sum(1 for P in forms if not P.pairs)
        assert 0 < len(calls) <= 2 * len(shapes) + pairless

    @staticmethod
    def _check_table() -> str:
        # every budget-8 entry spelled raw, in both conventions, some
        # recorded below their bound; one violation; names that record
        # two fibrations (out of name order, and one of them only without
        # --cmax) and one that records one fibration in two spellings;
        # comments and blank lines
        lines = ["# pinned census check table", ""]
        entries = sf.enumerate_nonorientable_closed(8)
        for i, (P, bound) in enumerate(entries):
            raw = sf.insert_unit_pair(P, i % 5 - 2 or 3)
            if P.pairs:
                raw = sf.twist(raw, 1, i % 3 - 1)
            recorded = max(bound.value - (i % 4 == 1) * (i % 3 + 1), 0)
            lines.append(f"e{i}\t{sf.format_params(raw)}\t{recorded}\t"
                         f"{('normalized', 'burton')[i % 2]}")
            if i % 40 == 7:
                lines += ["  # a comment inside the table", "", "\t "]
        (a, _), (b, _), (c, _) = entries[3], entries[50], entries[90]
        last, bound = entries[-1]
        lines += [
            f"violation\t{sf.format_params(last)}\t{bound.value + 3}\tburton",
            f"zz\t{sf.format_params(a)}\t0\tnormalized",
            f"same\t{sf.format_params(c)}\t0\tnormalized",
            f"zz\t{sf.format_params(b)}\t0\tburton",
            f"aa\t{sf.format_params(b)}\t0\tburton",
            f"same\t{sf.format_params(sf.insert_unit_pair(c, 1))}\t0\tburton",
            f"aa\t{sf.format_params(c)}\t0\tnormalized",
            f"zz\t{sf.format_params(sf.insert_unit_pair(a, -1))}\t0\tburton",
            # two fibrations, one of them above --cmax 6
            f"yy\t{sf.format_params(a)}\t0\tnormalized",
            f"yy\t{sf.format_params(b)}\t9\tnormalized",
        ]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("argv,code,digest", [
        ((), 3, "93b6075bc0f97352ee5742ec8587d4b00d8799e59992e5bce0678d24e3113af1"),
        (("--json",), 3, "71d930fe44a6e4247c90ae120fa8d4b198437613cb89f63d2683aa7d5fc62c35"),
        (("--cmax", "6"), 0, "4708a37064a1b978def933e3b702e09dff1f54e19216a9e0b39a90e555e2a775"),
        (("--cmax", "6", "--json"), 0, "6892df548894bf71f70be7b8f27db06a2d875ebf62d4687e2b3d0662b90b6f10"),
    ], ids=["text", "json", "cmax-text", "cmax-json"])
    def test_check_output_is_pinned(self, capsys, tmp_path, argv, code,
                                    digest):
        table = tmp_path / "table.tsv"
        table.write_text(self._check_table(), encoding="utf-8")
        got, out, err = run(capsys, "census", "check", "--file", str(table),
                            *argv)
        assert (got, err) == (code, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # a byte-order mark; lines ended by \r\n, \r, \n and none; form
    # feed, \x1c and U+2028, which end a line for str.splitlines but not
    # in a file read in text mode; a name recorded with two fibrations;
    # a sharp row, an overestimate and a violation
    LINE_ENDS_TABLE = (
        "\ufeffform\x0cfeed\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\r\n"
        "sep\x1c\u2028\t{0;(o1,0,(1,0));(|);}\t0\tnormalized\r"
        "# a comment\r\n"
        "X\t{0;(n3,2,(0,0));(|);((3,2))}\t8\tburton\n"
        "sep\x1c\u2028\t{0;(n1,2,(0,0));(|);((2,1))}\t10\tnormalized")

    @pytest.mark.parametrize("text,cmax,code", [
        (None, None, 3), (None, 6, 0), (LINE_ENDS_TABLE, None, 3),
    ], ids=["all", "cmax-6", "line-ends"])
    def test_check_agrees_with_compare(self, capsys, tmp_path, text, cmax,
                                       code):
        # the command folds the graded rows into its report itself; the
        # report must be the one compare builds from the same table, and
        # the command must split its file into lines as ingest_census
        # splits a string (None: the pinned table)
        text = text or self._check_table()
        table = tmp_path / "table.tsv"
        table.write_bytes(text.encode("utf-8"))
        report = sf.compare(sf.ingest_census(text), cmax)
        argv = ["census", "check", "--file", str(table)]
        if cmax is not None:
            argv += ["--cmax", str(cmax)]

        lines = [f"{row.name}\t{sf.format_params(row.normalized)}\t"
                 f"recorded={row.recorded}\tbound={row.bound.value}\t"
                 f"{row.status}" for row in report.rows]
        lines.append(f"rows: {len(report.rows)}  sharp: {report.sharp}  "
                     f"overestimates: {len(report.overestimates)}  "
                     f"violations: {report.violations}")
        lines += [f"overestimate: {row.name} [{row.bound.case_tag.value}] "
                  f"{row.status}" for row in report.overestimates]
        lines += [f"note: {note}" for note in report.notes]
        assert run(capsys, *argv) == (code, "\n".join(lines) + "\n", "")

        doc = {
            "rows": [{
                "name": row.name,
                "normalized": sf.format_params(row.normalized),
                "recorded": row.recorded,
                "bound": row.bound._asdict(),
                "status": row.status,
            } for row in report.rows],
            "summary": {
                "rows": len(report.rows),
                "sharp": report.sharp,
                "overestimates": len(report.overestimates),
                "violations": report.violations,
            },
            "notes": list(report.notes),
        }
        assert run(capsys, *argv, "--json") == (
            code, json.dumps(doc, indent=2) + "\n", "")

    @pytest.mark.parametrize("text,argv", [
        ("# only comments\n\n  # and blank lines\n", ()),
        ("RP2xS1\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\n"
         "opt\t{0;(n1,2,(0,0));(|);((2,1))}\t7\tburton\n", ("--cmax", "0")),
    ], ids=["comments-only", "all-above-cmax"])
    def test_check_json_with_no_rows(self, capsys, tmp_path, text, argv):
        table = tmp_path / "table.tsv"
        table.write_text(text, encoding="utf-8")
        doc = {"rows": [],
               "summary": {"rows": 0, "sharp": 0, "overestimates": 0,
                           "violations": 0},
               "notes": []}
        assert run(capsys, "census", "check", "--json", "--file", str(table),
                   *argv) == (0, json.dumps(doc, indent=2) + "\n", "")

    @pytest.mark.parametrize("flags,bytes_per_row", [
        # measured on this table (tracemalloc peak / rows): text 942 when
        # every record and graded row was kept until the end, 717 when
        # the records alone were, 389 when only the report's text is
        # kept; --json 3,006, 866 and 535
        ((), 600),
        (("--json",), 700),
    ], ids=["text", "json"])
    def test_check_memory_grows_with_the_report(self, tmp_path, flags,
                                                bytes_per_row):
        rng = Random(13)
        entries = sf.enumerate_nonorientable_closed(10)
        lines = []
        while len(lines) < 2000:
            if rng.random() < 0.5:
                P, bound = rng.choice(entries)
                P, value = random_move_word(rng, P, 4), bound.value
            else:
                P, value = random_valid(rng), 0
            lines.append(f"n{len(lines)}\t{sf.format_params(P)}\t{value}\t"
                         f"{('normalized', 'burton')[len(lines) % 2]}\n")
        table = tmp_path / "table.tsv"
        table.write_text("".join(lines), encoding="utf-8")
        argv = ["census", "check", "--file", str(table), *flags]
        # the first call compiles the notation pattern and imports json;
        # the output goes to the null device, so that only the command's
        # own memory is traced
        with open(os.devnull, "w") as sink:
            with contextlib.redirect_stdout(sink):
                assert main(argv) == 0
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(sink):
                    code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < bytes_per_row * len(lines)

    def test_gen_round_trips_through_check(self, capsys, tmp_path):
        # feed the generated census back in as a table of recorded values
        code, out, _ = run(capsys, "census", "gen", "--cmax", "3")
        entries = [l.split("\t") for l in out.splitlines()
                   if l and not l.startswith("#")]
        table = tmp_path / "table.tsv"
        table.write_text("".join(
            f"row{i}\t{params}\t{value}\tnormalized\n"
            for i, (params, value, *_) in enumerate(entries)))
        code, out, _ = run(capsys, "census", "check", "--file", str(table))
        assert code == 0
        assert f"sharp: {len(entries)}" in out


class TestCheckInRanges:
    """census check grades a large regular file in byte ranges, in forked
    workers; every split must give the report of one range, byte for
    byte, and the errors of one range, at the same line."""

    FLAGS = [(), ("--json",), ("--cmax", "5"), ("--json", "--cmax", "5")]

    @staticmethod
    def _table() -> bytes:
        # 2,000 rows behind a byte-order mark, their lines ended by \r\n,
        # a lone \r or \n in turn; comments and blank lines; sharp rows,
        # overestimates and a violation; "thrice" recorded with three
        # fibrations, one near the start and two, which a range of their
        # own notes too, near the end; a name that starts with U+FEFF,
        # which only line 1 drops
        entries = sf.enumerate_nonorientable_closed(8)
        lines = ["\ufeff# a table graded in ranges"]
        for i in range(2000):
            P, bound = entries[i % len(entries)]
            name = {3: "thrice", 1000: "\ufeffmid", 1989: "thrice",
                    1990: "thrice"}.get(i, f"r{i}")
            recorded = bound.value - (i % 7 == 3) * (i % 3 + 1)
            if i == 1500:
                recorded = bound.value + 1
            raw = sf.insert_unit_pair(P, i % 5 - 2 or 3)
            lines.append(f"{name}\t{sf.format_params(raw)}\t"
                         f"{max(recorded, 0)}\t"
                         f"{('normalized', 'burton')[i % 2]}")
            if i % 97 == 5:
                lines += ["  # a comment", ""]
        return "".join(line + ("\r\n", "\r", "\n")[i % 3]
                       for i, line in enumerate(lines)).encode("utf-8")

    @staticmethod
    def _workers(monkeypatch, range_bytes: int | None, cpus: int = 3):
        # grade every table in ranges of about range_bytes on cpus
        # workers, or in one range if range_bytes is None; the list
        # returned gets the (workers, ranges) that _ranges picks per call
        import seifert.census as census

        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(census, "_PARALLEL_BYTES",
                            1 if range_bytes else 1 << 60)
        monkeypatch.setattr(census, "_RANGE_BYTES", range_bytes or 1)
        chosen = []
        ranges = census._ranges

        def spied(path):
            workers, spans = ranges(path)
            chosen.append((workers, len(spans)))
            return workers, spans

        monkeypatch.setattr(census, "_ranges", spied)
        return chosen

    def _answers(self, capsys, monkeypatch, table, range_bytes, flags):
        chosen = self._workers(monkeypatch, range_bytes)
        answers = [run(capsys, "census", "check", "--file", str(table), *f)
                   for f in flags]
        monkeypatch.undo()
        assert multiprocessing.active_children() == []
        return answers, chosen

    @pytest.mark.parametrize("range_bytes", [5, 300, 40_000])
    def test_every_split_gives_the_same_report(self, capsys, monkeypatch,
                                              tmp_path, range_bytes):
        table = tmp_path / "table.tsv"
        table.write_bytes(self._table())
        whole, chosen = self._answers(capsys, monkeypatch, table, None,
                                      self.FLAGS)
        assert chosen == [(1, 1)] * len(self.FLAGS)
        assert [code for code, _, _ in whole] == [3, 3, 0, 0]
        assert "note: records named 'thrice' normalize to 3" in whole[0][1]
        assert "\noverestimate: r10 [" in whole[0][1]
        assert "\n\ufeffmid\t" in whole[0][1]
        split, chosen = self._answers(capsys, monkeypatch, table,
                                      range_bytes, self.FLAGS)
        assert all(workers == 3 and spans >= 3 for workers, spans in chosen)
        assert split == whole

    @pytest.mark.parametrize("bad,fragment", [
        (b"r1700\tonly three\tfields", "expected 4 tab-separated fields"),
        (b"r1700\t{0;(n1,1,(0,0));(|);}\t1\tnorm\xffalized",
         "byte 0xff is not valid UTF-8"),
    ], ids=["malformed", "bad-utf8"])
    def test_an_error_in_a_late_range_names_its_line(
            self, capsys, monkeypatch, tmp_path, bad, fragment):
        lines = self._table().split(b"\n")
        lines[-40] = bad
        table = tmp_path / "table.tsv"
        table.write_bytes(b"\n".join(lines))
        flags = [(), ("--json",)]
        whole, _ = self._answers(capsys, monkeypatch, table, None, flags)
        for range_bytes in (5, 300, 40_000):
            split, chosen = self._answers(capsys, monkeypatch, table,
                                          range_bytes, flags)
            assert all(workers == 3 for workers, _ in chosen)
            assert split == whole
        code, out, err = whole[0]
        assert (code, out) == (2, "")
        assert fragment in err and f"line {whole_line(table, bad)}:" in err

    def test_the_first_malformed_row_wins(self, capsys, monkeypatch,
                                          tmp_path):
        # the two malformed rows lie in different ranges, whichever of
        # them is graded first
        rows = "".join(f"r{i}\t{{0;(n1,1,(0,0));(|);((3,1))}}\t4\tburton\n"
                       for i in range(200))
        table = tmp_path / "table.tsv"
        table.write_text(rows + "a\t{0;(n1,1,(0,0));(|)}\t1\tnormalized\n"
                         + rows + "late\tx\n")
        for range_bytes in (5, 300, 4_000):
            answers, chosen = self._answers(capsys, monkeypatch, table,
                                            range_bytes, [()])
            assert chosen[0][0] == 3
            assert answers == [(2, "", f"{table}: line 201: parse error at "
                                "position 19: expected ';', found '}'\n")]

    def test_a_pipe_is_graded_in_one_process(self, capsys, monkeypatch,
                                             tmp_path):
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes")
        table = tmp_path / "table.tsv"
        table.write_bytes(self._table())
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        chosen = self._workers(monkeypatch, 300)
        answers = []
        for flags in self.FLAGS:
            # a writer of its own process, as a thread here would keep
            # this process from forking anyway
            writer = subprocess.Popen(
                [sys.executable, "-c", "import sys; open(sys.argv[2], 'wb')"
                 ".write(open(sys.argv[1], 'rb').read())",
                 str(table), str(fifo)])
            try:
                answers.append(run(capsys, "census", "check", "--file",
                                   str(fifo), *flags))
            finally:
                assert writer.wait(timeout=60) == 0
        assert chosen == [(1, 1)] * len(self.FLAGS)
        monkeypatch.undo()
        split, _ = self._answers(capsys, monkeypatch, table, 300, self.FLAGS)
        assert answers == split

    def test_one_cpu_grades_in_one_process(self, capsys, monkeypatch,
                                           tmp_path):
        table = tmp_path / "table.tsv"
        table.write_bytes(self._table())
        chosen = self._workers(monkeypatch, 300, cpus=1)
        answers = [run(capsys, "census", "check", "--file", str(table), *f)
                   for f in self.FLAGS]
        assert chosen == [(1, 1)] * len(self.FLAGS)
        monkeypatch.undo()
        whole, _ = self._answers(capsys, monkeypatch, table, None,
                                 self.FLAGS)
        assert answers == whole

    def test_a_process_with_threads_grades_in_one_process(
            self, capsys, monkeypatch, tmp_path):
        # a forked worker would hold none of the other threads, nor the
        # locks they hold
        table = tmp_path / "table.tsv"
        table.write_bytes(self._table())
        chosen = self._workers(monkeypatch, 300)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        waiter.start()
        try:
            answer = run(capsys, "census", "check", "--file", str(table))
        finally:
            release.set()
            waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert chosen == [(1, 1)]
        monkeypatch.undo()
        whole, _ = self._answers(capsys, monkeypatch, table, None, [()])
        assert [answer] == whole

    @pytest.mark.parametrize("argv", [
        ["bound", "{0;(n1,1,(0,0));(|);}"],
        ["census", "check", "--file", "table.tsv"],
        ["census", "check", "--file", "table.tsv", "--json"],
    ], ids=["one-shot", "small-table", "small-table-json"])
    def test_small_work_loads_no_multiprocessing(self, tmp_path, argv):
        # as test_one_shot_loads_no_census: python -i lists the modules
        # of a real python -m process after main has run
        (tmp_path / "table.tsv").write_bytes(self._table())
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-i", "-m", "seifert", *argv],
            input="import sys\nprint('multiprocessing' in sys.modules)\n",
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)))
        lines = proc.stdout.splitlines()
        assert len(lines) > 1 and lines[-1] == "False"


def whole_line(table: Path, text: bytes) -> int:
    """The line of the file table, counted as a file read in text mode
    counts them, that holds text."""
    with open(table, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, 1):
            if text.decode("utf-8", "surrogateescape") in line:
                return lineno
    raise AssertionError(f"{text!r} not in {table}")


class TestInProcessCalls:
    def test_second_call_leaves_no_cyclic_garbage(self, tmp_path):
        # a long-lived caller of main should not feed the cyclic collector
        # on every call.  The --json paths are left out: the encoder of
        # json.dumps(..., indent=2) leaves closures of its own.
        table = tmp_path / "table.tsv"
        table.write_text("RP2xS1\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\n"
                         "X\t{0;(n3,2,(0,0));(|);((3,2))}\t10\tburton\n")
        params = "{0;(n1,2,(0,0));(|);((2,1))}"
        orientable = "{-1;(o1,0,(0,0));(|);((2,1),(3,1),(5,2))}"
        for argv in (["normalize", params], ["eq", params, orientable],
                     ["bound", params], ["info", params],
                     ["conjecture", params],
                     ["census", "gen", "--cmax", "8"],
                     ["census", "gen", "--cmax", "8",
                      "--out", str(tmp_path / "census.tsv")],
                     ["census", "check", "--file", str(table)]):
            with open(os.devnull, "w") as sink, \
                    contextlib.redirect_stdout(sink):
                # the first call builds what every later call reuses
                assert main(argv) == 0
                gc.collect()
                gc.disable()
                try:
                    assert main(argv) == 0
                    garbage = gc.collect()
                finally:
                    gc.enable()
            assert garbage == 0, argv


class TestHostileInput:
    @pytest.mark.skipif(not int_digit_limit(), reason="int() reads any length")
    def test_huge_integer_is_a_parse_error(self, capsys):
        huge = "9" * (int_digit_limit() + 1)
        code, out, err = run(capsys, "bound", "{%s;(n1,1,(0,0));(|);}" % huge)
        assert code == 1 and out == ""
        assert "parse error at position 1: integer has too many digits" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(not int_digit_limit(), reason="int() reads any length")
    def test_huge_integer_in_census_row(self, capsys, tmp_path):
        huge = "9" * (int_digit_limit() + 1)
        table = tmp_path / "table.tsv"
        table.write_text("ok\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\n"
                         "big\t{%s;(n1,1,(0,0));(|);}\t1\tburton\n" % huge)
        code, _, err = run(capsys, "census", "check", "--file", str(table))
        assert code == 2
        assert "line 2: parse error at position 1" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(not int_digit_limit(), reason="int() reads any length")
    @pytest.mark.parametrize("command", [("census", "gen"),
                                         ("census", "check", "--file", "t")])
    def test_budget_beyond_the_digit_limit_names_it(self, capsys, command):
        # an integer, so not refused as something else, and its digits
        # are not echoed
        limit = int_digit_limit()
        code, out, err = run(capsys, *command, "--cmax", "9" * (limit + 1))
        assert code == 1 and out == ""
        assert err.endswith("argument --cmax: expected an integer >= 0 of "
                            f"at most {limit} digits\n")

    def test_undecodable_byte_names_its_line(self, capsys, tmp_path):
        table = tmp_path / "table.tsv"
        table.write_bytes(b"# caf\xc3\xa9 is fine\n"
                          b"ok\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\n"
                          b"bad\t{0;(n1,1,(0,0));(|);}\t1\tnorm\xffalized\n")
        code, out, err = run(capsys, "census", "check", "--file", str(table))
        assert code == 2 and out == ""
        assert "line 3: byte 0xff is not valid UTF-8" in err
        assert "Traceback" not in err

    def test_unwritable_out_is_one(self, capsys, tmp_path, monkeypatch):
        # reported before the census is enumerated
        def walk_nothing(c_max):
            raise AssertionError("census walked before opening --out")

        monkeypatch.setattr("seifert.census._census_heads", walk_nothing)
        target = tmp_path / "absent-dir" / "census.tsv"
        code, out, err = run(capsys, "census", "gen", "--cmax", "14",
                             "--out", str(target))
        assert code == 1 and out == ""
        assert f"cannot write {target}" in err
        assert "Traceback" not in err

    def test_empty_out_is_one(self, capsys, monkeypatch):
        # an empty path names no file, as census check --file '' does,
        # and is not taken for stdout
        def walk_nothing(c_max):
            raise AssertionError("census walked before opening --out")

        monkeypatch.setattr("seifert.census._census_heads", walk_nothing)
        code, out, err = run(capsys, "census", "gen", "--cmax", "3",
                             "--out", "")
        assert code == 1 and out == ""
        assert err.startswith("cannot write : ")
        assert "Traceback" not in err

    @pytest.mark.skipif(not int_digit_limit(), reason="int() reads any length")
    @pytest.mark.parametrize("argv", [
        # the label L(b*p+q,p) would have more digits than str() prints
        ("bound", "{%(n)s;(o1,0,(0,0));(|);((9,1))}"),
        # the normalized b = 10^limit would have one digit too many
        ("normalize", "{%(n)s;(o1,0,(0,0));(|);((1,1))}"),
        # every integer within half the limit, b*p+q still beyond it
        ("bound", "{%(h)s;(o1,0,(0,0));(|);((1,%(h)s),(%(h)s,1))}"),
    ])
    def test_printed_values_stay_within_the_digit_limit(self, capsys, argv):
        limit = int_digit_limit()
        digits = {"n": "9" * limit, "h": "9" * (limit // 2)}
        command, template = argv
        code, out, err = run(capsys, command, template % digits)
        assert code == 1 and out == ""
        assert "integer has too many digits" in err
        assert "Traceback" not in err

    def test_absurd_gen_budget_is_refused(self, capsys, tmp_path,
                                          monkeypatch):
        # refused before the walk starts and before --out is opened
        def walk_nothing(c_max):
            raise AssertionError("census walked at an absurd budget")

        monkeypatch.setattr("seifert.census._census_heads", walk_nothing)
        target = tmp_path / "census.tsv"
        for budget in ("25", "1000000000000"):
            code, out, err = run(capsys, "census", "gen", "--cmax", budget,
                                 "--out", str(target))
            assert code == 1 and out == ""
            assert "census gen takes a budget of at most 24" in err
            assert "Traceback" not in err
            assert not target.exists()
        # census check --cmax only filters rows, so any budget goes
        table = tmp_path / "table.tsv"
        table.write_text("RP2xS1\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\n")
        code, out, _ = run(capsys, "census", "check", "--file", str(table),
                           "--cmax", "1000000000000")
        assert code == 0 and "sharp: 1" in out

    def test_closed_stdout_is_one(self):
        # the listing is far larger than a pipe buffer, so the writer is
        # still writing when the reader leaves
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        with subprocess.Popen(
                [sys.executable, "-m", "seifert", "census", "gen",
                 "--cmax", "14"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert first.startswith(b"# closed non-orientable census")
        assert code == 1
        assert "Traceback" not in err and "Exception ignored" not in err
        assert "cannot write stdout" in err

    def test_stdout_closed_at_start_is_one(self):
        # with fd 1 closed before the interpreter starts, sys.stdout is None
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        start = ("import os, sys; os.close(1); "
                 "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])")
        proc = subprocess.run(
            [sys.executable, "-c", start, "-m", "seifert", "bound",
             "{0;(n1,1,(0,0));(|);}"],
            stderr=subprocess.PIPE, env=env, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == (
            "cannot write stdout: [Errno 9] Bad file descriptor\n")

    @pytest.mark.parametrize("flags,code", [((), 1), (("--json",), 0)],
                             ids=["text", "json"])
    def test_name_that_stdout_cannot_encode(self, tmp_path, flags, code):
        # the text spells the name as it is; JSON escapes it
        (tmp_path / "table.tsv").write_text(
            "caf\u00e9\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\n",
            encoding="utf-8")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="ascii")
        proc = subprocess.run(
            [sys.executable, "-m", "seifert", "census", "check", "--file",
             "table.tsv", *flags],
            capture_output=True, cwd=tmp_path, env=env, text=True,
            timeout=60)
        assert proc.returncode == code
        if code:
            assert proc.stderr.startswith(
                "cannot write stdout: 'ascii' codec can't encode")
            assert proc.stderr.count("\n") == 1
        else:
            assert proc.stderr == ""
            assert '"name": "caf\\u00e9"' in proc.stdout

    def test_name_that_stdout_cannot_encode_leaves_stdout_empty(self,
                                                                tmp_path):
        # the rows before the bad name are spelled too, but none is written
        (tmp_path / "table.tsv").write_text(
            "RP2xS1\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\n"
            "twisted\t{1;(n1,1,(0,0));(|);}\t0\tnormalized\n"
            "caf\u00e9\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\n",
            encoding="utf-8")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="ascii")
        proc = subprocess.run(
            [sys.executable, "-m", "seifert", "census", "check", "--file",
             "table.tsv"],
            capture_output=True, cwd=tmp_path, env=env, text=True,
            timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(
            "cannot write stdout: 'ascii' codec can't encode")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full to fill")
    @pytest.mark.parametrize("argv", [
        ("bound", "{0;(n1,1,(0,0));(|);}"),
        ("census", "gen", "--cmax", "10"),
        ("census", "check", "--file", "table.tsv", "--json"),
    ], ids=["bound", "census-gen", "census-check"])
    def test_full_stdout_is_one(self, tmp_path, argv):
        # a short answer fails when main flushes it, a long listing while
        # it is written; either way one line on stderr and exit 1
        (tmp_path / "table.tsv").write_text(
            "RP2xS1\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "seifert", *argv],
                                  stdout=full, stderr=subprocess.PIPE,
                                  cwd=tmp_path, env=env, text=True,
                                  timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == (
            "cannot write stdout: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full to fill")
    @pytest.mark.parametrize("unbuffered", ["1", ""],
                             ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [
        ("--help",), ("census", "check", "--help"),
    ], ids=["root", "census-check"])
    def test_help_to_full_stdout_is_one(self, argv, unbuffered):
        # argparse drops a failed help write and exits 0, or leaves it to
        # the flush at exit; main reports it like any other answer
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONUNBUFFERED=unbuffered)
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "seifert", *argv],
                                  stdout=full, stderr=subprocess.PIPE,
                                  env=env, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == (
            "cannot write stdout: [Errno 28] No space left on device\n")

    def test_help_is_an_answer(self, capsys):
        code, out, err = run(capsys, "census", "gen", "--help")
        assert code == 0 and err == ""
        assert out.startswith("usage: seifert census gen [-h] [--json]")

    @pytest.mark.parametrize("argv", [
        ("census", "gen", "--cmax", "-3"),
        ("census", "check", "--file", "table.tsv", "--cmax", "-1"),
        ("census", "gen", "--cmax", "ten"),
    ] + [
        # int() reads each of these as 10
        (*command, "--cmax", budget)
        for command in [("census", "gen"),
                        ("census", "check", "--file", "table.tsv")]
        for budget in ["1_0", "\u0661\u0660", "+10", " 10"]
    ] + [
        # more digits than int() reads
        pytest.param((*command, "--cmax", "9" * (int_digit_limit() + 1)),
                     id=f"{command[1]}-beyond-digit-limit",
                     marks=pytest.mark.skipif(not int_digit_limit(),
                                              reason="int() reads any length"))
        for command in [("census", "gen"),
                        ("census", "check", "--file", "table.tsv")]
    ])
    def test_budget_must_be_a_non_negative_integer(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "argument --cmax: expected an integer >= 0" in err
        assert "Traceback" not in err
