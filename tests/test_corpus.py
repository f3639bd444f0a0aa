"""The command line's output, checked against the stored corpus.

tests/corpus/ holds what scripts/corpus.py wrote: each command's stdout as
JSON and as text, and an index of argv and exit codes. The test writes the
corpus afresh and compares the two. Structure, keys, strings, error kinds,
integers and exit codes must match exactly; floats must agree to RTOL
relative, and a covariance entry to RTOL of its matrix's scale,
sqrt(v_ii v_jj), so that another numpy's or BLAS's summation order does not
fail the test. A fit's score norm is rounding noise at the solution: it is
not compared, but must lie within the fit's gradient tolerance on both
sides, and `converged` carries the verdict exactly. A change that moves an
entry on purpose rewrites the corpus with

    PYTHONPATH=src python scripts/corpus.py tests/corpus
"""

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

from rrdid.newton import FitOptions

ROOT = Path(__file__).resolve().parents[1]
STORED = ROOT / "tests" / "corpus"
# switching numpy's SIMD loops or OpenBLAS's kernels moves the corpus by up
# to 3e-11 relative (the replication of simulate_count_rep153 that has no
# finite optimum) and its estimates by up to 5e-13
RTOL = 1e-9
# the corpus's weights lie below 2, so no fit's total weight exceeds 2 n
MAX_WEIGHT = 2.0
# a number as the text renderers write one: an integer, a decimal or an exponent
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# an estimate's fit line, up to the score norm it prints
_FIT_LINE = re.compile(r"(n=(\d+), converged=True after \d+ iterations \(score norm )([^)]*)")


def load_corpus_script():
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "scripts" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _close(got, want, scale=0.0):
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=RTOL * scale)


def _score_bound(n_obs):
    """The largest gradient tolerance of a corpus fit on n_obs rows."""
    return FitOptions().gradient_tolerance * (1.0 + MAX_WEIGHT * n_obs)


def assert_small_score(got, want, where):
    bound = _score_bound(want["n_obs"])
    for fit in (got, want):
        assert 0.0 <= fit["score_norm"] <= bound, f"{where}: {fit['score_norm']!r} > {bound:.3g}"


def assert_same_vcov(got, want, where):
    assert len(got) == len(want) and all(len(row) == len(want) for row in got), \
        f"{where}: shapes differ"
    scale = [math.sqrt(abs(want[i][i])) for i in range(len(want))]
    for i, row in enumerate(want):
        for j, value in enumerate(row):
            assert _close(got[i][j], value, scale[i] * scale[j]), \
                f"{where}[{i}][{j}]: {got[i][j]!r} != {value!r}"


def assert_same_json(got, want, where):
    # canonical JSON writes an integral float without a fraction, so a float
    # may stand beside an int; two ints, bools and strings compare exactly
    numbers = (int, float)
    if (isinstance(got, numbers) and isinstance(want, numbers)
            and not isinstance(got, bool) and not isinstance(want, bool)
            and (isinstance(got, float) or isinstance(want, float))):
        assert _close(got, want), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            if key == "score_norm":
                assert_small_score(got, want, f"{where}.{key}")
            elif key == "vcov":
                assert_same_vcov(got[key], want[key], f"{where}.{key}")
            else:
                assert_same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_json(a, b, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _masked_score_norms(text, where):
    def mask(match):
        norm = float(match.group(3))
        assert 0.0 <= norm <= _score_bound(int(match.group(2))), f"{where}: score norm {norm}"
        return match.group(1) + "~"

    return _FIT_LINE.sub(mask, text)


def assert_same_text(got, want, where):
    # the words between numbers exactly; numbers with a point or an exponent
    # to RTOL, the rest exactly; a fit line's score norm within its bound
    got, want = (_masked_score_norms(text, where) for text in (got, want))
    assert _NUMBER.split(got) == _NUMBER.split(want), f"{where}: text differs"
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        if re.fullmatch(r"[-+]?\d+", b):
            assert a == b, f"{where}: {a} != {b}"
        else:
            assert _close(float(a), float(b)), f"{where}: {a} != {b}"


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    load_corpus_script().write_corpus(out, tmp_path_factory.mktemp("inputs"))
    return out


def test_corpus_lists_every_command(written):
    assert sorted(p.name for p in written.iterdir()) == sorted(p.name for p in STORED.iterdir())
    index = json.loads((written / "index.json").read_text())
    assert index == json.loads((STORED / "index.json").read_text())
    assert {entry["json_exit"] for entry in index.values()} == {0, 1, 2}


@pytest.mark.parametrize("name", sorted(json.loads((STORED / "index.json").read_text())))
def test_corpus_output_unchanged(written, name):
    got, want = ((d / f"{name}.json").read_text() for d in (written, STORED))
    if want:
        assert_same_json(json.loads(got), json.loads(want), name)
    else:
        assert got == want, name
    got, want = ((d / f"{name}.txt").read_text() for d in (written, STORED))
    assert_same_text(got, want, name)


def test_quoted_and_plain_twins_read_alike():
    # one file's rows written with CRLF line ends, with a byte-order mark,
    # with a quoted number and label column, and as R's write.csv writes them
    # (quoted header, row names and labels): np.loadtxt reads each, to one result
    twins = ["estimate_crlf", "estimate_bom", "estimate_quoted", "estimate_quoted_r"]
    results = [json.loads((STORED / f"{name}.json").read_text())["results"] for name in twins]
    for result in results:
        assert result.pop("input") == {"rows": 300, "reader": "loadtxt", "declined": None}
    assert all(result == results[0] for result in results)


def test_corpus_comparison_refuses_a_moved_number():
    want = {"fit": {"estimate": 0.5, "n_obs": 20, "kind": "sandwich"}}
    assert_same_json({"fit": {"estimate": 0.5 * (1 + 1e-10), "n_obs": 20.0,
                              "kind": "sandwich"}}, want, "fit")
    for moved in ({"estimate": 0.5 * (1 + 1e-8)}, {"n_obs": 21}, {"kind": "cluster_sandwich"}):
        with pytest.raises(AssertionError):
            assert_same_json({"fit": {**want["fit"], **moved}}, want, "fit")
    assert_same_text("treat 0.084 (se 0.211), n=2000", "treat 0.084 (se 0.211), n=2000", "t")
    for moved in ("treat 0.085 (se 0.211), n=2000", "treat 0.084 (se 0.211), n=2001",
                  "treat 0.084 (se 0.211) n=2000"):
        with pytest.raises(AssertionError):
            assert_same_text(moved, "treat 0.084 (se 0.211), n=2000", "t")


def test_corpus_comparison_takes_rounding_noise():
    # a score norm at rounding level, and a covariance that is zero but for
    # rounding, may move; a score norm past the tolerance and a covariance
    # moved at the matrix's scale may not
    want = {"n_obs": 2000, "score_norm": 2.73e-12, "converged": True,
            "vcov": [[0.002, 9.2e-20], [9.2e-20, 0.008]]}
    noise = {"score_norm": 4.55e-13, "vcov": [[0.002, 1.1e-19], [1.1e-19, 0.008]]}
    assert_same_json({**want, **noise}, want, "fit")
    for moved in ({"score_norm": 1e-3}, {"converged": False},
                  {"vcov": [[0.002, 1e-10], [1e-10, 0.008]]}, {"vcov": [[0.002, 0.0]]}):
        with pytest.raises(AssertionError):
            assert_same_json({**want, **moved}, want, "fit")
    line = "ols: n=2000, converged=True after 0 iterations (score norm {}), vcov=sandwich"
    assert_same_text(line.format("9.09e-13"), line.format("2.73e-12"), "t")
    for moved in (line.format("0.001"), line.format("2.73e-12").replace("2000", "2001"),
                  line.format("2.73e-12").replace("True", "False")):
        with pytest.raises(AssertionError):
            assert_same_text(moved, line.format("2.73e-12"), "t")


def test_exact_comparison_names_each_moved_file(tmp_path):
    corpus = load_corpus_script()
    here, there = tmp_path / "here", tmp_path / "there"
    for directory in (here, there):
        directory.mkdir()
        (directory / "same.json").write_text('{"sd": 0.25, "n": 20}\n')
    (here / "moved.json").write_text('{"sd": 0.5000000000000001, "n": 20}\n')
    (there / "moved.json").write_text('{"sd": 0.5, "n": 20}\n')
    (here / "worded.txt").write_text("sd 0.5 over 20 reps\n")
    (there / "worded.txt").write_text("sd 0.5 over 20 replications\n")
    (there / "extra.txt").write_text("")
    # a count (no point, no exponent) that changed is named apart from the
    # floats' movement, which a count does not enter
    (here / "counted.json").write_text('{"redraws": 3, "sd": 0.5, "exit": 0}\n')
    (there / "counted.json").write_text('{"redraws": 4, "sd": 0.5, "exit": 0}\n')
    (here / "both.txt").write_text("failed 2 of 40, sd 0.25\n")
    (there / "both.txt").write_text("failed 1 of 40, sd 0.5\n")
    (here / "exponent.json").write_text('{"rmse": 1e-05, "n": 20}\n')
    (there / "exponent.json").write_text('{"rmse": 2e-05, "n": 20}\n')
    assert corpus.compare_exact(here, there) == [
        "both.txt: counts differ, largest relative movement 0.5",
        "counted.json: counts differ",
        "exponent.json: largest relative movement 0.5",
        f"extra.txt: only in {there}",
        "moved.json: largest relative movement 2.22e-16",
        "worded.txt: differs beyond its numbers",
    ]
    assert corpus.compare_exact(here, here) == []
    with pytest.raises(SystemExit):
        corpus.main([])
