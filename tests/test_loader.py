"""The CSV loader's np.loadtxt reader against the row-by-row parser it falls back to."""

import json
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrdid import DesignSpec, build_design, fit_multinomial_logit, fit_poisson_qmle
from rrdid import io as csv_io
from rrdid.blocks import _cluster_codes, _number_pairs
from rrdid.cli import load_csv_dataset, run_cli
from rrdid.errors import ColumnBindingError

# column role -> fields both readers accept
PLAIN = {
    "number": ["0", "1", "2.5", "-3", "1e-3", " 4 ", "\t5", "-0", "0.1", "1e400", "nan",
               "inf", "-Infinity", "9007199254740993", "123456789012345678901234567890",
               " 6", "7\u3000"],
    "group": ["0", "1", " 1", "0.0", "1e0", "-0", "+1", "01"],
    "period": ["2001", "2002", "2003", " 2002 ", "2001.0", "2003.5", "-0", "+2002", "\u30002003"],
    "weight": ["1", "0.5", "2.25", " 3"],
    "cluster": ["a", "b", " a ", "\u00fc", "c#", "x y", "\u6f22", "#", "a\u3000"],
    # integer values; 1.0, 2e0 and 2**63 fail the i8 pass
    "label": ["0", "1", "2", "-0", "+1", " 2 ", "01", "\u30001", "1.0", "2e0",
              "9223372036854775808"],
    "other": ["", "z", "#", "1_0", "\u00e9", "\u6f22", "\u30002003"],
}
# fields at least one reader rejects or reads differently
ODD = {
    "number": ["", " ", "1_000", "\u0661\u0662", "\uff11", "#1", "1#", "a", "0x10", "1e",
               '"1"', '"1,5"', "1 2", "nan(1)", '"2\n"', "1\x00"],
    "cluster": ["", "  ", '"q"', '"a,b"', "\u3000", "ab\x00", "a" * 131_073, '"x\ny"'],
}
# period labels from 2**52 on, where only the text shows a fraction, and
# past 2**53 or int64
BIG_PERIODS = ["4503599627370496.5", "4503599627370496", "4503599627370497",
               "-4503599627370497.0", "4.5035996273704965e15", "9007199254740991",
               "9223372036854775807", "-9223372036854775808", "9223372036854775808", "1e19"]
ROLES = {"y": "number", "g": "group", "t": "period", "w": "weight", "c": "cluster",
         "x": "number", "z": "other", "k": "label"}
# a field, or a header name, quoted where csv.reader and np.loadtxt read a
# quote differently, or holding a separator: a space before the opening quote
# or after the closing one, a quote left open, a quote mid-field, a doubled
# quote, and a quoted comma, LF or CRLF
MISQUOTED = [' "{}"', '"{}" ', '"{}', '{}"', 'a"{}"', '"{}""x"', '"{}"""', '""""{}',
             '"{},1"', '"{}\n"', '"\r\n{}"']
# each flaw alone sends a file to the row parser, or must leave its result
# unchanged; CRLF line ends and a byte-order mark keep a file plain
FLAWS = ["field", "field", "short", "long", "blank", "crlf", "cr", "crcrlf", "lone_cr",
         "final_cr", "mixed_crlf", "bom", "not_utf8", "header_only", "missing_column",
         "big_period", "big_period", "misquoted", "misquoted"]
PLAIN_FLAWS = {"crlf", "mixed_crlf", "bom"}
NOT_UTF8 = "\ue000"        # stands for a byte that is not UTF-8


@st.composite
def csv_files(draw):
    """(file bytes, bindings, plain): a CSV with every bound column and only
    fields and lines both readers accept, some of them, header names
    included, quoted as a whole, as R's write.csv quotes them, then up to two
    flaws; a file whose only flaws are CRLF line ends is plain. With
    class_labels, the outcome holds integer values, as a multinomial's do."""
    # a group or period column also bound as a number is read as floats
    class_labels = draw(st.booleans())
    bindings = {"outcome": "g" if draw(st.integers(0, 5)) == 0 else "k" if class_labels else "y",
                "group": "g", "period": "t",
                "weights": "w" if draw(st.booleans()) else None,
                "cluster": "c" if draw(st.booleans()) else None,
                "covariates": draw(st.sampled_from([(), ("x",), ("t",), ("x", "g")])),
                "class_labels": class_labels}
    bound = {bindings["outcome"], "g", "t", *bindings["covariates"],
             *(b for b in (bindings["weights"], bindings["cluster"]) if b)}
    flaws = draw(st.lists(st.sampled_from(FLAWS), max_size=2))

    extra = draw(st.lists(st.sampled_from(sorted({"y", "w", "c", "x", "z", "k"} - bound)),
                          unique=True))
    names = draw(st.permutations(sorted(bound) + extra))
    if "missing_column" in flaws:
        names.remove(draw(st.sampled_from(sorted(bound))))
    if draw(st.booleans()):
        names.append(draw(st.sampled_from(names)))          # duplicate header name
    # fields quoted as a whole stay plain: none, all, or each by a coin
    quoting = draw(st.sampled_from(["none", "some", "all"]))

    def plain(choices):
        field = draw(st.sampled_from(choices))
        quote = quoting == "all" or quoting == "some" and draw(st.booleans())
        return f'"{field}"' if quote else field

    header = [plain([n, f" {n}", f"{n} "]) for n in names]
    rows = [[plain(PLAIN[ROLES[n]]) for n in names]
            for _ in range(0 if "header_only" in flaws else draw(st.integers(1, 5)))]

    for flaw in flaws:
        row = draw(st.sampled_from([header, *rows] if flaw == "misquoted" else rows or [[]]))
        if not row:
            continue
        j = draw(st.integers(0, len(row) - 1))
        if flaw == "field":
            role = ROLES[names[j]] if j < len(names) else "other"
            row[j] = draw(st.sampled_from(ODD.get(role, ODD["number"])))
        elif flaw == "misquoted":
            row[j] = draw(st.sampled_from(MISQUOTED)).format(row[j].strip('"'))
        elif flaw == "not_utf8":
            row[j] += NOT_UTF8
        elif flaw == "short":
            row.pop()
        elif flaw == "long":
            row.append("9")
        elif flaw == "big_period" and "t" in names[:len(row)]:
            row[names.index("t")] = draw(st.sampled_from(BIG_PERIODS))
        elif flaw == "lone_cr":
            # inside a field, or at either end of it
            at = draw(st.integers(0, len(row[j])))
            row[j] = row[j][:at] + "\r" + row[j][at:]
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if "blank" in flaws:
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = {"crlf": "\r\n", "cr": "\r", "crcrlf": "\r\r\n"}
    newline = next((newline[f] for f in flaws if f in newline), "\n")
    if "mixed_crlf" in flaws:
        # some lines end in CRLF and the others in LF
        ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
        text = "".join(line + end for line, end in zip(lines, ends))
        text = text if draw(st.booleans()) else text.removesuffix(ends[-1])
    else:
        text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    if "final_cr" in flaws:
        # a lone CR at the very end of the file
        text += "\r"
    data = text.encode("utf-8").replace(NOT_UTF8.encode("utf-8"), b"\xff")
    if "bom" in flaws:
        data = b"\xef\xbb\xbf" + data
    return data, bindings, set(flaws) <= PLAIN_FLAWS


def _load_fast(path, bindings):
    """_load's result on the np.loadtxt reader, and whether that left the file
    to the row parser."""
    with mock.patch.object(csv_io, "_read_rows", wraps=csv_io._read_rows) as read_rows:
        result = _load(path, bindings, "fast")
    return result, read_rows.called


def _load(path, bindings, reader):
    """What load_csv_dataset returns or raises, in comparable form."""
    try:
        if reader == "row":
            with mock.patch.object(csv_io, "_read_columns", lambda *args: "patched"):
                dataset, labels, _ = load_csv_dataset(path, **bindings)
        else:
            dataset, labels, _ = load_csv_dataset(path, **bindings)
    except Exception as exc:  # noqa: BLE001 - any exception must match too
        return ("raised", type(exc), str(exc))
    arrays = {"y": dataset.y, "q": dataset.q, "t": dataset.t, "weights": dataset.weights,
              "clusters": dataset.clusters,
              **{f"covariate {k}": v for k, v in dataset.covariates.items()}}
    return ("loaded", labels, dataset.n_periods,
            {k: None if v is None else (v.dtype.str, v.shape, v.tobytes())
             for k, v in arrays.items()})


@settings(max_examples=400, deadline=None)
@given(csv_files())
def test_loader_matches_row_parser(case):
    data, bindings, plain = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        expected = _load(path, bindings, "row")
        result, slow = _load_fast(path, bindings)
        assert result == expected
        if plain:
            # a plain file must not leave the fast reader
            assert not slow
        if result[0] == "loaded":
            # the reader the input record names is the one that read the file
            source = load_csv_dataset(path, **bindings)[2]
            assert source["rows"] == result[3]["y"][1][0]
            assert (source["reader"] == "row_parser") == slow == (source["declined"] is not None)
        # the byte gate decides the same in blocks of about one line
        with mock.patch.object(csv_io, "_GATE_BLOCK", 1):
            assert _load_fast(path, bindings) == (expected, slow)


SURVEY = {"outcome": "visits", "group": "treated", "period": "year", "weights": "wt",
          "cluster": "psu", "covariates": ("x",)}


def _survey_lines(decimals=False):
    """A plain 200-row survey CSV's lines; with decimals, its group and period
    labels are written as 1.0 and 2016.0."""
    lines = ["visits,treated,year,wt,psu,x"]
    rng = np.random.default_rng(5)
    for i in range(200):
        group, year = str(i % 2), str(2016 + i % 6)
        if decimals:
            group, year = group.replace("1", "1.0"), year + ".0"
        lines.append(f"{rng.poisson(2)},{group},{year},{rng.integers(500, 2500) / 1000},"
                     f"psu-{i % 7:03d}é,{rng.standard_normal():.4f}")
    return lines


def _class_lines(first_label="0"):
    """A plain 120-row three-class CSV's lines, its first label written as
    first_label."""
    lines = ["y,g,t,w"]
    for i in range(120):
        lines.append(f"{(i * 7 + i // 3) % 3},{i % 2},{2016 + i // 2 % 3},{1 + i % 5 / 4}")
    lines[1] = f"{first_label},{lines[1].partition(',')[2]}"
    return lines


_CLASSES = {"outcome": "y", "group": "g", "period": "t", "weights": "w", "class_labels": True}


def _loadtxt_calls(monkeypatch):
    """The keyword arguments of every np.loadtxt call from now on."""
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


def _field_kinds(call, header):
    """Each column's dtype in one np.loadtxt call, by header name."""
    return {header[col]: np.dtype(kind).str for col, (_, kind) in zip(call["usecols"],
                                                                     call["dtype"])}


def _refuse_row_parser(monkeypatch):
    def refuse(*args):
        raise AssertionError("a plain CSV reached the row parser")

    monkeypatch.setattr(csv_io, "_read_rows", refuse)


def test_plain_csv_never_reaches_row_parser(tmp_path, monkeypatch):
    lines = _survey_lines()
    path = tmp_path / "plain.csv"
    path.write_text("\n".join(lines), encoding="utf-8")       # no final newline
    with mock.patch.object(csv_io, "_read_columns", lambda *args: "patched"):
        expected = load_csv_dataset(path, **SURVEY)

    _refuse_row_parser(monkeypatch)
    calls = _loadtxt_calls(monkeypatch)
    dataset, labels, _ = load_csv_dataset(path, **SURVEY)
    # one pass, which reads the group column as int8 and the period column
    # as int64; the cluster labels come from the byte gate, so no field is
    # a string
    assert len(calls) == 1
    assert _field_kinds(calls[0], lines[0].split(",")) == {
        "treated": "|i1", "year": "<i8", "visits": "<f8", "wt": "<f8", "x": "<f8"}
    assert not any(np.dtype(kind).kind in "SU" for _, kind in calls[0]["dtype"])
    assert labels == expected[1] == [2016, 2017, 2018, 2019, 2020, 2021]
    # both readers number the stripped labels as np.unique does
    codes = np.unique([line.split(",")[4].strip() for line in lines[1:]],
                      return_inverse=True)[1].reshape(-1).astype(np.int64)
    for clusters in (dataset.clusters, expected[0].clusters):
        assert clusters.dtype == np.int64
        np.testing.assert_array_equal(clusters, codes)
    assert dataset.covariates["x"].tobytes() == expected[0].covariates["x"].tobytes()
    # a cluster column also bound as a number is refused before either parser runs
    with pytest.raises(ColumnBindingError, match="'visits'"):
        load_csv_dataset(path, "visits", "treated", "year", cluster="visits")


def test_multinomial_csv_is_read_in_one_pass(tmp_path, monkeypatch, capsys):
    # the class labels join the integer fields of the one np.loadtxt pass
    lines = _class_lines()
    paths = {"plain": tmp_path / "plain.csv", "decimal": tmp_path / "decimal.csv"}
    paths["plain"].write_text("\n".join(lines) + "\n")
    paths["decimal"].write_text("\n".join(
        lines[:1] + [line.replace(",", ".0,", 1) for line in lines[1:]]) + "\n")
    expected = _load(paths["plain"], _CLASSES, "row")
    with monkeypatch.context() as patched:
        _refuse_row_parser(patched)
        calls = _loadtxt_calls(patched)
        assert _load(paths["plain"], _CLASSES, "fast") == expected
        assert len(calls) == 1
        assert _field_kinds(calls[0], lines[0].split(",")) == {
            "y": "<i8", "g": "|i1", "t": "<i8", "w": "<f8"}
    # labels written as 1.0 take the float pass, and the estimate is the same, byte for byte
    results = {}
    for name, path in paths.items():
        code = run_cli(["estimate", "--family", "multinomial", "--csv", str(path),
                        "--outcome", "y", "--group", "g", "--period", "t", "--weights", "w",
                        "--post", "2018", "--format", "json"])
        assert code == 0
        results[name] = json.loads(capsys.readouterr().out)["results"]
    assert results["plain"]["input"]["reader"] == "loadtxt"
    assert results["decimal"]["input"]["reader"] == "loadtxt_f8"
    assert json.dumps(results["plain"]["fit"]) == json.dumps(results["decimal"]["fit"])


def test_byte_order_mark_keeps_a_file_plain(tmp_path, monkeypatch):
    # Excel's "CSV UTF-8" export starts the file with a byte-order mark,
    # which is no part of the first column's name
    text = "\n".join(_survey_lines()) + "\n"
    paths = {}
    for name, prefix in [("plain", ""), ("bom", "\ufeff")]:
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(prefix + text, encoding="utf-8")
    assert paths["bom"].read_bytes().startswith(b"\xef\xbb\xbf")
    expected = _load(paths["plain"], SURVEY, "fast")
    assert expected[0] == "loaded"
    assert _load(paths["bom"], SURVEY, "row") == expected
    _refuse_row_parser(monkeypatch)
    assert _load(paths["bom"], SURVEY, "fast") == expected


def test_decimal_labels_take_the_float_pass(tmp_path, monkeypatch):
    paths = {}
    for name, decimals in [("plain", False), ("decimal", True)]:
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("\n".join(_survey_lines(decimals)) + "\n", encoding="utf-8")
    expected = _load(paths["plain"], SURVEY, "fast")
    assert expected[0] == "loaded"
    _refuse_row_parser(monkeypatch)
    calls = _loadtxt_calls(monkeypatch)
    # 2016.0 and 1.0 are no int64 literals: the second pass reads them as f8,
    # and the dataset is the same, bit for bit
    assert _load(paths["decimal"], SURVEY, "fast") == expected
    header = _survey_lines()[0].split(",")
    assert [_field_kinds(call, header)["year"] for call in calls] == ["<i8", "<f8"]
    assert set(_field_kinds(calls[1], header).values()) == {"<f8"}


@pytest.mark.parametrize("label", ["-0", "+1", " 1 ", "01", "-1", "2", "128", "1.0"])
def test_group_labels_in_the_int8_field(tmp_path, monkeypatch, label):
    # the group column's i1 field takes the integer literals an i8 field
    # takes, within -128..127; any other label fails the pass, and the
    # all-float pass reads it. Either way the dataset, or the error, is the
    # row parser's.
    path = tmp_path / "group.csv"
    path.write_text(f"y,g,t\n1,0,2001\n2,{label},2001\n1.5,0,2002\n2.5,1,2002\n")
    bindings = {"outcome": "y", "group": "g", "period": "t"}
    expected = _load(path, bindings, "row")
    assert (expected[0] == "loaded") == (label in ("-0", "+1", " 1 ", "01", "1.0"))
    _refuse_row_parser(monkeypatch)
    calls = _loadtxt_calls(monkeypatch)
    assert _load(path, bindings, "fast") == expected
    kinds = [_field_kinds(call, ["y", "g", "t"])["g"] for call in calls]
    assert kinds == (["|i1", "<f8"] if label in ("128", "1.0") else ["|i1"])


@pytest.mark.parametrize("label", ["-0", "+1", " 1 ", "01", "-1", "2", "128", "1.0",
                                   "9223372036854775808"])
def test_class_labels_in_the_int64_field(tmp_path, monkeypatch, label):
    # the class labels' i8 field takes integer literals within int64; 1.0
    # and 2**63 fail the pass, and the all-float pass reads them. Either way
    # the dataset, or the error, is the row parser's
    path = tmp_path / "classes.csv"
    path.write_text("\n".join(_class_lines(label)) + "\n")
    expected = _load(path, _CLASSES, "row")
    _refuse_row_parser(monkeypatch)
    calls = _loadtxt_calls(monkeypatch)
    assert _load(path, _CLASSES, "fast") == expected
    kinds = [_field_kinds(call, ["y", "g", "t", "w"])["y"] for call in calls]
    assert kinds == (["<i8", "<f8"] if label in ("1.0", "9223372036854775808") else ["<i8"])


def test_negative_zero_class_label_is_zero(tmp_path):
    # a class label's zero has no sign: -0 loads, and fits, as 0 on both readers
    paths = {}
    for name, label in [("zero", "0"), ("negative", "-0"), ("float", "-0.0")]:
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("\n".join(_class_lines(label)) + "\n")
    expected = _load(paths["zero"], _CLASSES, "fast")
    for path in paths.values():
        for reader in ("fast", "row"):
            assert _load(path, _CLASSES, reader) == expected
    spec = DesignSpec(post_period=2)
    fits = []
    for path in paths.values():
        dataset, _, _ = load_csv_dataset(path, **_CLASSES)
        fits.append(fit_multinomial_logit(build_design(dataset, spec), dataset.y,
                                          dataset.weights))
    for fit in fits[1:]:
        assert fit.coefficients.tobytes() == fits[0].coefficients.tobytes()
        assert fit.vcov.tobytes() == fits[0].vcov.tobytes()
    # without class_labels the outcome keeps float()'s -0.0
    plain = dict(_CLASSES, class_labels=False)
    assert load_csv_dataset(paths["negative"], **plain)[0].y[0].tobytes() == (
        np.float64(-0.0).tobytes())


@pytest.mark.parametrize("label", ["-9223372036854775808", "9223372036854775807"])
def test_int64_extremes_are_beyond_2_53(tmp_path, label):
    # np.abs of the smallest int64 is itself, which a one-sided bound would pass
    path = tmp_path / "extreme.csv"
    path.write_text(f"y,g,t\n1,0,{label}\n2,1,2001\n")
    bindings = {"outcome": "y", "group": "g", "period": "t"}
    message = "period column 't' must contain integers of magnitude below 2**53"
    # the fast reader reads the label as an int64, and load_csv_dataset rejects it
    assert _load_fast(path, bindings) == (("raised", ValueError, message), False)
    assert _load(path, bindings, "row") == ("raised", ValueError, message)


@pytest.mark.parametrize("labels, expected", [
    # from 2**52 on a fraction rounds away: only the text shows it
    (["4503599627370496.5", "4503599627370496"], None),
    (["-4503599627370497.0", "2001"], None),
    (["4503599627370497", "4503599627370496"], [4503599627370496, 4503599627370497]),
    (["2001.0", "2002"], [2001, 2002]),
])
def test_period_labels_at_2_52_need_integer_text(tmp_path, labels, expected):
    path = tmp_path / "labels.csv"
    path.write_text("y,g,t\n" + "".join(f"{i},{i % 2},{label}\n"
                                         for i, label in enumerate(labels * 2)))
    bindings = {"outcome": "y", "group": "g", "period": "t"}
    results = {reader: _load(path, bindings, reader) for reader in ("fast", "row")}
    assert results["fast"] == results["row"]
    if expected is None:
        assert results["row"] == ("raised", ValueError, "period column 't' must contain integers")
    else:
        assert results["row"][:2] == ("loaded", expected)


def test_group_bound_as_outcome_keeps_negative_zero(tmp_path):
    # the column is also the outcome, so it is read as floats: y keeps -0.0
    path = tmp_path / "zero.csv"
    path.write_text("g,t\n-0,2001\n1,2001\n0,2002\n1,2002\n")
    bindings = {"outcome": "g", "group": "g", "period": "t"}
    fast, slow = _load_fast(path, bindings)
    assert not slow
    assert fast == _load(path, bindings, "row")
    assert fast[3]["y"][2] == np.array([-0.0, 1.0, 0.0, 1.0]).tobytes()


def test_padded_cluster_labels_are_one_cluster(tmp_path):
    rng = np.random.default_rng(11)
    n = 240
    columns = (rng.poisson(2, n), np.arange(n) % 2, 2016 + rng.integers(0, 4, n),
               rng.integers(0, 9, n), rng.standard_normal(n))
    paths = {}
    for name, pads in [("plain", ["{}"]), ("padded", [" {}", "{} ", "{}"])]:
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("y,g,t,c,x\n" + "".join(
            f"{y},{g},{t},{pads[i % len(pads)].format(f'psu-{c}')},{x:.4f}\n"
            for i, (y, g, t, c, x) in enumerate(zip(*columns))))
    bindings = {"outcome": "y", "group": "g", "period": "t", "cluster": "c",
                "covariates": ("x",)}
    # " psu-1", "psu-1 " and "psu-1" get one code on both readers
    expected = _load(paths["plain"], bindings, "fast")
    assert expected[0] == "loaded"
    for reader in ("fast", "row"):
        assert _load(paths["padded"], bindings, reader) == expected
    spec = DesignSpec(post_period=3)
    fits = []
    for path in paths.values():
        dataset, _, _ = load_csv_dataset(path, **bindings)
        np.testing.assert_array_equal(dataset.clusters, np.unique(columns[3], return_inverse=True)[1])
        fits.append(fit_poisson_qmle(build_design(dataset, spec), dataset.y,
                                     clusters=dataset.clusters))
    assert fits[0].vcov_kind == "cluster_sandwich"
    assert fits[0].coefficients.tobytes() == fits[1].coefficients.tobytes()
    assert fits[0].vcov.tobytes() == fits[1].vcov.tobytes()


# label pieces: a shared prefix 0 to 12 bytes long, so that labels differ
# only in their last bytes or only past byte 8, then up to 4 characters of
# 1 to 3 UTF-8 bytes, whitespace among them: 1 to 24 bytes in all
_PREFIXES = ["", "a", "psu-", "psu-0000", "\u00fcber-\u00fc", "cluster-0000"]
_LABEL_CHARS = ["a", "b", "0", " ", "\t", "\u00fc", "\u6f22", "\u3000"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cluster_coder_matches_np_unique(data):
    # the reference numbers the decoded, stripped labels with np.unique
    prefix = data.draw(st.sampled_from(_PREFIXES))
    suffixes = st.lists(st.sampled_from(_LABEL_CHARS), max_size=4).map("".join)
    pool = data.draw(st.lists(suffixes, min_size=1, max_size=40, unique=True))
    rows = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=120))
    rows = data.draw(st.permutations(rows + list(range(len(pool)))))
    labels = np.array([(prefix + pool[i]).encode() for i in rows])
    assert 1 <= labels.itemsize <= 24
    distinct, inverse = csv_io._distinct_labels(labels)
    assert len(set(distinct.tolist())) == distinct.size == len(pool)
    np.testing.assert_array_equal(distinct[inverse], labels)
    stripped = [label.decode().strip() for label in labels.tolist()]
    codes = csv_io._code_clusters(labels)
    if not all(stripped):
        assert codes is None
    else:
        assert codes.dtype == np.int64
        np.testing.assert_array_equal(codes, np.unique(stripped, return_inverse=True)[1])


def test_cluster_coder_on_distinct_labels():
    # every label distinct: most rows own their bucket, and the rest take
    # the later tables
    labels = np.array([b"lab-%08d" % i for i in np.random.default_rng(3).permutation(50_000)])
    codes = csv_io._code_clusters(labels)
    np.testing.assert_array_equal(codes, np.unique(labels, return_inverse=True)[1])


def test_loader_codes_are_numbered_without_a_hash_or_a_sort(large_csv, monkeypatch):
    dataset, _, _ = load_csv_dataset(large_csv, "y", "g", "t", cluster="c")
    pairs, pair = _number_pairs(dataset.clusters, int(dataset.clusters.max()) + 1)

    def refuse(*args, **kwargs):
        raise AssertionError("the loader's cluster codes were hashed or sorted again")

    for name in ("unique", "sort", "argsort"):
        monkeypatch.setattr(np, name, refuse)
    codes, groups = _cluster_codes(dataset.clusters)
    np.testing.assert_array_equal(codes, pair)
    assert groups == pairs.size == 900


@pytest.mark.parametrize("data, bindings", [
    # an empty header line is no column at all to csv.reader
    (b"\n1\n0\n", ("", "", "")),
    # one column: a blank line has as many commas as any other
    (b"y\n1\n\n1\n", ("y", "y", "y")),
    (b"y\n1\n1\n\n", ("y", "y", "y")),
    (b"y\n1\n  \n", ("y", "y", "y")),
    # blank lines made of CRs
    (b"y,g,t\r\r\n1,0,1\r\r\n", ("y", "g", "t")),
    (b"y,g,t\n1,0,1\n\r\n", ("y", "g", "t")),
    # cluster labels np.loadtxt reads differently: quoted, with a NUL, too long for csv
    (b'y,g,t,c\n1,0,1,"q"\n', ("y", "g", "t", "c")),
    (b"y,g,t,c\n1,0,1,ab\x00\n", ("y", "g", "t", "c")),
    (b"y,g,t,c\n1,0,1," + b"a" * 131_073 + b"\n", ("y", "g", "t", "c")),
    # not UTF-8, past the row parser's first 8192-byte read
    (b"y,g,t," + b"z" * 9000 + b"\xff\n1,0,1,2\n", ("y", "g", "t")),
])
def test_loader_edge_files_match_row_parser(tmp_path, data, bindings):
    path = tmp_path / "edge.csv"
    path.write_bytes(data)
    bindings = dict(zip(("outcome", "group", "period", "cluster"), bindings))
    assert _load(path, bindings, "fast") == _load(path, bindings, "row")


_RAGGED = {"short-long": b"y,g,t,z\n1,0,1\n1,0,1,z,9\n",
           "long-short": b"y,g,t,z\n1,0,1,z,9\n1,0,1",
           "good-long-short": b"y,g,t,z\n1,0,1,z\n1,0,1,,\n1,0,1\n",
           "middle-short-long": b"y,z,g,t,w\n1,z,0,1\n1,z,0,1,9,9\n1,z,0,1,9\n"}


@pytest.mark.parametrize("shape, cluster, quote", [
    pytest.param(shape, cluster, quote, id="-".join(
        [shape] + ["clustered"] * bool(cluster) + ["quoted"] * bool(quote)))
    for quote in (b"", b'"') for cluster in (None, "z") for shape in _RAGGED
])
def test_comma_gate_sees_a_short_line_behind_a_long_one(tmp_path, shape, cluster, quote):
    # the file holds as many commas as a well-formed one, and only the
    # unbound last column is short: np.loadtxt refuses the short line, since
    # its last field reads that column. A cluster label is gathered by
    # comma offsets, which the long line shifts; a quoted label and header
    # name are read as the bare ones.
    path = tmp_path / "ragged.csv"
    path.write_bytes(_RAGGED[shape].replace(b"z", quote + b"z" + quote))
    bindings = {"outcome": "y", "group": "g", "period": "t", "cluster": cluster}
    bound = {"y", "g", "t", cluster} - {None}
    assert csv_io._read_columns(path, bound, cluster, {"g", "t"}, "t") in (
        "field np.loadtxt refused", "field count")
    assert _load(path, bindings, "fast") == _load(path, bindings, "row")
    assert _load(path, bindings, "fast")[0] == "raised"


# file -> (its bytes, the reader that reads it, the reason the np.loadtxt reader declined it)
_READERS = {
    "plain.csv": (b'"y","g","t","c"\n1,0,2001,"a"\n2,1,2002,"b"\n', "loadtxt", None),
    "decimal.csv": (b"y,g,t,c\n1,0,2001.0,a\n2,1,2002,b\n", "loadtxt_f8", None),
    "comma.csv": (b'y,g,t,c\n1,0,2001,"a,b"\n2,1,2002,b\n', "row_parser",
                  "quote inside a field"),
    "doubled.csv": (b'y,g,t,c\n1,0,2001,"a""b"\n2,1,2002,b\n', "row_parser",
                    "quote inside a field"),
    "spaced.csv": (b'y,g,t,c\n1,0,2001, "a"\n2,1,2002,b\n', "row_parser",
                   "quote inside a field"),
    "cr.csv": (b"y,g,t,c\r1,0,2001,a\r2,1,2002,b\r", "row_parser", "lone CR"),
    "data.csv.gz": (b"y,g,t,c\n1,0,2001,a\n2,1,2002,b\n", "row_parser", "compressed suffix"),
    "digits.csv": (b"y,g,t,c\n1_0,0,2001,a\n2,1,2002,b\n", "row_parser",
                   "field np.loadtxt refused"),
}


@pytest.mark.parametrize("name", list(_READERS))
def test_input_names_the_reader(tmp_path, name):
    data, reader, declined = _READERS[name]
    path = tmp_path / name
    path.write_bytes(data)
    bindings = {"outcome": "y", "group": "g", "period": "t", "cluster": "c"}
    assert load_csv_dataset(path, **bindings)[2] == {
        "rows": 2, "reader": reader, "declined": declined}
    assert _load(path, bindings, "fast") == _load(path, bindings, "row")


@pytest.mark.parametrize("name", ["data.csv.gz", "data.csv.bz2", "data.csv.xz", "data.csv.lzma"])
def test_loader_reads_compressed_suffix_names_as_text(tmp_path, name):
    # np.loadtxt would open a path with these suffixes as a compressed file
    path = tmp_path / name
    path.write_bytes(b"y,g,t\n1,0,2001\n2,1,2002\n")
    bindings = {"outcome": "y", "group": "g", "period": "t"}
    assert _load(path, bindings, "fast") == _load(path, bindings, "row")
    assert _load(path, bindings, "fast")[0] == "loaded"


def _large_lines(newline, quote=""):
    """The lines of a 200k-row plain CSV with string cluster labels; with
    quote='"', its header names and labels are quoted, as R's write.csv
    quotes them."""
    rng = np.random.default_rng(3)
    n = 200_000
    columns = (rng.poisson(2, n), np.arange(n) % 2, 2016 + rng.integers(0, 6, n),
               rng.integers(500, 2500, n) / 1000, rng.integers(0, 900, n),
               rng.standard_normal(n))
    header = ",".join(f"{quote}{name}{quote}" for name in "ygtwcx")
    return header + newline + "".join(
        f"{y},{g},{t},{w:.3f},{quote}psu-{c:05d}{quote},{x:.4f}{newline}"
        for y, g, t, w, c, x in zip(*columns))


@pytest.fixture(scope="module")
def large_csv(tmp_path_factory):
    """A 200k-row plain CSV with string cluster labels."""
    path = tmp_path_factory.mktemp("large") / "large.csv"
    path.write_bytes(_large_lines("\n").encode())
    return path


@pytest.fixture(scope="module")
def large_crlf_csv(tmp_path_factory):
    """large_csv with CRLF line ends."""
    path = tmp_path_factory.mktemp("large") / "large.csv"
    path.write_bytes(_large_lines("\r\n").encode())
    return path


@pytest.fixture(scope="module")
def large_quoted_csv(tmp_path_factory):
    """large_csv with its header names and cluster labels quoted."""
    path = tmp_path_factory.mktemp("large") / "large.csv"
    path.write_bytes(_large_lines("\n", '"').encode())
    return path


@pytest.mark.parametrize("cluster", [None, "c"])
def test_loader_peak_is_bounded_by_what_it_returns(large_csv, cluster):
    # the byte gate's offsets are dropped before np.loadtxt builds its result
    tracemalloc.start()
    try:
        dataset = load_csv_dataset(large_csv, "y", "g", "t", weights="w", cluster=cluster,
                                   covariates=("x",))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (dataset[0].clusters is None) == (cluster is None)
    assert peak <= 3.0 * retained, (peak, retained)


def test_clustered_load_peak(large_csv):
    # the loader that kept the labels as strings, coded them again in the fit
    # and checked the bytes in one piece peaked at 37.4 MiB here (numpy 2.4);
    # coding a <U field of the np.loadtxt result, and copying the columns
    # into the dataset, at 23.9 MiB; coding the byte gate's labels before
    # np.loadtxt reads the numeric columns alone, which the dataset adopts,
    # at 16.8 MiB; reading the group column as int8, at 14.1 MiB. The bound
    # keeps the earlier 22% headroom, for numpy releases whose np.loadtxt and
    # bincount allocate differently
    tracemalloc.start()
    try:
        load_csv_dataset(large_csv, "y", "g", "t", weights="w", cluster="c", covariates=("x",))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 17.2 * 2**20, peak / 2**20


def test_dataset_adopts_the_loaders_columns(large_csv, monkeypatch):
    # the loader's frozen column copies and codes become the dataset's,
    # uncopied, all but the int8 group column, which the dataset widens
    returned = []
    read_columns = csv_io._read_columns

    def spy(*args):
        returned.append(read_columns(*args))
        return returned[-1]

    monkeypatch.setattr(csv_io, "_read_columns", spy)
    dataset, _, _ = load_csv_dataset(large_csv, "y", "g", "t", weights="w", cluster="c",
                                     covariates=("x",))
    columns, codes, reader = returned[0]
    assert reader == "loadtxt"
    assert columns["g"].dtype == np.int8 and dataset.q.dtype == np.int64
    np.testing.assert_array_equal(dataset.q, columns["g"])
    assert dataset.y is columns["y"]
    assert dataset.weights is columns["w"] and dataset.covariates["x"] is columns["x"]
    assert dataset.clusters is codes


@pytest.mark.parametrize("cluster, style", [
    (None, ""), ("c", ""), (None, "crlf"), ("c", "crlf"), (None, "quoted"), ("c", "quoted"),
], ids=["None", "c", "None-crlf", "c-crlf", "None-quoted", "c-quoted"])
def test_plain_file_is_tokenized_once(request, large_csv, monkeypatch, cluster, style):
    # R's write.csv quotes the header names and the string labels
    path = request.getfixturevalue(f"large_{style}_csv" if style else "large_csv")
    bindings = {"outcome": "y", "group": "g", "period": "t", "weights": "w",
                "cluster": cluster, "covariates": ("x",)}
    expected = _load(large_csv, bindings, "fast")
    _refuse_row_parser(monkeypatch)
    calls = _loadtxt_calls(monkeypatch)
    # one pass reads the numeric columns; the byte gate gathers the cluster
    # labels, so the cluster column is left out
    assert _load(path, bindings, "fast") == expected
    assert len(calls) == 1
    assert sorted(calls[0]["usecols"]) == [0, 1, 2, 3, 5]
    assert expected[0] == "loaded" and expected[3]["y"][1] == (200_000,)


# header line -> the reason the np.loadtxt reader declines the file; each
# header has one fault, in a name no flag binds
_HEADERS = {
    "nul": (b"y,g,t,z\x00", "NUL byte"),
    "quoted-comma": (b'y,g,t,"z,w"', "quote inside a field"),
    "lone-cr": (b"y,g,t,z\rw", "lone CR"),
    "long": (b"y,g,t," + b"z" * 131_072, "line too long"),
}


@pytest.mark.parametrize("name", list(_HEADERS))
def test_header_is_gated_as_a_data_line(tmp_path, name):
    # the header line passes the byte gate's rules, as every data line does
    header, reason = _HEADERS[name]
    path = tmp_path / "header.csv"
    path.write_bytes(header + b"\n1,0,2001,a\n2,1,2002,b\n")
    assert csv_io._read_columns(path, {"y", "g", "t"}, None, {"g", "t"}, "t") == reason
    bindings = {"outcome": "y", "group": "g", "period": "t"}
    assert _load(path, bindings, "fast") == _load(path, bindings, "row")


def test_unclustered_quoted_crlf_gate_builds_no_offsets(tmp_path, monkeypatch):
    # an unclustered block's rules read byte masks: the only offsets made are
    # each quote's own, once, and none of line ends, CRs or commas
    path = tmp_path / "quoted.csv"
    path.write_bytes(_large_lines("\r\n", '"').encode())
    n_quotes = path.read_bytes().count(b'"')
    sizes = []
    flatnonzero = np.flatnonzero

    def spy(*args, **kwargs):
        offsets = flatnonzero(*args, **kwargs)
        sizes.append(offsets.size)
        return offsets

    monkeypatch.setattr(np, "flatnonzero", spy)
    with open(path, "rb") as handle:
        header = csv_io._read_header(handle.readline())
        assert csv_io._gate_lines(handle, len(header) - 1, None) == (200_000, None)
    assert sum(sizes) == n_quotes


@pytest.mark.parametrize("blank", ["", "   "])
def test_blank_cluster_label_is_a_row_numbered_error(tmp_path, capsys, blank):
    # the fast reader leaves a label that strips to nothing to the row parser,
    # which names its row
    path = tmp_path / "blank.csv"
    path.write_text(f"y,g,t,c\n1,0,2001,a\n2,1,2001,{blank}\n1,0,2002,a\n2,1,2002,b\n")
    assert csv_io._read_columns(path, {"y", "g", "t", "c"}, "c", {"g", "t"},
                                "t") == "blank cluster label"
    code = run_cli(["estimate", "--family", "poisson", "--csv", str(path), "--outcome", "y",
                    "--group", "g", "--period", "t", "--post", "2002", "--cluster", "c",
                    "--format", "json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["errors"] == [
        {"kind": "CsvParseError", "message": "row 3: missing value in bound column 'c'"}]
