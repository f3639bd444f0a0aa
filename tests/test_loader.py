"""The CSV loader's np.loadtxt reader against the row-by-row parser it falls back to."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrdid import cli
from rrdid.cli import load_csv_dataset
from rrdid.errors import ColumnBindingError

# column role -> fields both readers accept
PLAIN = {
    "number": ["0", "1", "2.5", "-3", "1e-3", " 4 ", "\t5", "-0", "0.1", "1e400", "nan",
               "inf", "-Infinity", "9007199254740993", "123456789012345678901234567890",
               " 6", "7\u3000"],
    "group": ["0", "1", " 1", "0.0", "1e0"],
    "period": ["2001", "2002", "2003", " 2002 ", "2001.0", "2003.5"],
    "weight": ["1", "0.5", "2.25", " 3"],
    "cluster": ["a", "b", " a ", "\u00fc", "c#", "x y", "\u6f22", "#", "a\u3000"],
    "other": ["", "z", "#", "1_0", "\u00e9"],
}
# fields at least one reader rejects or reads differently
ODD = {
    "number": ["", " ", "1_000", "\u0661\u0662", "\uff11", "#1", "1#", "a", "0x10", "1e",
               '"1"', '"1,5"', "1 2", "nan(1)", '"2\n"', "1\x00"],
    "cluster": ["", "  ", '"q"', '"a,b"', "\u3000", "ab\x00", "a" * 131_073, '"x\ny"'],
}
ROLES = {"y": "number", "g": "group", "t": "period", "w": "weight", "c": "cluster",
         "x": "number", "z": "other"}
# each flaw alone sends a file to the row parser, or must leave its result unchanged
FLAWS = ["field", "field", "short", "long", "blank", "crlf", "cr", "crcrlf", "bom",
         "not_utf8", "header_only", "missing_column"]
NOT_UTF8 = "\ue000"        # stands for a byte that is not UTF-8


@st.composite
def csv_files(draw):
    """(file bytes, bindings, bound names, plain): a CSV with every bound column
    and only fields and lines both readers accept, then up to two flaws."""
    bindings = {"outcome": "y", "group": "g", "period": "t",
                "weights": "w" if draw(st.booleans()) else None,
                "cluster": "c" if draw(st.booleans()) else None,
                "covariates": ("x",) if draw(st.booleans()) else ()}
    bound = {"y", "g", "t", *bindings["covariates"],
             *(b for b in (bindings["weights"], bindings["cluster"]) if b)}
    flaws = draw(st.lists(st.sampled_from(FLAWS), max_size=2))

    extra = draw(st.lists(st.sampled_from(sorted({"w", "c", "x", "z"} - bound)), unique=True))
    names = draw(st.permutations(sorted(bound) + extra))
    if "missing_column" in flaws:
        names.remove(draw(st.sampled_from(sorted(bound))))
    if draw(st.booleans()):
        names.append(draw(st.sampled_from(names)))          # duplicate header name
    header = [draw(st.sampled_from([n, f" {n}", f"{n} "])) for n in names]
    rows = [[draw(st.sampled_from(PLAIN[ROLES[n]])) for n in names]
            for _ in range(0 if "header_only" in flaws else draw(st.integers(1, 5)))]

    for flaw in flaws:
        row = draw(st.sampled_from(rows)) if rows else []
        if not row:
            continue
        j = draw(st.integers(0, len(row) - 1))
        if flaw == "field":
            role = ROLES[names[j]] if j < len(names) else "other"
            row[j] = draw(st.sampled_from(ODD.get(role, ODD["number"])))
        elif flaw == "not_utf8":
            row[j] += NOT_UTF8
        elif flaw == "short":
            row.pop()
        elif flaw == "long":
            row.append("9")
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if "blank" in flaws:
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = {"crlf": "\r\n", "cr": "\r", "crcrlf": "\r\r\n"}
    newline = next((newline[f] for f in flaws if f in newline), "\n")
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    data = text.encode("utf-8").replace(NOT_UTF8.encode("utf-8"), b"\xff")
    if "bom" in flaws:
        data = b"\xef\xbb\xbf" + data
    return data, bindings, bound, not flaws


def _load(path, bindings, reader):
    """What load_csv_dataset returns or raises, in comparable form."""
    try:
        if reader == "row":
            with mock.patch.object(cli, "_read_columns", lambda *args: None):
                dataset, labels = load_csv_dataset(path, **bindings)
        else:
            dataset, labels = load_csv_dataset(path, **bindings)
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
    data, bindings, bound, plain = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        assert _load(path, bindings, "fast") == _load(path, bindings, "row")
        if plain:
            # a plain file must not leave the fast reader
            assert cli._read_columns(path, bound, bindings["cluster"]) is not None


def test_plain_csv_never_reaches_row_parser(tmp_path, monkeypatch):
    lines = ["visits,treated,year,wt,psu,x"]
    rng = np.random.default_rng(5)
    for i in range(200):
        lines.append(f"{rng.poisson(2)},{i % 2},{2016 + i % 6},{rng.integers(500, 2500) / 1000},"
                     f"psu-{i % 7:03d}é,{rng.standard_normal():.4f}")
    path = tmp_path / "plain.csv"
    path.write_text("\n".join(lines), encoding="utf-8")       # no final newline
    with mock.patch.object(cli, "_read_columns", lambda *args: None):
        expected = load_csv_dataset(path, "visits", "treated", "year", weights="wt",
                                    cluster="psu", covariates=("x",))

    def refuse(*args):
        raise AssertionError("a plain CSV reached the row parser")

    monkeypatch.setattr(cli, "_read_rows", refuse)
    dataset, labels = load_csv_dataset(path, "visits", "treated", "year", weights="wt",
                                       cluster="psu", covariates=("x",))
    assert labels == expected[1] == [2016, 2017, 2018, 2019, 2020, 2021]
    assert dataset.clusters.dtype == expected[0].clusters.dtype == np.dtype("<U8")
    assert np.array_equal(dataset.clusters, expected[0].clusters)
    assert dataset.covariates["x"].tobytes() == expected[0].covariates["x"].tobytes()
    # a cluster column also bound as a number is refused before either parser runs
    with pytest.raises(ColumnBindingError, match="'visits'"):
        load_csv_dataset(path, "visits", "treated", "year", cluster="visits")


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


@pytest.mark.parametrize("name", ["data.csv.gz", "data.csv.bz2", "data.csv.xz", "data.csv.lzma"])
def test_loader_reads_compressed_suffix_names_as_text(tmp_path, name):
    # np.loadtxt would open a path with these suffixes as a compressed file
    path = tmp_path / name
    path.write_bytes(b"y,g,t\n1,0,2001\n2,1,2002\n")
    bindings = {"outcome": "y", "group": "g", "period": "t"}
    assert _load(path, bindings, "fast") == _load(path, bindings, "row")
    assert _load(path, bindings, "fast")[0] == "loaded"
