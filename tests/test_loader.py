"""The CSV loader's np.loadtxt reader against the row-by-row parser it falls back to."""

import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrdid import DesignSpec, build_design, cli, estimators, fit_poisson_qmle
from rrdid.cli import load_csv_dataset
from rrdid.errors import ColumnBindingError
from rrdid.estimators import _cluster_codes, _number_pairs

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
        expected = _load(path, bindings, "row")
        assert _load(path, bindings, "fast") == expected
        fast = cli._read_columns(path, bound, bindings["cluster"]) is not None
        if plain:
            # a plain file must not leave the fast reader
            assert fast
        # the byte gate decides the same in blocks of about one line
        with mock.patch.object(cli, "_GATE_BLOCK", 1):
            assert (cli._read_columns(path, bound, bindings["cluster"]) is not None) == fast
            assert _load(path, bindings, "fast") == expected


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
        dataset, _ = load_csv_dataset(path, **bindings)
        np.testing.assert_array_equal(dataset.clusters, np.unique(columns[3], return_inverse=True)[1])
        fits.append(fit_poisson_qmle(build_design(dataset, spec), dataset.y,
                                     clusters=dataset.clusters))
    assert fits[0].vcov_kind == "cluster_sandwich"
    assert fits[0].coefficients.tobytes() == fits[1].coefficients.tobytes()
    assert fits[0].vcov.tobytes() == fits[1].vcov.tobytes()


def test_loader_codes_are_numbered_without_a_hash_or_a_sort(large_csv, monkeypatch):
    dataset, _ = load_csv_dataset(large_csv, "y", "g", "t", cluster="c")
    pairs, pair = _number_pairs(dataset.clusters, int(dataset.clusters.max()) + 1)

    def refuse(*args, **kwargs):
        raise AssertionError("the loader's cluster codes were hashed or sorted again")

    for name in ("unique", "sort", "argsort"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(estimators, "_distinct_labels", refuse)
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


@pytest.mark.parametrize("data", [
    b"y,g,t,z\n1,0,1\n1,0,1,z,9\n",
    b"y,g,t,z\n1,0,1,z,9\n1,0,1",
    b"y,g,t,z\n1,0,1,z\n1,0,1,,\n1,0,1\n",
], ids=["short-long", "long-short", "good-long-short"])
def test_comma_gate_sees_a_short_line_behind_a_long_one(tmp_path, data):
    # the file holds as many commas as a well-formed one, and np.loadtxt reads
    # it, since only the unbound last column is short
    path = tmp_path / "ragged.csv"
    path.write_bytes(data)
    bindings = {"outcome": "y", "group": "g", "period": "t"}
    assert cli._read_columns(path, {"y", "g", "t"}, None) is None
    assert _load(path, bindings, "fast") == _load(path, bindings, "row")
    assert _load(path, bindings, "fast")[0] == "raised"


@pytest.mark.parametrize("name", ["data.csv.gz", "data.csv.bz2", "data.csv.xz", "data.csv.lzma"])
def test_loader_reads_compressed_suffix_names_as_text(tmp_path, name):
    # np.loadtxt would open a path with these suffixes as a compressed file
    path = tmp_path / name
    path.write_bytes(b"y,g,t\n1,0,2001\n2,1,2002\n")
    bindings = {"outcome": "y", "group": "g", "period": "t"}
    assert _load(path, bindings, "fast") == _load(path, bindings, "row")
    assert _load(path, bindings, "fast")[0] == "loaded"


@pytest.fixture(scope="module")
def large_csv(tmp_path_factory):
    """A 200k-row plain CSV with string cluster labels."""
    rng = np.random.default_rng(3)
    n = 200_000
    columns = (rng.poisson(2, n), np.arange(n) % 2, 2016 + rng.integers(0, 6, n),
               rng.integers(500, 2500, n) / 1000, rng.integers(0, 900, n),
               rng.standard_normal(n))
    path = tmp_path_factory.mktemp("large") / "large.csv"
    path.write_text("y,g,t,w,c,x\n" + "".join(
        f"{y},{g},{t},{w:.3f},psu-{c:05d},{x:.4f}\n" for y, g, t, w, c, x in zip(*columns)))
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
    # coding them at load in place, it peaks at 23.9 MiB
    tracemalloc.start()
    try:
        load_csv_dataset(large_csv, "y", "g", "t", weights="w", cluster="c", covariates=("x",))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 30.6 * 2**20, peak / 2**20


@pytest.mark.parametrize("cluster", [None, "c"])
def test_plain_file_is_tokenized_once(large_csv, monkeypatch, cluster):
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(kwargs.get("usecols"))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    dataset, _ = load_csv_dataset(large_csv, "y", "g", "t", weights="w", cluster=cluster,
                                  covariates=("x",))
    # one pass reads every bound column, the cluster labels included
    assert len(calls) == 1
    assert sorted(calls[0]) == ([0, 1, 2, 3, 4, 5] if cluster else [0, 1, 2, 3, 5])
    assert dataset.n == 200_000
