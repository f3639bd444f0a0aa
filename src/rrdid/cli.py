"""Command line interface.

Four subcommands: simulate (Monte Carlo bias tables), estimate (fit a DD
model to a CSV), effect (restate a coefficient as a proportional effect),
and summarize (weighted cell means of a CSV). Output is a text table by
default or canonical JSON with --format json; JSON output is byte-stable,
so the same configuration and seed produce identical files in every
process, and parsing then re-rendering reproduces the bytes.

CSV inputs are comma-separated UTF-8 with a header row, decimal points,
and no missing values in bound columns. Period values may be arbitrary
integers (e.g. years); they are mapped onto 0..T-1 in sorted order, and
--post / --base-period are given in the original units. Plain files, with
LF or CRLF line ends, are read with np.loadtxt's C parser, the group
column as int8 and the period column as int64; files with quotes, lone CR
line ends, NUL bytes, blank lines or ragged rows, and fields only
Python's float() accepts (1_000, non-ASCII digits), go to the slower
row-by-row reader, which also reports every error with its row number.
Either way the accepted input and the result are the same. A --cluster
column holds labels and may not also be bound as a number (outcome,
group, period, weights or covariate).

Exit codes: 0 success, 2 usage error, 1 data or convergence error (in JSON
mode the error object is written to stdout, or to --output). An --output
that cannot be written, a missing directory or a directory itself, exits 1
with "rrdid: cannot write <path>: <reason>" on stderr, whether the payload
was a result or an error object.

No environment variable is consulted.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from .design import DesignSpec, RcsDataset, build_design, cell_masks, cell_mean, summarize_cells
from .effects import effect_report, lin_dd_proportional, proportional_effect
from .errors import (
    ColumnBindingError,
    CsvParseError,
    MonteCarloAbort,
    NegativeVarianceError,
    NonFiniteObjectiveError,
    OverflowGuardError,
    RedrawRequired,
    SeparationError,
    SingularHessianError,
)
from .estimators import (
    _number_pairs,
    fit_logit_qmle,
    fit_multinomial_logit,
    fit_ols,
    fit_poisson_qmle,
)
from .simulate import Scenario, run_monte_carlo

__all__ = ["run_cli", "main", "canonical_json", "load_csv_dataset"]

_DATA_ERRORS = (
    MonteCarloAbort,
    NegativeVarianceError,
    NonFiniteObjectiveError,
    OverflowGuardError,
    RedrawRequired,
    SeparationError,
    SingularHessianError,
    ValueError,
    OSError,
)


# ---------------------------------------------------------------------------
# canonical JSON

def _format_float(x: float) -> str:
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


def _write_json(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append("null" if not math.isfinite(x) else _format_float(x))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _write_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats, no
    whitespace. Re-rendering a parsed document reproduces the bytes."""
    out = []
    _write_json(obj, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# CSV loading

def _parse_number(text, column, row_number):
    text = text.strip()
    if text == "":
        raise CsvParseError(f"row {row_number}: missing value in bound column {column!r}")
    try:
        return float(text)
    except ValueError:
        raise CsvParseError(
            f"row {row_number}: non-numeric value {text!r} in column {column!r}"
        ) from None


def load_csv_dataset(path, outcome, group, period, weights=None, cluster=None,
                     covariates=()):
    """Read a header CSV into an RcsDataset.

    Returns (dataset, period_labels): the distinct period values sorted
    ascending, with dataset.t holding their 0-based ranks. A period label
    must be an integer of magnitude below 2**53; one not written as an
    integer literal (such as 2016.0 or 2e3) must also be below 2**52 in
    magnitude, since from there on a label with a fraction parses to a
    float without one. With a cluster column, dataset.clusters holds int64
    codes: each row's label, stripped of surrounding whitespace, numbered
    in sorted order of the distinct stripped labels.

    The group and period columns may arrive as integers (from the
    np.loadtxt reader: int8 and int64) or as floats (from the row parser);
    either way the dataset is the same, bit for bit.
    """
    floats = {outcome, *covariates}
    if weights:
        floats.add(weights)
    numeric = floats | {group, period}
    if cluster in numeric:
        raise ColumnBindingError(f"cluster column {cluster!r} is also bound as a numeric "
                                 "column; a column holds cluster ids or numbers, not both")
    bound = numeric | {cluster} if cluster else numeric
    # a column also read as a float keeps float()'s meaning, -0 included
    columns = _read_columns(path, bound, cluster, {group, period} - floats, period)
    if columns is None:
        columns = _read_rows(path, bound, cluster, period)
    rows, codes = columns

    if not len(rows[outcome]):
        raise CsvParseError("row 2: no data rows after the header")

    raw_periods = np.asarray(rows[period])
    if raw_periods.dtype.kind == "f" and not np.all(raw_periods == np.floor(raw_periods)):
        raise ValueError(f"period column {period!r} must contain integers")
    # from 2**53 on, distinct labels can parse to one float; two-sided, since
    # np.abs leaves the smallest int64 negative
    if not np.all((raw_periods > -2**53) & (raw_periods < 2**53)):
        raise ValueError(f"period column {period!r} must contain integers "
                         "of magnitude below 2**53")
    t = raw_periods.astype(np.int64, copy=False)
    low = int(t.min())
    labels, t = _number_pairs(t - low, int(t.max()) - low + 1)
    labels += low
    # RcsDataset adopts a frozen array that owns its data instead of copying it
    t.setflags(write=False)
    if codes is not None:
        codes.setflags(write=False)

    dataset = RcsDataset(
        y=np.asarray(rows[outcome]),
        q=np.asarray(rows[group]),
        t=t,
        covariates={name: np.asarray(rows[name]) for name in covariates},
        weights=np.asarray(rows[weights]) if weights else None,
        clusters=codes,
        n_periods=len(labels),
    )
    return dataset, [int(v) for v in labels]


def _odd_multipliers(count, salt):
    """count fixed odd multipliers: splitmix64 of (salt, position), low bit set."""
    z = np.arange(salt << 32 | 1, (salt << 32) + count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ z >> np.uint64(shift)) * np.uint64(multiplier)
    return z ^ z >> np.uint64(31) | np.uint64(1)


# rows coded at a time, and the bucket tables before np.unique takes the rest
_CODE_BLOCK, _CODE_TABLES = 1 << 14, 3


def _distinct_labels(labels, salt=0):
    """(distinct, inverse): the distinct byte strings of the 1-d S array
    labels, in no set order, and each row's position among them.

    A label's hash sums its little-endian uint64 words at byte offsets 0,
    8, ... and width - 8, which cover it (a label narrower than 8 bytes is
    widened), times the odd multipliers of _odd_multipliers; its top bits
    pick one of 2n to 4n buckets, owned by one of its rows. A row whose
    words all equal its owner's holds the owner's label, which no other
    bucket holds; the rest, about a fifth of the rows when every label
    differs, go through a table of their own with other multipliers, and
    after _CODE_TABLES tables through np.unique.
    """
    labels = np.ascontiguousarray(labels, f"S{max(labels.itemsize, 8)}")
    n, width = labels.size, labels.itemsize
    words = [np.ndarray(n, "<u8", labels, offset, (width,))
             for offset in sorted({*range(0, width - 7, 8), width - 8})]
    bits = n.bit_length() + 1
    # each row's hash, then its bucket, then its position, and the caller's codes
    bucket = np.zeros(n, np.int64)
    hashes = bucket.view(np.uint64)
    owner = np.empty(1 << bits, np.min_scalar_type(n))  # only buckets in use are written
    owned, shared = np.empty(n, bool), np.empty(n, bool)
    blocks = [slice(s, s + _CODE_BLOCK) for s in range(0, n, _CODE_BLOCK)]
    for rows in blocks:  # a block stays in cache across the words
        for word, multiplier in zip(words, _odd_multipliers(len(words), salt)):
            hashes[rows] += word[rows] * multiplier
        hashes[rows] >>= np.uint64(64 - bits)
        owner[bucket[rows]] = np.arange(rows.start, min(rows.stop, n))
    for rows in blocks:
        owned[rows] = owner[bucket[rows]] == np.arange(rows.start, min(rows.stop, n))
    owners = np.flatnonzero(owned)
    owner[bucket[owners]] = np.arange(owners.size)
    owner_words = [word[owners] for word in words]
    # each row's bucket becomes its owner's number; its words are checked against the owner's
    for rows in blocks:
        bucket[rows] = position = owner[bucket[rows]]
        shared[rows] = np.any([w[position] != v[rows] for w, v in zip(owner_words, words)], 0)
    distinct, inverse, left = labels[owners], bucket, np.flatnonzero(shared)
    if left.size:
        more, position = (_distinct_labels(labels[left], salt + 1) if salt + 1 < _CODE_TABLES
                          else np.unique(labels[left], return_inverse=True))
        inverse[left] = owners.size + position.reshape(-1)
        distinct = np.concatenate([distinct, more])
    return distinct, inverse


def _code_clusters(labels):
    """Each row's int64 cluster code: the 1-d S array labels, UTF-8 bytes
    such as the byte gate gathers, decoded and stripped of surrounding
    whitespace, numbered in sorted order of the distinct stripped labels, as
    np.unique(stripped, return_inverse=True) numbers them. None when a label
    strips to nothing.

    Only the distinct labels, which _distinct_labels finds, are decoded,
    stripped (by str.strip) and sorted. The fits number these non-negative
    codes with a presence table; this is the only place that handles label
    text.
    """
    distinct, inverse = _distinct_labels(labels)
    stripped = [label.decode("utf-8").strip() for label in distinct.tolist()]
    if not all(stripped):
        return None
    _, rank = np.unique(stripped, return_inverse=True)
    # the positions become the codes in place, as a fresh array would leave a heap hole that
    # the load's larger arrays cannot use; mode="clip" reads each index before writing its slot
    return np.take(rank.reshape(-1), inverse, out=inverse, mode="clip")


# csv.reader gives quotes a meaning np.loadtxt does not share, and rejects
# NUL; a CR is taken only right before an LF (_gate_lines)
_ROW_PARSER_BYTES = (b'"', b"\0")
# np.loadtxt opens a str path through np.lib._datasource, which would read a
# file with one of these suffixes as compressed
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")
# bytes of whole lines the byte gate checks at a time
_GATE_BLOCK = 1 << 20


def _read_columns(path, bound, cluster, integers, period):
    """The numeric columns and cluster codes _read_rows returns, read in one
    np.loadtxt pass; the columns named in integers come back as integers: the
    period column as int64, any other (the group) as int8.

    Returns None for every file on which that might differ from _read_rows:
    anything but a plain path, bytes csv.reader treats specially (a quote, a
    NUL, a CR not directly before an LF), invalid UTF-8, no data line, a blank
    line or a field count that differs from the header's, a line past
    csv.field_size_limit(), a cluster label that strips to nothing, a period
    column read as floats that holds a value of magnitude 2**52 or more (whose
    verdict depends on its text), and every field that np.loadtxt rejects (it
    accepts no number float() rejects, and parses the same value: both call
    PyOS_string_to_double after stripping the same whitespace). _read_rows then
    reads the file and reports any error.

    The byte gate, _gate_lines, checks the file's bytes and gathers each line's
    cluster field, which is coded before np.loadtxt reads the file again in
    text mode, whose universal newlines read a CRLF as an LF. That one
    structured pass reads the numeric columns alone, a field f0, f1, ... per
    column in sorted name order (a header name may be empty or repeat): i8 for
    the period and i1 for the group column when integers names them (bound only
    as group or period), f8 for the rest. An integer field takes only an
    integer literal, [+-]?[0-9]+ between whitespace, within its type's range,
    whose value is the float()-parsed value whenever the caller accepts it;
    when that pass fails, on a label such as 2016.0, 1e0 or a group label of
    128, a second pass reads every column as f8. Each field is copied out and
    frozen, so that an RcsDataset adopts the copies as they are, all but the
    int8 group column, which it widens to int64; the structured array, 8 bytes
    a row per column but 1 for the group's, is alive beside them while they are
    made.
    """
    if not isinstance(path, (str, os.PathLike)):
        return None
    # an absolute path is never taken for a URL
    path = os.path.abspath(path)
    if not isinstance(path, str) or path.endswith(_COMPRESSED_SUFFIXES):
        return None
    try:
        with open(path, "rb") as handle:
            # a header line and at least one data line (_gate_lines);
            # csv.reader reads an empty first line as a header without
            # columns, and ends a line at a lone CR
            line = handle.readline()
            text = line.removesuffix(b"\n").removesuffix(b"\r")
            if (text == line or not text or len(line) > csv.field_size_limit() or b"\r" in text
                    or any(special in text for special in _ROW_PARSER_BYTES)):
                return None
            try:
                header = [h.strip() for h in text.decode("utf-8").split(",")]
            except UnicodeDecodeError:
                return None
            if any(name not in header for name in bound):
                return None
            gate = _gate_lines(handle, len(header) - 1,
                               header.index(cluster) if cluster else None)
    except OSError:
        return None
    if gate is None:
        return None
    n_rows, labels = gate
    codes = _code_clusters(labels) if cluster else None
    # the labels are freed before np.loadtxt allocates its result
    del gate, labels
    if cluster and codes is None:
        return None

    names = sorted(bound - {cluster})
    usecols = [header.index(name) for name in names]
    # the period is i8; the group column holds 0/1, so i1 takes every valid label
    kinds = [{period: "i8"}.get(name, "i1") if name in integers else "f8" for name in names]

    def parse(kinds):
        dtype = [(f"f{i}", kind) for i, kind in enumerate(kinds)]
        try:
            with warnings.catch_warnings():
                # numpy releases that still parse a float in an integer field,
                # through the float and truncating it, only warn when they do
                warnings.simplefilter("error", DeprecationWarning)
                # max_rows makes np.loadtxt allocate its result once instead of
                # growing it; it warns on a blank line, which only a one-column
                # file can hold
                return np.loadtxt(path, dtype=dtype, usecols=usecols, delimiter=",",
                                  comments=None, skiprows=1, ndmin=1, encoding="utf-8",
                                  max_rows=n_rows if len(header) > 1 else None)
        except (OSError, ValueError, DeprecationWarning):
            return None

    values = parse(kinds)
    if values is None and any(kind != "f8" for kind in kinds):
        kinds = ["f8"] * len(names)
        values = parse(kinds)
    # np.loadtxt skips blank lines, which pass the comma count in a one-column file
    if values is None or len(values) != n_rows:
        return None
    # from 2**52 on every float is an integer, so only the text tells whether
    # a label has a fraction; the row parser reads it
    j = names.index(period)
    if kinds[j] == "f8" and np.any(np.abs(values[f"f{j}"]) >= 2**52):
        return None
    columns = {}
    for i, name in enumerate(names):
        columns[name] = values[f"f{i}"].copy()
        columns[name].setflags(write=False)
    return columns, codes


def _gate_lines(handle, n_commas, cluster_index):
    """(data lines, cluster labels) of the binary file handle, read from just
    past the header line, which holds n_commas commas; None when the file has
    no data line, or a data line holds a quote or a NUL, is not valid UTF-8, is
    longer than csv.field_size_limit(), holds a CR anywhere but directly before
    its LF, or does not hold exactly n_commas commas. cluster_index is the
    cluster column's index, or None; the labels are then each line's field in
    that column, as an S array of its bytes as wide as the widest (a CR before
    the LF is no part of a last field), and None without a cluster column.

    The file is read in blocks of about _GATE_BLOCK bytes, each ending at a
    line end, so neither the file's bytes nor their offsets are held whole. A
    block of m lines holds exactly n_commas commas on each line when it holds
    n_commas * m commas and each line's block of the sorted offsets, reshaped
    to (m, n_commas), lies strictly between that line's two ends: the blocks
    are disjoint and cover every comma, so a line with a comma too many or too
    few pushes some block across a line end. A line end never splits a UTF-8
    character, so decoding block by block checks the whole file. Each block's
    cluster fields are gathered as rows of a sliding window over its bytes,
    padded at the end, as wide as its widest field, with the bytes past each
    field's end zeroed; the blocks' S arrays are joined at the widest.
    """
    limit = csv.field_size_limit()
    n_rows, labels = 0, []
    while block := handle.read(_GATE_BLOCK):
        block += handle.readline()
        if any(special in block for special in _ROW_PARSER_BYTES):
            return None
        try:
            block.decode("utf-8")
        except UnicodeDecodeError:
            return None
        buf = np.frombuffer(block, np.uint8)
        # csv.reader ends a line at a lone CR, and np.loadtxt's universal
        # newlines read a CRLF as an LF
        crs = np.flatnonzero(buf == ord("\r"))
        if crs.size and (crs[-1] + 1 == buf.size or np.any(buf[crs + 1] != ord("\n"))):
            return None
        # offsets of each line's two ends, the last line's end past the block
        # when the file ends without an LF; the first line starts at offset 0
        ends = np.flatnonzero(buf == ord("\n"))
        if buf[-1] != ord("\n"):
            ends = np.append(ends, buf.size)
        starts = np.append(-1, ends[:-1])
        if np.max(ends - starts) - 1 >= limit:
            return None
        commas = np.flatnonzero(buf == ord(","))
        if commas.size != n_commas * ends.size:
            return None
        commas = commas.reshape(ends.size, n_commas)
        if n_commas and not (np.all(commas[:, 0] > starts) and np.all(commas[:, -1] < ends)):
            return None
        if cluster_index is not None:
            # field j of a line lies between its j-th and (j+1)-th separator,
            # counting the line ends
            j = cluster_index
            left = (starts if j == 0 else commas[:, j - 1]) + 1
            right = ends if j == n_commas else commas[:, j]
            if j == n_commas and crs.size:
                right = right - ((right > 0) & (buf[right - 1] == ord("\r")))
            lengths = right - left
            width = max(int(lengths.max()), 1)
            window = np.concatenate([buf, np.zeros(width, np.uint8)])
            fields = np.lib.stride_tricks.sliding_window_view(window, width)[left]
            fields[np.arange(width) >= lengths[:, None]] = 0
            labels.append(fields.view(f"S{width}").reshape(-1))
        n_rows += ends.size
    if not n_rows:
        return None
    return n_rows, np.concatenate(labels) if labels else None


# an integer literal, as stripped text; np.loadtxt's i8 fields take these alone
_INTEGER_LITERAL = re.compile(r"[+-]?[0-9]+")


def _read_rows(path, bound, cluster, period):
    """Every bound numeric column as a list, parsed row by row, and the
    cluster codes (None without a cluster column or data rows).

    Errors carry the 1-based row number of the offending line. Once every
    row is read, a period label that is not an integer literal and has a
    magnitude from 2**52 up to 2**53 is a ValueError: from 2**52 on, a
    label with a fraction parses to a float without one.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError("row 1: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        missing = sorted(b for b in bound if b not in header)
        if missing:
            raise ValueError(f"unknown column binding(s): {', '.join(missing)}")
        idx = {name: header.index(name) for name in bound}
        # fields are read in header order, so a row's first bad field is named
        order = sorted(bound, key=idx.get)

        rows = {name: [] for name in bound}
        cluster_values = []
        inexact = False
        for row_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvParseError(
                    f"row {row_number}: expected {len(header)} fields, got {len(row)}"
                )
            for name in order:
                if name != cluster:
                    value = _parse_number(row[idx[name]], name, row_number)
                    rows[name].append(value)
                    if name == period and 2**52 <= abs(value) < 2**53:
                        inexact |= not _INTEGER_LITERAL.fullmatch(row[idx[name]].strip())
                    continue
                value = row[idx[cluster]].strip()
                if value == "":
                    raise CsvParseError(
                        f"row {row_number}: missing value in bound column {cluster!r}"
                    )
                cluster_values.append(value)
    if inexact:
        raise ValueError(f"period column {period!r} must contain integers")
    if not cluster_values:
        return rows, None
    return rows, _code_clusters(np.array([value.encode("utf-8") for value in cluster_values]))


def _period_index(labels, value, what):
    if value in labels:
        return labels.index(value)
    raise ValueError(f"{what} {value} is not a period value; periods are {labels}")


# ---------------------------------------------------------------------------
# argument parsing

def _comma_list(text):
    return tuple(s for s in (part.strip() for part in text.split(",")) if s)


def _comma_floats(text):
    return tuple(float(part) for part in text.split(","))


def _add_output_options(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--output", default=None, help="write to this path instead of stdout")
    sub.add_argument("--config", default=None,
                     help="flat key = value file mirroring the flags; flags override")


def _add_csv_options(sub, with_cluster=True):
    sub.add_argument("--csv", required=True, help="input CSV path")
    sub.add_argument("--outcome", required=True, help="outcome column")
    sub.add_argument("--group", required=True, help="0/1 group column")
    sub.add_argument("--period", required=True, help="integer period column")
    sub.add_argument("--post", required=True, type=int,
                     help="first treated period, in the period column's units; "
                          "the treatment column, cell summaries and the log "
                          "transform all pool every period t >= post")
    sub.add_argument("--weights", default=None, help="weight column")
    if with_cluster:
        sub.add_argument("--cluster", default=None, help="cluster id column")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrdid",
        description="Difference-in-differences for limited dependent variables "
                    "via ratio-in-ratios and ratio-in-odds-ratios.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="Monte Carlo bias/SD/RMSE table for one scenario")
    sim.add_argument("--family", required=True,
                     choices=("positive", "count", "censored", "binary"))
    sim.add_argument("--n", required=True, type=int, help="subjects per replication")
    sim.add_argument("--reps", required=True, type=int, help="number of replications")
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--beta-qtau", type=float, default=0.0)
    sim.add_argument("--beta-d", type=float, default=0.0)
    sim.add_argument("--beta-q", type=float, default=0.5)
    sim.add_argument("--betas-t", type=_comma_floats, default=(-2.0, -2.0, -1.0, -1.0),
                     metavar="B0,B1,B2,B3")
    sim.add_argument("--threads", type=int, default=1, choices=(1,),
                     help="deprecated: the draws run in one thread, and 1 is the only value")
    sim.add_argument("--transform-counterfactual-mean",
                     action=argparse.BooleanOptionalAction, default=False,
                     help="scale the log transform by the implied untreated mean")
    sim.add_argument("--count-shared-rate-intercept",
                     action=argparse.BooleanOptionalAction, default=False,
                     help="count family: one shared rate intercept instead of period effects")
    sim.add_argument("--censored-extra-term",
                     action=argparse.BooleanOptionalAction, default=False,
                     help="censored family: include one deterministic summand")
    _add_output_options(sim)

    est = commands.add_parser("estimate", help="fit a DD model to CSV data")
    est.add_argument("--family", required=True,
                     choices=("linear", "poisson", "logit", "multinomial"))
    _add_csv_options(est)
    est.add_argument("--trend", action=argparse.BooleanOptionalAction, default=False,
                     help="include the group trend t*Q column")
    est.add_argument("--period-dummies", action=argparse.BooleanOptionalAction,
                     default=True)
    est.add_argument("--base-period", type=int, default=None,
                     help="omitted period dummy, in period units (default: first)")
    est.add_argument("--covariates", type=_comma_list, default=(),
                     metavar="A,B", help="covariate columns")
    est.add_argument("--heterogeneous", type=_comma_list, default=(),
                     metavar="A,B", help="covariates interacted with treatment")
    est.add_argument("--classical", action=argparse.BooleanOptionalAction, default=False,
                     help="linear family only, without --cluster: classical instead of "
                          "robust variance")
    _add_output_options(est)

    eff = commands.add_parser("effect", help="restate a coefficient as exp(beta)-1")
    eff.add_argument("--beta", required=True, type=float)
    eff.add_argument("--se", required=True, type=float)
    eff.add_argument("--kind", default="proportional",
                     choices=("proportional", "proportional_odds",
                              "class_c_proportional_odds"))
    eff.add_argument("--rare-event-note", action=argparse.BooleanOptionalAction,
                     default=False)
    _add_output_options(eff)

    summ = commands.add_parser("summarize", help="weighted cell means of CSV data")
    _add_csv_options(summ, with_cluster=False)
    _add_output_options(summ)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # building the tree costs more than a parse; every parse starts from the
    # declared defaults, so one tree serves every run_cli call
    return build_parser()


def _read_config_args(path):
    """Translate a flat 'key = value' file into a flag list.

    Keys use the long option names (dashes or underscores). Values true and
    false become --key / --no-key; anything else becomes --key value.
    """
    args = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            value = value.strip()
            if not key or not value:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            if value.lower() == "true":
                args.append(f"--{key}")
            elif value.lower() == "false":
                args.append(f"--no-{key}")
            else:
                args.extend([f"--{key}", value])
    return args


# ---------------------------------------------------------------------------
# command bodies: each returns (config_echo, results, warnings)

def _run_simulate(args):
    scenario = Scenario(
        family=args.family,
        n=args.n,
        repetitions=args.reps,
        seed=args.seed,
        beta_qtau=args.beta_qtau,
        beta_d=args.beta_d,
        betas_t=args.betas_t,
        beta_q=args.beta_q,
        count_shared_rate_intercept=args.count_shared_rate_intercept,
        censored_extra_term=args.censored_extra_term,
    )
    echo = {
        "family": scenario.family,
        "n": scenario.n,
        "repetitions": scenario.repetitions,
        "seed": scenario.seed,
        "beta_qtau": scenario.beta_qtau,
        "beta_d": scenario.beta_d,
        "beta_q": scenario.beta_q,
        "betas_t": list(scenario.betas_t),
        "count_shared_rate_intercept": scenario.count_shared_rate_intercept,
        "censored_extra_term": scenario.censored_extra_term,
        "transform_counterfactual_mean": args.transform_counterfactual_mean,
    }
    summary = run_monte_carlo(
        scenario,
        counterfactual_transform_mean=args.transform_counterfactual_mean,
    )
    results = {
        "rows": {
            key: {"abs_bias": row.abs_bias, "sd": row.sd, "rmse": row.rmse}
            for key, row in summary.rows.items()
        },
        "redraw_count": summary.redraw_count,
        "failures_by_kind": summary.failures_by_kind,
        "effective_repetitions": summary.effective_repetitions,
        "failed_repetitions": summary.failed_repetitions,
    }
    return echo, results, []


_FAMILY_FITTERS = {
    "linear": fit_ols,
    "poisson": fit_poisson_qmle,
    "logit": fit_logit_qmle,
    "multinomial": fit_multinomial_logit,
}


def _run_estimate(args):
    if args.classical and args.family != "linear":
        raise ValueError("--classical applies only to the linear family")
    dataset, labels = load_csv_dataset(
        args.csv, args.outcome, args.group, args.period,
        weights=args.weights, cluster=args.cluster, covariates=args.covariates,
    )
    post = _period_index(labels, args.post, "--post")
    base = 0 if args.base_period is None else _period_index(labels, args.base_period,
                                                            "--base-period")
    spec = DesignSpec(
        post_period=post,
        include_period_dummies=args.period_dummies,
        include_group_trend=args.trend,
        heterogeneous_covariates=args.heterogeneous,
        base_period=base,
    )
    echo = {
        "family": args.family, "csv": args.csv, "outcome": args.outcome, "group": args.group,
        "period": args.period, "weights": args.weights, "cluster": args.cluster,
        "covariates": list(args.covariates), "heterogeneous": list(args.heterogeneous),
        "post": args.post, "base_period": labels[base], "trend": args.trend,
        "period_dummies": args.period_dummies, "period_labels": labels,
        "classical": args.classical,
    }

    matrix = build_design(dataset, spec)
    ybar = None
    if args.family == "linear":
        # the treated post cell's mean, for the log transform; without rows
        # there, the treat column is zero and the fit raises
        treated_post = cell_masks(dataset, post)[(1, 1)]
        if treated_post.any():
            ybar = cell_mean(dataset, treated_post)
    # the design holds its own cells and covariates, so the fit needs no more
    # of the dataset than these, and its other columns are released first
    y, weights, clusters = dataset.y, dataset.weights, dataset.clusters
    del dataset
    if args.family == "linear":
        fit = fit_ols(matrix, y, weights, clusters=clusters, robust=not args.classical)
    else:
        fit = _FAMILY_FITTERS[args.family](matrix, y, weights, clusters=clusters)
    if not fit.converged:
        raise ValueError(
            f"{fit.family} did not converge after {fit.iterations} iterations "
            f"(score norm {fit.score_norm:.3g})"
        )

    warnings = []
    coef_table = [
        {
            "name": name,
            "estimate": fit.coefficients[i],
            "se": fit.se(name),
            "t_value": fit.t_value(name),
        }
        for i, name in enumerate(fit.names)
    ]
    results = {
        "fit": {
            "family": fit.family,
            "converged": fit.converged,
            "iterations": fit.iterations,
            "step_halvings": fit.step_halvings,
            "max_abs_eta": fit.max_abs_eta,
            "score_norm": fit.score_norm,
            "loglik": fit.loglik,
            "n_obs": fit.n_obs,
            "vcov_kind": fit.vcov_kind,
            "coefficients": coef_table,
            "vcov": fit.vcov.tolist(),
        }
    }

    # multinomial names carry the class, e.g. "treat[2]"; the stem is the design column
    def stem(name):
        return name.partition("[")[0]

    if args.family == "linear":
        results["effects"] = []
        transform = None
        try:
            transform = lin_dd_proportional(fit.coef("treat"), ybar)
        except (RedrawRequired, ValueError) as exc:
            warnings.append(f"log transform unavailable: {exc}")
        results["lin_dd_transform"] = transform
    else:
        results["effects"] = [
            _effect_payload(proportional_effect(fit, name), name)
            for name in fit.names if stem(name) == "treat"
        ]
    results["trend_test"] = [
        row for row in coef_table if stem(row["name"]) == "group_trend"
    ] or None
    return echo, results, warnings


def _effect_payload(report, target):
    return {"target": target, **dataclasses.asdict(report)}


def _run_effect(args):
    echo = {"beta": args.beta, "se": args.se, "kind": args.kind,
            "rare_event_note": args.rare_event_note}
    report = effect_report(args.beta, args.se, kind=args.kind,
                           rare_event_note=args.rare_event_note)
    return echo, _effect_payload(report, None), []


def _run_summarize(args):
    dataset, labels = load_csv_dataset(
        args.csv, args.outcome, args.group, args.period, weights=args.weights,
    )
    post = _period_index(labels, args.post, "--post")
    echo = {
        "csv": args.csv,
        "outcome": args.outcome,
        "group": args.group,
        "period": args.period,
        "weights": args.weights,
        "post": args.post,
        "period_labels": labels,
    }
    cells = summarize_cells(dataset, post)
    results = {
        "cells": [
            {
                "group": cell.group,
                "post": cell.post,
                "count": cell.count,
                "mean": cell.mean,
                "sd": cell.sd,
            }
            for cell in cells
        ]
    }
    return echo, results, []


_RUNNERS = {
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "effect": _run_effect,
    "summarize": _run_summarize,
}

_ROW_LABELS = {
    "qmle_beta_qtau": "qmle beta_qtau",
    "qmle_beta_d": "qmle beta_d",
    "lindd_beta_qtau": "lin-dd beta_qtau",
    "lindd_beta_d": "lin-dd beta_d",
    "lindd_transform": "lin-dd transform",
}


# ---------------------------------------------------------------------------
# text rendering (from the same payload the JSON mode emits)

def _num(x, places):
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return "."
    return f"{x:.{places}f}"


def _render_simulate(payload):
    echo = payload["config_echo"]
    results = payload["results"]
    lines = [
        "simulate family={family} n={n} reps={repetitions} seed={seed} "
        "beta_qtau={beta_qtau:g} beta_d={beta_d:g}".format(**echo),
        f"{'row':<20}{'|Bias|':>8}{'SD':>8}{'RMSE':>8}",
    ]
    for key, label in _ROW_LABELS.items():
        if key not in results["rows"]:
            continue
        row = results["rows"][key]
        lines.append(
            f"{label:<20}{_num(row['abs_bias'], 2):>8}"
            f"{_num(row['sd'], 2):>8}{_num(row['rmse'], 2):>8}"
        )
    kinds = ", ".join(f"{kind} {count}"
                      for kind, count in results["failures_by_kind"].items() if count)
    lines.append(
        "effective repetitions {effective_repetitions}, failures {failed_repetitions}"
        "{kinds}, redraws {redraw_count}".format(kinds=f" ({kinds})" if kinds else "",
                                                 **results)
    )
    return "\n".join(lines)


def _render_fit(results):
    fit = results["fit"]
    lines = [
        "{family}: n={n_obs}, converged={converged} after {iterations} iterations "
        "(score norm {score_norm:.3g}), vcov={vcov_kind}".format(
            family=fit["family"], n_obs=fit["n_obs"], converged=fit["converged"],
            iterations=fit["iterations"], score_norm=fit["score_norm"],
            vcov_kind=fit["vcov_kind"],
        ),
        "step halvings: {halvings}, max |linear predictor|: {eta:.4g}".format(
            halvings=fit["step_halvings"], eta=fit["max_abs_eta"]),
        f"{'coefficient':<22}{'estimate':>12}{'se':>12}{'t':>10}",
    ]
    for row in fit["coefficients"]:
        lines.append(
            f"{row['name']:<22}{_num(row['estimate'], 3):>12}"
            f"{_num(row['se'], 3):>12}{_num(row['t_value'], 2):>10}"
        )
    return lines


def _render_estimate(payload):
    results = payload["results"]
    lines = _render_fit(results)
    for effect in results.get("effects", []):
        lines.append(
            f"{effect['kind']} effect of {effect['target']}: "
            f"{_num(effect['effect'], 3)} (se {_num(effect['se_effect'], 3)}), "
            f"beta {_num(effect['beta'], 3)} (se {_num(effect['se_beta'], 3)}), "
            f"t {_num(effect['t_value'], 2)}"
        )
    if results.get("lin_dd_transform") is not None:
        lines.append(f"log transform of DD estimate: {_num(results['lin_dd_transform'], 3)}")
    if results.get("trend_test"):
        for test in results["trend_test"]:
            lines.append(
                f"group trend test ({test['name']}): estimate "
                f"{_num(test['estimate'], 3)} (se {_num(test['se'], 3)}), "
                f"t {_num(test['t_value'], 2)}"
            )
    for warning in payload.get("warnings", []):
        lines.append(f"note: {warning}")
    return "\n".join(lines)


def _render_effect(payload):
    e = payload["results"]
    return (
        f"{e['kind']} effect: {_num(e['effect'], 3)} (se {_num(e['se_effect'], 3)}); "
        f"beta {_num(e['beta'], 3)} (se {_num(e['se_beta'], 3)}); "
        f"t {_num(e['t_value'], 2)}"
        + ("; odds ratio read as relative risk (rare outcome)" if e["rare_event_note"] else "")
    )


def _render_summarize(payload):
    lines = [f"{'group':<7}{'phase':<7}{'count':>7}{'mean':>12}{'sd':>12}"]
    for cell in payload["results"]["cells"]:
        phase = "post" if cell["post"] else "pre"
        lines.append(
            f"{cell['group']:<7}{phase:<7}{cell['count']:>7}"
            f"{_num(cell['mean'], 3):>12}{_num(cell['sd'], 3):>12}"
        )
    return "\n".join(lines)


_RENDERERS = {
    "simulate": _render_simulate,
    "estimate": _render_estimate,
    "effect": _render_effect,
    "summarize": _render_summarize,
}


# ---------------------------------------------------------------------------
# driver

def _emit(text, args, code):
    """Write text to --output, or stdout, and return the exit code: code, or
    1 when --output cannot be written."""
    if not args.output:
        sys.stdout.write(text + "\n")
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        sys.stderr.write(f"rrdid: cannot write {args.output}: {exc.strerror or exc}\n")
        return 1
    return code


def _extract_config_path(argv):
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise ValueError("--config needs a file path")
            return argv[i + 1]
        if token.startswith("--config="):
            return token.partition("=")[2]
    return None


def run_cli(argv=None) -> int:
    """Parse argv, run the command, emit text or canonical JSON.

    Returns the process exit code: 0 success, 2 usage error, 1 data or
    convergence error (JSON mode writes a machine-readable error object) or
    an --output that cannot be written.
    """
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser = _shared_parser()
    try:
        # the config file may carry required options, so it has to be read
        # before the full parse; its flags go right after the subcommand so
        # the command line overrides them
        config_path = _extract_config_path(argv)
        if config_path is not None and argv and not argv[0].startswith("-"):
            config_args = _read_config_args(config_path)
            argv = argv[:1] + config_args + argv[1:]
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"rrdid: {exc}\n")
        return 2

    try:
        echo, results, warnings = _RUNNERS[args.command](args)
    except _DATA_ERRORS as exc:
        payload = {
            "command": args.command,
            "config_echo": None,
            "results": None,
            "warnings": [],
            "errors": [{"kind": type(exc).__name__, "message": str(exc)}],
        }
        if args.format == "json":
            return _emit(canonical_json(payload), args, 1)
        sys.stderr.write(f"rrdid {args.command}: {exc}\n")
        return 1

    payload = {
        "command": args.command,
        "config_echo": echo,
        "results": results,
        "warnings": warnings,
        "errors": [],
    }
    if args.format == "json":
        return _emit(canonical_json(payload), args, 0)
    return _emit(_RENDERERS[args.command](payload), args, 0)


def main():
    raise SystemExit(run_cli())
