"""CSV loading.

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
"""

from __future__ import annotations

import csv
import os
import re
import warnings

import numpy as np

from .blocks import _number_pairs
from .design import RcsDataset
from .errors import ColumnBindingError, CsvParseError

__all__ = ["load_csv_dataset"]


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
            if (text == line or len(line) > csv.field_size_limit() or b"\r" in text
                    or any(special in text for special in _ROW_PARSER_BYTES)):
                return None
            try:
                # a byte-order mark, as Excel's "CSV UTF-8" export writes, is no part of the header
                text = text.decode("utf-8").removeprefix("\ufeff")
            except UnicodeDecodeError:
                return None
            header = [h.strip() for h in text.split(",")]
            if not text or any(name not in header for name in bound):
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
# the lone surrogates that errors="surrogateescape" reads bytes that are not UTF-8 as
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _numbered_rows(handle):
    """(1-based row number, fields) of each row csv.reader reads from handle;
    a row it cannot read (a field past csv.field_size_limit(), or before
    Python 3.11 a NUL) is a CsvParseError that names the row, and so is the
    row that holds the file's first byte that is not UTF-8."""
    row_number = 0
    try:
        for row_number, row in enumerate(csv.reader(handle), start=1):
            yield row_number, row
    except csv.Error as exc:
        raise CsvParseError(f"row {row_number + 1}: {exc}") from None
    except UnicodeDecodeError:
        # the decoder reads ahead of csv.reader, so neither the row reached
        # nor the decoder's offset names the row: the rows are read again,
        # each invalid byte escaped, up to the first row that holds one
        handle.seek(0)
        handle.reconfigure(errors="surrogateescape")
        for row_number, row in _numbered_rows(handle):
            if escaped := _ESCAPED_BYTE.search(",".join(row)):
                byte = ord(escaped.group()) - 0xDC00
                raise CsvParseError(
                    f"row {row_number}: byte 0x{byte:02x} is not valid UTF-8") from None
        raise


def _read_rows(path, bound, cluster, period):
    """Every bound numeric column as a list, parsed row by row, and the
    cluster codes (None without a cluster column or data rows).

    Errors carry the 1-based row number of the offending line. Once every
    row is read, a period label that is not an integer literal and has a
    magnitude from 2**52 up to 2**53 is a ValueError: from 2**52 on, a
    label with a fraction parses to a float without one.
    """
    # utf-8-sig drops a leading byte-order mark, as the byte gate does
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = _numbered_rows(handle)
        _, header = next(reader, (1, None))
        if header is None:
            raise CsvParseError("row 1: empty file, expected a header row")
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
        for row_number, row in reader:
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
                # a blank label raises here, naming its row; _code_clusters
                # strips the labels, once each
                value = row[idx[cluster]]
                if not value or value.isspace():
                    raise CsvParseError(
                        f"row {row_number}: missing value in bound column {cluster!r}"
                    )
                cluster_values.append(value)
    if inexact:
        raise ValueError(f"period column {period!r} must contain integers")
    if not cluster_values:
        return rows, None
    return rows, _code_clusters(np.array([value.encode("utf-8") for value in cluster_values]))
