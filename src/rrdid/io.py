"""CSV loading.

CSV inputs are comma-separated UTF-8 with a header row, decimal points,
and no missing values in bound columns. Period values may be arbitrary
integers (e.g. years); they are mapped onto 0..T-1 in sorted order, and
--post / --base-period are given in the original units. Plain files, with
LF or CRLF line ends, are read with np.loadtxt's C parser, the group
column as int8 and the period column as int64; so are files quoted as R's
write.csv quotes them, each quote around a whole field that holds no
comma, quote or line end. The header line is checked by the data lines'
rules. Files with other quotes, lone CR line ends, NUL bytes, blank lines,
ragged rows or lines of csv.field_size_limit() bytes or more, and fields
only Python's float() accepts (1_000, non-ASCII digits), go to the slower
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

    Returns (dataset, period_labels, input): the distinct period values
    sorted ascending, with dataset.t holding their 0-based ranks, and a
    record of how the file was read: {"rows": data rows, "reader":
    "loadtxt", "loadtxt_f8" or "row_parser", "declined": the short fixed
    reason the np.loadtxt reader left the file to the row parser, or None}.

    A period label must be an integer of magnitude below 2**53; one not
    written as an integer literal (such as 2016.0 or 2e3) must also be
    below 2**52 in magnitude, since from there on a label with a fraction
    parses to a float without one. With a cluster column, dataset.clusters
    holds int64 codes: each row's label, stripped of surrounding
    whitespace, numbered in sorted order of the distinct stripped labels.

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
    read = _read_columns(path, bound, cluster, {group, period} - floats, period)
    if isinstance(read, str):
        declined, reader = read, "row_parser"
        rows, codes = _read_rows(path, bound, cluster, period)
    else:
        declined, (rows, codes, reader) = None, read

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
    labels = [int(v) for v in labels]
    return dataset, labels, {"rows": len(dataset.y), "reader": reader, "declined": declined}


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


# np.loadtxt opens a str path through np.lib._datasource, which would read a
# file with one of these suffixes as compressed
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")
# bytes of whole lines the byte gate checks at a time
_GATE_BLOCK = 1 << 20


def _read_columns(path, bound, cluster, integers, period):
    """(columns, codes, reader): the numeric columns and cluster codes
    _read_rows returns, read in one np.loadtxt pass, and the reader that read
    them, "loadtxt" or "loadtxt_f8"; the columns named in integers come back as
    integers: the period column as int64, any other (the group) as int8.

    Returns the reason, a short fixed string, for every file on which that
    might differ from _read_rows: anything but a plain path, a compressed
    suffix, a quote anywhere but around a whole field that holds no comma,
    quote, CR or LF, a NUL, a CR not directly before an LF, invalid UTF-8, no
    data line, a field count that differs from the header's, a line of
    csv.field_size_limit() bytes or more, a cluster label that strips to nothing, a period
    column read as floats that holds a value of magnitude 2**52 or more (whose
    verdict depends on its text), and every field or line that np.loadtxt
    refuses (it accepts no number float() rejects, and parses the same value:
    both call PyOS_string_to_double after stripping the same whitespace; it
    refuses a blank line, which csv.reader reads as a row without fields).
    _read_rows then reads the file and reports any error. It stays because
    it is the only reader of lone CR line ends, quoted separators, quotes
    inside a field, compressed suffixes, numbers only float() reads and lines
    of csv.field_size_limit() bytes or more, the only source of row-numbered
    errors, and the tests' reference.

    The header line passes the byte gate as a block of its own, then
    csv.reader (_read_header). The byte gate, _gate_lines, checks the file's
    bytes and gathers each line's cluster field, which is coded before
    np.loadtxt reads the file again in text mode, whose universal newlines
    read a CRLF as an LF, and with '"' as its quote character, which it strips
    from a quoted field as csv.reader does. That one structured pass reads the numeric columns, a field f0, f1,
    ... per column in sorted name order (a header name may be empty or
    repeat): i8 for the period and i1 for the group column when integers
    names them (bound only as group or period), f8 for the rest. When the
    file's last column is not among them, a one-character U field reads it and
    is dropped: np.loadtxt refuses a row with fewer fields than its usecols
    reach, and the gate proves each block holds the header's comma count
    times its lines, so a file it reads holds exactly that many commas on
    every line. An integer field takes only an integer literal, [+-]?[0-9]+
    between whitespace, within its type's range, whose value is the
    float()-parsed value whenever the caller accepts it; when that pass fails,
    on a label such as 2016.0, 1e0 or a group label of 128, a second pass
    ("loadtxt_f8") reads every bound column as f8. Each field is copied out and
    frozen, so that an RcsDataset adopts the copies as they are, all but the
    int8 group column, which it widens to int64; the structured array, 8 bytes
    a row per column but 1 for the group's, is alive beside them while they are
    made.
    """
    if not isinstance(path, (str, os.PathLike)):
        return "not a path"
    # an absolute path is never taken for a URL
    path = os.path.abspath(path)
    if not isinstance(path, str):
        return "not a path"
    if path.endswith(_COMPRESSED_SUFFIXES):
        return "compressed suffix"
    try:
        with open(path, "rb") as handle:
            header = _read_header(handle.readline())
            if isinstance(header, str):
                return header
            if any(name not in header for name in bound):
                return "missing column"
            gate = _gate_lines(handle, len(header) - 1,
                               header.index(cluster) if cluster else None)
    except OSError:
        return "cannot read"
    if isinstance(gate, str):
        return gate
    n_rows, labels = gate
    codes = _code_clusters(labels) if cluster else None
    # the labels are freed before np.loadtxt allocates its result
    del gate, labels
    if cluster and codes is None:
        return "blank cluster label"

    names = sorted(bound - {cluster})
    usecols = [header.index(name) for name in names]
    # np.loadtxt refuses a row shorter than its usecols reach, which proves
    # the gate's comma count line by line; an unbound last column is read as
    # a dropped U1 field (S1 would refuse a character past Latin-1)
    tail = []
    if len(header) - 1 not in usecols:
        usecols.append(len(header) - 1)
        tail = [("tail", "U1")]
    # the period is i8; the group column holds 0/1, so i1 takes every valid label
    kinds = [{period: "i8"}.get(name, "i1") if name in integers else "f8" for name in names]

    def parse(kinds):
        dtype = [(f"f{i}", kind) for i, kind in enumerate(kinds)] + tail
        try:
            with warnings.catch_warnings():
                # numpy releases that still parse a float in an integer field,
                # through the float and truncating it, only warn when they do;
                # a blank line, which max_rows does not count, also warns
                warnings.simplefilter("error")
                # max_rows makes np.loadtxt allocate its result once instead of growing it
                return np.loadtxt(path, dtype=dtype, usecols=usecols, delimiter=",",
                                  comments=None, quotechar='"', skiprows=1, ndmin=1,
                                  encoding="utf-8", max_rows=n_rows)
        except (OSError, ValueError, Warning):
            return None

    reader, values = "loadtxt", parse(kinds)
    if values is None and any(kind != "f8" for kind in kinds):
        reader, kinds = "loadtxt_f8", ["f8"] * len(names)
        values = parse(kinds)
    if values is None or len(values) != n_rows:
        return "field np.loadtxt refused"
    # from 2**52 on every float is an integer, so only the text tells whether
    # a label has a fraction; the row parser reads it
    j = names.index(period)
    if kinds[j] == "f8" and np.any(np.abs(values[f"f{j}"]) >= 2**52):
        return "period of magnitude 2**52"
    columns = {}
    for i, name in enumerate(names):
        columns[name] = values[f"f{i}"].copy()
        columns[name].setflags(write=False)
    return columns, codes, reader


def _read_header(line):
    """The names of the header line, line, stripped as the row parser strips
    them, or the reason the row parser reads the file: any reason _gate_block
    gives the line as a block of its own, no data line after it (_gate_lines
    needs at least one), or an empty header, which csv.reader reads as a
    header without columns."""
    # a byte-order mark, as Excel's "CSV UTF-8" export writes, is no part of the header
    line = line.removeprefix(b"\xef\xbb\xbf")
    gate = _gate_block(line, line.count(b","), None)
    if isinstance(gate, str):
        return gate
    text = line.removesuffix(b"\n")
    if text == line:
        return "no data line"
    text = text.removesuffix(b"\r")
    if not text:
        return "empty header"
    return [name.strip() for name in next(csv.reader([text.decode("utf-8")]))]


def _lines_shorter(block, limit):
    """Whether every line of block is shown, without splitting it, to be
    shorter than limit bytes: each whole aligned chunk of limit // 2 bytes
    holds an LF, and a line of limit bytes or more would hold a whole chunk.
    False when a chunk holds none, or limit is too small for chunks to pay."""
    half = limit // 2
    return half >= 1 << 12 and all(block.find(b"\n", start, start + half) >= 0
                                   for start in range(0, len(block) - half + 1, half))


def _quotes_delimit_fields(buf):
    """Whether every quote in buf, a block of whole lines, opens a field, at
    a line start or right after a comma, or closes the field the quote before
    it opened, right before a comma, a CR or a line end, with no comma or LF
    between the two. A CR between them would be a lone CR, which _gate_block
    refuses. csv.reader and np.loadtxt with quotechar='"' then split each
    line at its commas alone and strip each quoted field's two quotes."""
    quotes = np.flatnonzero(buf == ord('"'))
    if quotes.size % 2:
        return False
    opens, closes = quotes[0::2], quotes[1::2]
    before = buf[opens - 1]
    after = buf[np.minimum(closes + 1, buf.size - 1)]
    if not (np.all((opens == 0) | (before == ord(",")) | (before == ord("\n")))
            and np.all((closes + 1 == buf.size) | (after == ord(",")) | (after == ord("\n"))
                       | (after == ord("\r")))):
        return False
    # whether a separator lies from each quote up to the next; a pair's span holds none
    separators = (buf == ord(",")) | (buf == ord("\n"))
    return not np.any(np.logical_or.reduceat(separators, quotes)[0::2])


def _gate_lines(handle, n_commas, cluster_index):
    """(data lines, cluster labels) of the binary file handle, read from just
    past the header line, which holds n_commas commas, or the reason the row
    parser reads the file: no data line, or a block that _gate_block refuses.
    cluster_index is the cluster column's index, or None; the labels are then
    each line's field in that column, stripped of its quotes, as an S array
    of its bytes as wide as the widest, and None without a cluster column.

    The file is read in blocks of about _GATE_BLOCK bytes, each ending at a
    line end, so neither the file's bytes nor their masks are held whole; a
    block's arrays die with _gate_block, before the next block is read. The
    blocks' S arrays are joined at the widest.
    """
    n_rows, labels = 0, []
    while block := handle.read(_GATE_BLOCK):
        block += handle.readline()
        gate = _gate_block(block, n_commas, cluster_index)
        if isinstance(gate, str):
            return gate
        n_rows += gate[0]
        if cluster_index is not None:
            labels.append(gate[1])
    if not n_rows:
        return "no data line"
    return n_rows, np.concatenate(labels) if labels else None


def _gate_block(block, n_commas, cluster_index):
    """(lines, cluster labels) of block, whole lines of a file whose header
    holds n_commas commas, as _gate_lines gathers them (labels None without
    a cluster column); or the reason the row parser reads the file: a NUL,
    invalid UTF-8, a CR anywhere but directly before an LF, a line of
    csv.field_size_limit() bytes or more, a quote that does not delimit a
    field (_quotes_delimit_fields), or m lines that do not hold n_commas * m
    commas. Whether each line holds exactly n_commas of them np.loadtxt
    proves (_read_columns). The header line is gated as a block of its own
    (_read_header).

    A line end never splits a UTF-8 character, so decoding block by block
    (an ASCII block needs none) checks the whole file. Each rule reads the
    block's bytes or byte masks, and the quotes' offsets; offsets of line
    ends and commas are made only in a clustered block, which counts by them
    and gathers the cluster fields as rows of a sliding window over the bytes,
    padded at the end, as wide as the widest field, once each field is
    shown to lie within its own line (a CR before the LF is no part of a
    last field); when the fields' widths differ, the bytes past each field's
    end are zeroed.
    """
    if b"\0" in block:
        return "NUL byte"
    if not block.isascii():
        try:
            block.decode("utf-8")
        except UnicodeDecodeError:
            return "not UTF-8"
    buf = np.frombuffer(block, np.uint8)
    # csv.reader ends a line at a lone CR, and np.loadtxt's universal newlines
    # read a CRLF as an LF; a CR that ends the block is in no pair
    crlf = b"\r" in block
    if crlf:
        crs = buf == ord("\r")
        if np.count_nonzero(crs) != np.count_nonzero(crs[:-1] & (buf[1:] == ord("\n"))):
            return "lone CR"
    limit = csv.field_size_limit()
    if not _lines_shorter(block, limit) and max(map(len, block.split(b"\n"))) >= limit:
        return "line too long"
    quoted = b'"' in block
    if quoted and not _quotes_delimit_fields(buf):
        return "quote inside a field"
    if cluster_index is None:
        n_lines = np.count_nonzero(buf == ord("\n")) + (not block.endswith(b"\n"))
        if np.count_nonzero(buf == ord(",")) != n_commas * n_lines:
            return "field count"
        return n_lines, None

    # offsets of each line's two ends, the last line's end past the block
    # when the file ends without an LF; the first line starts at offset 0
    ends = np.flatnonzero(buf == ord("\n"))
    if not block.endswith(b"\n"):
        ends = np.append(ends, buf.size)
    commas = np.flatnonzero(buf == ord(","))
    n_lines = ends.size
    if commas.size != n_commas * n_lines:
        return "field count"
    # field j of a line lies between its j-th and (j+1)-th separator,
    # counting the line ends, when the line holds n_commas commas
    j = cluster_index
    starts = np.append(-1, ends[:-1])
    commas = commas.reshape(n_lines, n_commas)
    left = (starts if j == 0 else commas[:, j - 1]) + 1
    right = ends if j == n_commas else commas[:, j]
    # a field that does not lie within its own line, which np.loadtxt would
    # refuse, could be as wide as the block
    if not (np.all(left > starts) and np.all(right <= ends) and np.all(right >= left)):
        return "field count"
    if j == n_commas and crlf:
        right = right - ((right > 0) & (buf[right - 1] == ord("\r")))
    if quoted:
        # a field that starts with a quote ends with one
        edge = (right > left) & (buf[np.minimum(left, buf.size - 1)] == ord('"'))
        left, right = left + edge, right - edge
    lengths = right - left
    width = max(int(lengths.max()), 1)
    window = np.concatenate([buf, np.zeros(width, np.uint8)])
    fields = np.lib.stride_tricks.sliding_window_view(window, width)[left]
    if lengths.min() < width:
        fields *= np.arange(width) < lengths[:, None]
    return n_lines, fields.view(f"S{width}").reshape(-1)


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
