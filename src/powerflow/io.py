"""Network file ingestion, canonical builders, and trajectory serialization.

Two text formats are supported, both UTF-8 (a leading byte order mark is
skipped) with ``#`` comment lines:

* dense matrix: one row per line, comma or whitespace separated reals;
* adjacency list: lines ``i: j k l`` meaning node i seeks advice from the
  listed nodes.  Advice rows convert to weights by the equal-split rule
  (each of the n_i listed advisors gets 1/n_i); self-nominations are
  dropped silently before the split, and a node left with nobody to listen
  to is rejected because its row could not be made row-stochastic.

Matrices (:func:`write_matrix`, the dense format) and trajectories
(:func:`write_trajectory_csv`) are written with 17-significant-digit
decimals, which round-trip IEEE doubles exactly.  A matrix goes out one
row at a time, and only its entries other than +0.0 are formatted; a
trajectory goes out through one ``%`` template per row, a chunk of rows at
a time.
"""

from __future__ import annotations

import os
import re
from dataclasses import fields

import numpy as np

from .errors import EmptyAdviceSetError, NonSquareError, ParseError
from .netcore import (
    RelativeInteractionMatrix,
    classify,
    _validate_owned,
    validate_matrix,  # perfbench's tracer wraps powerflow.io.validate_matrix
)

#: values per chunk of rows written to a trajectory CSV
_CSV_CHUNK_VALUES = 1 << 16
#: two commas with only whitespace between them: an empty dense field.  The
#: line's ends are tested apart: a pattern that starts with an anchor, such
#: as ``^,|,\s*,|,$``, no longer lets ``re`` skip ahead to the next comma
#: and took 4-17x as long on n = 1000 comma-separated files.
_COMMA_PAIR = re.compile(r",\s*,")


def _content_lines(path) -> list[tuple[int, str]]:
    """(line_number, stripped_text) pairs, skipping blanks and # comments.

    Bytes that are not UTF-8 decode to lone surrogates, which cannot be
    encoded again; the first line holding one raises ParseError.
    """
    out = []
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
        for line_no, raw in enumerate(handle, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(line_no, "not UTF-8 text") from None
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            out.append((line_no, text))
    return out


def _parse_dense(lines: list[tuple[int, str]]) -> RelativeInteractionMatrix:
    n = len(lines)
    # allocate the n x n array only once every line is seen to hold n
    # fields, so its size follows the file's, not its first line's.  The
    # rows of any other file are still converted, so that the first bad or
    # ragged line raises; a file of equal rows ends as NonSquareError.
    square = all(len(_dense_fields(text)) == n for _, text in lines)
    entries = np.empty((n, n)) if square else None
    width = None
    for i, (line_no, text) in enumerate(lines):
        if "," in text and (text[0] == "," or text[-1] == "," or _COMMA_PAIR.search(text)):
            raise ParseError(line_no, "empty field: every comma must stand between two values")
        parts = _dense_fields(text)
        try:
            # numpy converts each str with Python's float(), so the
            # accepted spellings ("1_0", "inf", ...) are float()'s
            row = np.array(parts, dtype=float)
        except ValueError:
            bad = next(p for p in parts if not _is_float(p))
            raise ParseError(line_no, f"not a number: {bad!r}") from None
        if width is None:
            width = row.size
        elif row.size != width:
            raise ParseError(line_no, f"expected {width} values per row, got {row.size}")
        if square:
            entries[i] = row
    if not square:
        raise NonSquareError((n, width))
    return _validate_owned(entries)


def _dense_fields(text: str) -> list[str]:
    return text.replace(",", " ").split()


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _parse_adjacency(lines: list[tuple[int, str]]) -> RelativeInteractionMatrix:
    advice: dict[int, list[int]] = {}
    max_node = 0
    for line_no, text in lines:
        head, sep, tail = text.partition(":")
        if not sep:
            raise ParseError(line_no, "expected 'node: advisor advisor ...'")
        try:
            node = int(head)
        except ValueError:
            raise ParseError(line_no, f"not a node id: {head.strip()!r}") from None
        if node < 1:
            raise ParseError(line_no, f"node ids are 1-based, got {node}")
        if node in advice:
            raise ParseError(line_no, f"node {node} listed twice")
        try:
            targets = [int(p) for p in tail.split()]
        except ValueError:
            raise ParseError(line_no, "advisor ids must be integers") from None
        if any(j < 1 for j in targets):
            raise ParseError(line_no, "node ids are 1-based")
        # drop self-nominations and repeats, keeping first-listed order
        advice[node] = list(dict.fromkeys(j for j in targets if j != node))
        max_node = max(max_node, node, *targets) if targets else max(max_node, node)
    # every node 1..n needs advisors before the n x n array exists: n
    # follows the largest id named, not the file's size
    n = max_node
    for node in range(1, n + 1):
        if not advice.get(node):
            raise EmptyAdviceSetError(node)
    entries = np.zeros((n, n))
    for node, targets in advice.items():
        weight = 1.0 / len(targets)
        for j in targets:
            entries[node - 1, j - 1] = weight
    return _validate_owned(entries)


def load_network(path) -> RelativeInteractionMatrix:
    """Load and validate a network file (see :func:`validate_matrix`).

    A first content line containing ':' marks an adjacency list; any other
    file is read as a dense matrix.  A file that cannot be opened raises
    OSError; one that is not UTF-8 text raises ParseError.
    """
    lines = _content_lines(path)
    if not lines:
        raise ParseError(0, f"no content in {os.fspath(path)!r}")
    if ":" in lines[0][1]:
        return _parse_adjacency(lines)
    return _parse_dense(lines)


def write_matrix(C: RelativeInteractionMatrix, path) -> None:
    """Write a dense matrix file at 17 significant digits per entry, which
    :func:`load_network` reads back as C bit for bit.

    Rows go out one at a time.  Only entries other than +0.0 are formatted;
    the rest of each row is the literal ``0`` that ``%.17g`` prints for +0.0.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for row in C.entries:
            tokens = ["0"] * C.n
            # any bit set: not +0.0, so -0.0 keeps its "-0"
            formatted = np.flatnonzero(row.view(np.int64))
            for j, value in zip(formatted.tolist(), row[formatted].tolist()):
                tokens[j] = "%.17g" % value
            handle.write(" ".join(tokens) + "\n")


def _write_rows(handle, row_format: str, columns) -> None:
    """Write the rows of the side-by-side 2-D `columns`, each through the
    ``%`` template `row_format`.  Rows go out in chunks of about
    _CSV_CHUNK_VALUES values, which bounds the Python floats held at once.
    """
    chunk = max(1, _CSV_CHUNK_VALUES // sum(c.shape[1] for c in columns))
    for start in range(0, columns[0].shape[0], chunk):
        table = np.hstack([c[start:start + chunk] for c in columns])
        handle.write("".join(row_format % tuple(row) for row in table.tolist()))


def build_star(n: int) -> RelativeInteractionMatrix:
    """Star network on n >= 3 nodes with center node 1.

    The center spreads its weight uniformly, 1/(n-1) to each other node;
    every other node accords full weight to the center.
    """
    if n < 3:
        raise ValueError(f"a star needs at least 3 nodes, got {n}")
    entries = np.zeros((n, n))
    entries[0, 1:] = 1.0 / (n - 1)
    entries[1:, 0] = 1.0
    return _validate_owned(entries)


def build_ring(n: int) -> RelativeInteractionMatrix:
    """Directed ring on n >= 3 nodes: each node accords full weight to its
    successor.  Uniform centrality, so the democratic test regime."""
    if n < 3:
        raise ValueError(f"a ring needs at least 3 nodes, got {n}")
    entries = np.zeros((n, n))
    for i in range(n):
        entries[i, (i + 1) % n] = 1.0
    return _validate_owned(entries)


def build_doubly_stochastic_random(n: int, seed: int) -> RelativeInteractionMatrix:
    """Random zero-diagonal doubly stochastic network, deterministic in seed.

    Symmetrized random convex combination of zero-diagonal permutation
    matrices (derangements); convex combinations keep both row and column
    sums at 1 and symmetrization preserves that.  Redraws until the result
    is strongly connected, so the democratic limit applies.
    """
    if n < 3:
        raise ValueError(f"need at least 3 nodes, got {n}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        entries = np.zeros((n, n))
        weights = rng.random(n + 2)
        weights /= weights.sum()
        for w in weights:
            perm = rng.permutation(n)
            while np.any(perm == np.arange(n)):
                perm = rng.permutation(n)
            entries[np.arange(n), perm] += w
        entries = 0.5 * (entries + entries.T)
        C = _validate_owned(entries)
        if len(classify(C).sinks[0]) == n:
            return C
    raise RuntimeError("could not draw a strongly connected matrix")


def write_trajectory_csv(trajectory, path) -> None:
    """Write recorded states as CSV: header ``t,x_1,...,x_n`` plus
    ``zeta_1,...,zeta_K`` columns for multi-sink runs, one row per recorded
    step at 17 significant digits, and a trailing ``# status=<tag>`` line:
    the status class's `tag`, then each of its fields as ``name=value``.
    """
    if trajectory.states.shape[0] == 0:
        raise ValueError("trajectory holds no states")
    n = trajectory.states.shape[1]
    columns = [trajectory.steps[:, None], trajectory.states]
    names = [f"x_{i}" for i in range(1, n + 1)]
    if trajectory.sink_power is not None:
        # sink_power is per step; pick out the recorded steps
        columns.append(trajectory.sink_power[trajectory.steps])
        names += [f"zeta_{k}" for k in range(1, columns[-1].shape[1] + 1)]
    row_format = "%d," + ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("t," + ",".join(names) + "\n")
        _write_rows(handle, row_format, columns)
        status = trajectory.status
        values = "".join(f" {f.name}={getattr(status, f.name)}" for f in fields(status))
        handle.write(f"# status={status.tag}{values}\n")
