"""Output checks that share no code with the package under test.

Everything here is recomputed from the files the CLI writes, with numpy
alone: the edge list is re-read, the graph rebuilt in compressed sparse rows,
stars counted from the degree histogram, and triangles and 4-cliques counted
by enumerating forward wedges of a degree-ordered orientation.  The
expected edge-count band comes from the model's closed forms, written out
again here rather than imported.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

# Edge counts must lie within this many standard deviations of the mean.
EDGE_BAND_SIGMAS = 6.0
# The fast sampler stops at its target only between boxes, so it may place a
# few edges past it; this relative slack covers that overshoot.
EDGE_BAND_SLACK = 1e-3
# Grid of noise offsets scanned for the noisy sampler's band.
NOISE_GRID = 201
# Forward edges expanded per chunk while enumerating wedges (bounds memory).
WEDGE_CHUNK = 1 << 21


class CheckError(Exception):
    """An output of the program disagrees with the independent recount."""


# ---------------------------------------------------------------------------
# reading what the CLI wrote
# ---------------------------------------------------------------------------

def read_edge_file(path: str) -> np.ndarray:
    """All (u, v) rows of an edge-list file, as an (E, 2) int64 array."""
    try:
        pairs = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    except ValueError as exc:
        raise CheckError(f"{path}: not an edge list: {exc}") from None
    if pairs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if pairs.shape[1] != 2:
        raise CheckError(f"{path}: expected two columns, got {pairs.shape[1]}")
    return pairs


def parse_table(text: str) -> dict[str, list[str]]:
    """Rows of an aligned CLI table keyed by their first field, header dropped."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise CheckError("empty table")
    out = {}
    for row in rows[1:]:
        if len(row) < 2:
            raise CheckError(f"malformed table row {row!r}")
        out[row[0]] = row[1:]
    return out


# ---------------------------------------------------------------------------
# recount
# ---------------------------------------------------------------------------

def _isin_sorted(sorted_keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    if sorted_keys.size == 0:
        return np.zeros(query.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, query), sorted_keys.size - 1)
    return sorted_keys[pos] == query


def _expand(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray):
    """For each entry of rows, every column of that CSR row.

    Returns (owner, col): owner[i] indexes into rows, col[i] is a column.
    """
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    owner = np.repeat(np.arange(rows.size), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, indices[np.repeat(indptr[rows], counts) + offsets]


def recount(pairs: np.ndarray) -> dict:
    """Exact counts of a raw edge list, with the CLI's reading semantics.

    Every id that appears is a node; self-loops and duplicate edges are
    dropped.  Returns nodes, edges, S2..S4, C3, C4, max_degree and the
    degree histogram.
    """
    if pairs.size == 0:
        return {"nodes": 0, "edges": 0, "S2": 0, "S3": 0, "S4": 0,
                "C3": 0, "C4": 0, "max_degree": 0, "degree_hist": [0]}
    ids, flat = np.unique(pairs, return_inverse=True)
    n = int(ids.size)
    uv = flat.reshape(-1, 2).astype(np.int64)
    uv = uv[uv[:, 0] != uv[:, 1]]
    lo = np.minimum(uv[:, 0], uv[:, 1])
    hi = np.maximum(uv[:, 0], uv[:, 1])
    keys = np.unique(lo * n + hi)
    lo, hi = keys // n, keys % n
    deg = np.bincount(np.concatenate([lo, hi]), minlength=n)
    hist = np.bincount(deg)
    stars = {
        d: sum(int(c) * math.comb(k, d) for k, c in enumerate(hist.tolist()) if c and k >= d)
        for d in (2, 3, 4)
    }

    # Orient every edge toward the endpoint of higher (degree, id) rank.
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    a, b = rank[lo], rank[hi]
    fkeys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    src, dst = fkeys // n, fkeys % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

    # Triangles u -> v -> w with u -> w: expand each forward edge (u, v)
    # through v's forward row and keep the closed wedges.
    tri = []
    for start in range(0, src.size, WEDGE_CHUNK):
        eu, ev = src[start:start + WEDGE_CHUNK], dst[start:start + WEDGE_CHUNK]
        owner, w = _expand(indptr, dst, ev)
        u, v = eu[owner], ev[owner]
        closed = _isin_sorted(fkeys, u * n + w)
        tri.append(np.column_stack([u[closed], v[closed], w[closed]]))
    tri = np.concatenate(tri) if tri else np.zeros((0, 3), dtype=np.int64)

    # 4-cliques: extend each triangle by a forward neighbour x of its top
    # vertex w that is adjacent to both u and v; each clique is seen once.
    owner, x = _expand(indptr, dst, tri[:, 2])
    u, v = tri[owner, 0], tri[owner, 1]
    c4 = int(np.count_nonzero(
        _isin_sorted(fkeys, u * n + x) & _isin_sorted(fkeys, v * n + x)))
    return {
        "nodes": n,
        "edges": int(keys.size),
        "S2": stars[2],
        "S3": stars[3],
        "S4": stars[4],
        "C3": int(tri.shape[0]),
        "C4": c4,
        "max_degree": int(deg.max()),
        "degree_hist": hist.tolist(),
    }


# ---------------------------------------------------------------------------
# closed-form edge-count band
# ---------------------------------------------------------------------------

def edge_band(n: int, lengths, level_matrices) -> tuple[float, float]:
    """Mean and std of the edge count with one link matrix per level.

    Each pair is linked with prob prod_r s_r marginally; two pairs sharing
    a node are jointly linked with prod_r w_r, and disjoint pairs are
    independent.  Hence Var = C(n,2)(S - S^2) + n(n-1)(n-2)(W - S^2).
    """
    lengths = np.asarray(lengths, dtype=float)
    s = w = 1.0
    for probs in level_matrices:
        probs = np.asarray(probs, dtype=float)
        row = probs @ lengths
        s *= float(lengths @ row)
        w *= float(lengths @ row ** 2)
    pairs = n * (n - 1) / 2.0
    mean = pairs * s
    var = pairs * (s - s * s) + n * (n - 1.0) * (n - 2.0) * (w - s * s)
    return mean, math.sqrt(max(var, 0.0))


def noisy_level_matrix(probs, mu: float) -> np.ndarray:
    """The diagonal-preserving perturbation of a 2x2 matrix by offset mu."""
    p = np.asarray(probs, dtype=float)
    diag = p[0, 0] + p[1, 1]
    shifted = np.array([
        [p[0, 0] - 2.0 * mu * p[0, 0] / diag, p[0, 1] + mu],
        [p[1, 0] + mu, p[1, 1] - 2.0 * mu * p[1, 1] / diag],
    ])
    return np.clip(shifted, 0.0, 1.0)


def expected_edge_range(n: int, lengths, probs, k: int, noise: float = 0.0):
    """(low, high) edge counts a correct sampler stays inside.

    Without noise: mean -/+ EDGE_BAND_SIGMAS std.  With noise each level's
    offset is unknown in [-noise, noise]; the edge survival of a level is
    piecewise linear in its offset, so the extreme means come from every
    level at the worst offset on a fine grid, and the band is widened by
    the largest std seen there.
    """
    offsets = np.linspace(-noise, noise, NOISE_GRID) if noise else [0.0]
    means, stds = [], []
    for mu in offsets:
        level = noisy_level_matrix(probs, mu) if noise else np.asarray(probs, float)
        mean, std = edge_band(n, lengths, [level] * k)
        means.append(mean)
        stds.append(std)
    spread = EDGE_BAND_SIGMAS * max(stds)
    return (min(means) - spread) * (1 - EDGE_BAND_SLACK), \
        (max(means) + spread) * (1 + EDGE_BAND_SLACK)


# ---------------------------------------------------------------------------
# checks of each command's output
# ---------------------------------------------------------------------------

FEATURE_ROWS = ("nodes", "edges", "S2", "S3", "S4", "C3", "C4")


def check_sample_output(stdout: str, counts: dict, nodes: int, band) -> None:
    expect = f"wrote {counts['edges']} edges on {nodes} nodes to "
    if not stdout.startswith(expect):
        raise CheckError(f"sample reported {stdout.strip()!r}, recount says {expect!r}")
    low, high = band
    if not low <= counts["edges"] <= high:
        raise CheckError(
            f"edge count {counts['edges']} outside the band [{low:.0f}, {high:.0f}]")


def check_features_output(stdout: str, counts: dict) -> None:
    table = parse_table(stdout)
    for key in FEATURE_ROWS:
        got = table.get(key, ["<missing>"])[0]
        if got != str(counts[key]):
            raise CheckError(f"features {key} = {got}, recount = {counts[key]}")


def check_degree_csv(text: str, counts: dict) -> None:
    lines = text.split("\r\n")
    if lines[0] != "degree,count,ccdf" or lines[-1] != "":
        raise CheckError("degree-dist CSV header or line endings are wrong")
    got = []
    for d, line in enumerate(lines[1:-1]):
        fields = line.split(",")
        if len(fields) != 3 or fields[0] != str(d):
            raise CheckError(f"degree-dist row {d} malformed: {line!r}")
        got.append(int(fields[1]))
    if got != counts["degree_hist"]:
        raise CheckError("degree-dist histogram differs from the recount")


def parse_fit_objective(stdout: str) -> float:
    first = stdout.splitlines()[0] if stdout else ""
    for field in first.split():
        if field.startswith("objective="):
            return float(field.split("=", 1)[1])
    raise CheckError(f"fit printed no objective: {first!r}")


def check_compare_output(stdout: str, counts: dict) -> None:
    """Actual column equals the recount; at least 5 of the 6 ratios lie in
    [0.9, 1.1] (the synthetic-recovery gate of acceptance criterion 06)."""
    table = parse_table(stdout)
    good = 0
    for key in FEATURE_ROWS[1:]:
        row = table.get(key)
        if row is None or len(row) not in (2, 3):
            raise CheckError(f"compare row {key} missing or malformed")
        if row[0] != str(counts[key]):
            raise CheckError(f"compare {key} actual = {row[0]}, recount = {counts[key]}")
        if len(row) == 3 and 0.9 <= float(row[2]) <= 1.1:  # no ratio when actual is 0
            good += 1
    if good < 5:
        raise CheckError(f"only {good} of 6 compare ratios lie in [0.9, 1.1]")


if __name__ == "__main__":
    try:
        print(json.dumps(recount(read_edge_file(sys.argv[1]))))
    except CheckError as exc:
        sys.exit(str(exc))
