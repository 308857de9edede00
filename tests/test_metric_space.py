import copy
import dataclasses
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopekit import (DomainError, MetricSpace, NeighborhoodSystem,
                      ParameterError, ShapeError, all_pairs_neighborhoods,
                      ball_neighborhoods, explicit_neighborhoods, grid_space,
                      shortest_path_space, validate_metric)
from slopekit.config import resolve_tol
from slopekit.errors import MetricError
from slopekit import instances, metric_space
from slopekit.instances import gen_random_instance, instance_from_dict
from slopekit.slope_core import ScalarField, _crit_rows, slopes
from slopekit.metric_space import (ValidationReport, Violation, _aligned,
                                   _bounded, _certifies, _lp_distances,
                                   _outer_sum, _triangle_breaks,
                                   floyd_warshall,
                                   metric_closure)


def brute_shortest_paths(vertices, edges):
    """Oracle: exhaustive enumeration of simple paths."""
    adj = {}
    for u, v, w in edges:
        adj[(u, v)] = min(adj.get((u, v), math.inf), w)
        adj[(v, u)] = min(adj.get((v, u), math.inf), w)
    best = {}
    for src in vertices:
        for dst in vertices:
            if src == dst:
                best[(src, dst)] = 0.0
                continue
            others = [v for v in vertices if v not in (src, dst)]
            d = adj.get((src, dst), math.inf)
            for k in range(len(others) + 1):
                for mid in itertools.permutations(others, k):
                    path = [src, *mid, dst]
                    length = 0.0
                    for a, b in zip(path, path[1:]):
                        length += adj.get((a, b), math.inf)
                    d = min(d, length)
            best[(src, dst)] = d
    return best


class TestValidateMetric:
    def test_single_point(self):
        assert validate_metric([[0]]).ok

    def test_valid_3x3(self):
        assert validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]]).ok

    def test_triangle_violation(self):
        report = validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert not report.ok
        kinds = {(v.kind, v.indices) for v in report.violations}
        assert ("triangle", (0, 2, 1)) in kinds

    def test_asymmetry_and_diagonal(self):
        report = validate_metric([[0, 1], [2, 0.5]])
        kinds = {v.kind for v in report.violations}
        assert "asymmetry" in kinds and "diagonal" in kinds

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            validate_metric([[0, 1, 2], [1, 0, 1]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ShapeError):
            validate_metric([[0, math.inf], [math.inf, 0]])


def reference_violations(dist, tol=None):
    """Oracle: the axioms checked entry by entry, in report order."""
    tol = resolve_tol(tol)
    arr = np.asarray(dist, dtype=float)
    n = arr.shape[0]
    out = []
    for i in range(n):
        if abs(arr[i, i]) > tol:
            out.append(Violation(
                "diagonal", (i,), f"dist[{i}][{i}] = {arr[i, i]} != 0"))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if arr[i, j] <= tol:
                out.append(Violation(
                    "negative", (i, j),
                    f"dist[{i}][{j}] = {arr[i, j]} is not positive"))
            if arr[i, j] - arr[j, i] > tol:
                out.append(Violation(
                    "asymmetry", (i, j),
                    f"dist[{i}][{j}] = {arr[i, j]} != dist[{j}][{i}] = {arr[j, i]}"))
    for k in range(n):
        for i in range(n):
            for j in np.flatnonzero(arr[i] - (arr[i, k] + arr[k]) > tol).tolist():
                if len({i, j, k}) == 3:
                    out.append(Violation(
                        "triangle", (i, j, k),
                        f"dist[{i}][{j}] = {arr[i, j]} > "
                        f"dist[{i}][{k}] + dist[{k}][{j}] = {arr[i, k] + arr[k, j]}"))
    return out


def broken_matrix(seed, n):
    """A metric with seeded diagonal, sign, symmetry and triangle faults,
    some of them placed exactly at the default tolerance."""
    rng = np.random.default_rng(seed)
    d = metric_closure(rng.uniform(0.3, 2.0, size=(n, n)))
    hits = lambda: rng.integers(0, n, size=(int(rng.integers(0, 4)), 2))
    for i, _ in hits():
        d[i, i] = rng.choice([1e-9, 2e-9, -0.5, 0.25])
    for i, j in hits():
        d[i, j] = rng.choice([0.0, 1e-9, -1.0, d[i, j] + 1e-9])
    for i, j in hits():
        d[i, j] += rng.choice([1e-9, 3e-9, 0.5])
    for i, j in hits():
        d[i, j] = d[j, i] = d[i, j] * rng.uniform(1.5, 4.0)   # long edges
    for i, j in hits():
        d[i, j], d[j, i] = 0.0, -0.5   # [i, j] both non-positive and asymmetric
    return d


class TestValidateReport:
    """The report is pinned entry by entry: same kinds, indices, messages
    and order as the axiom-by-axiom oracle, for ``slopekit validate``."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracle(self, seed):
        n = [2, 3, 4, 7, 12, 25, 60][seed % 7]
        d = broken_matrix([5, seed], n)
        report = validate_metric(d)
        assert report.violations == reference_violations(d)
        assert report.to_dict() == {
            "ok": report.ok,
            "violations": [{"kind": v.kind, "indices": list(v.indices),
                            "message": v.message}
                           for v in reference_violations(d)]}
        assert all(type(i) is int for v in report.violations for i in v.indices)

    def test_seeds_cover_every_kind(self):
        kinds = {v.kind for seed in range(40)
                 for v in validate_metric(broken_matrix([5, seed], 7)).violations}
        assert kinds == {"diagonal", "negative", "asymmetry", "triangle"}

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.3])
    def test_explicit_tolerance(self, tol):
        d = broken_matrix([6, 1], 12)
        assert validate_metric(d, tol).violations == reference_violations(d, tol)
        assert validate_metric(np.zeros((1, 1)), tol).summary() == "ok"


def excess_mask(arr, tol):
    """Oracle for ``_triangle_breaks``: the pairs (i, j) with
    fl(d_ij - fl(d_ik + d_kj)) > tol for some k, degenerate triples
    included, computed all at once."""
    excess = arr[:, :, None] - (arr[:, None, :] + arr.T[None, :, :])
    return excess.max(axis=2) > tol


def excess_ok(arr, tol):
    """Oracle: fl(d_ij - fl(d_ik + d_kj)) <= tol on every ordered triple."""
    return not excess_mask(arr, tol).any()


def triangle_ok(d, tol):
    """Whether the triangle pass, as ``validate_metric`` calls it, finds no
    broken pair."""
    return not _triangle_breaks(d, tol, np.array_equal(d, d.T)).any()


def collinear(rng, n, integer=False):
    """Distances of n points on a line: every triangle through a middle
    point holds with equality, exactly so for integer coordinates."""
    x = (rng.integers(0, 4 * n, n) if integer else rng.uniform(0, 5, n))
    x = np.unique(x).astype(float)
    return np.abs(x[:, None] - x[None, :])


def on_the_edge(rng, n, delta):
    """A collinear metric with a symmetric pair (i, j) lengthened by delta,
    so that the triangles through the points between them exceed by delta."""
    d = collinear(rng, n)
    i, j = sorted(rng.choice(len(d), 2, replace=False))
    d[i, j] = d[j, i] = d[i, j] + delta
    return d


# Scales at which only a faulty BLAS sums differently from np.add: subnormal
# sums, which a flush to zero loses, and sums near 2^1024, which overflow.
BLAS_SCALES = (1.0, 2.0 ** -1070, 2.0 ** 1022)

# Every edge-tile shape of the BLAS kernels behind _outer_sum.
SWEEP_SIZES = (*range(1, 71), 200)


class TestTriangleFastPath:
    """The one triangle pass of ``validate_metric`` and the report it names
    from the broken pairs: each case is compared entry by entry with the
    oracle loop."""

    TOLS = (None, 0.0, 1e-9, 1e-6)

    def sweep(self):
        """Closures of n = 1-70 and 200 points, at scale BLAS_SCALES[n % 3]:
        each scale meets every residue of n mod 8."""
        rng = np.random.default_rng(19)
        for n in SWEEP_SIZES:
            d = metric_closure(rng.uniform(0.3, 2.0, (n, n)))
            yield d * BLAS_SCALES[n % 3]

    def cases(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4, 15, 16, 17, 33, 40):
            yield metric_closure(rng.uniform(0.3, 2.0, (n, n)))
            yield collinear(rng, n)
            yield collinear(rng, n, integer=True)
        for tol in (1e-9, 1e-6):
            for delta in (tol, np.nextafter(tol, 1), 2 * tol, 0.5 * tol):
                yield on_the_edge(rng, int(rng.integers(3, 40)), delta)
        for tol in (1e-9, 1e-6):
            for n in (3, 9, 20, 37):
                d = metric_closure(rng.uniform(0.3, 2.0, (n, n)))
                np.fill_diagonal(d, rng.uniform(-tol, tol, n))
                d[0, 0], d[-1, -1] = -tol, tol
                yield d
        for n in (3, 10, 24):
            d = metric_closure(rng.uniform(0.3, 2.0, (n, n)))
            i, j = rng.choice(n, 2, replace=False)
            d[i, j] += rng.choice([5e-10, 1e-9])   # asymmetric, within tol
            yield d
        ties = np.random.default_rng(16)
        for n in (15, 16, 17, 33):   # around the slab size; exact ties
            yield metric_closure(ties.integers(1, 4, (n, n)).astype(float))

    @pytest.mark.parametrize("tol", TOLS)
    def test_matches_oracle(self, tol):
        for d in self.cases():
            assert validate_metric(d, tol).violations == \
                reference_violations(d, tol)

    @pytest.mark.parametrize("tol", TOLS)
    def test_large_metric(self, tol):
        rng = np.random.default_rng(12)
        d = metric_closure(rng.uniform(0.3, 2.0, (300, 300)))
        d[3, 250] = d[250, 3] = d[3, 250] * 1.5   # a few broken triangles
        report = validate_metric(d, tol)
        assert report.violations == reference_violations(d, tol)
        assert report.violations

    def test_fast_path_is_exact(self):
        """The broken pairs, pair by pair, of every case, symmetric or not."""
        rng = np.random.default_rng(13)
        for d in self.cases():
            symmetric = np.array_equal(d, d.T)
            excess = (d[:, :, None] - (d[:, None, :] + d.T[None, :, :])).ravel()
            tols = [0.0, 1e-9, 1e-6, *rng.choice(excess, 3)]
            for tol in tols:   # realised excesses put some exactly at tol
                assert np.array_equal(_triangle_breaks(d, tol, symmetric),
                                      excess_mask(d, tol))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_sweep_is_exact(self):
        """The largest excess, one np.add per intermediate in the oracle,
        passes at itself and fails one ulp below, on every size at its scale:
        a slab sum off by one rounding would move it."""
        for d in self.sweep():
            top = max_excess(d) if len(d) > 70 else \
                (d[:, :, None] - (d[:, None, :] + d[None, :, :])).max()
            assert triangle_ok(d, top)
            assert not triangle_ok(d, math.nextafter(top, -math.inf))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_outer_sums_are_the_bits_of_np_add(self):
        """The slab sums as the triangle pass stacks them, and the n x n sums
        of floyd_warshall with +inf in the column, equal
        np.add byte for byte in an output first filled with nan: a BLAS that
        reads the output at beta = 0, or flushes subnormals, fails here."""
        rows = metric_space._ROWS
        rng = np.random.default_rng(21)
        partial = (metric_closure(rng.uniform(0.3, 2.0, (n, n)))
                   for n in (91, 150, 220, 410))   # n not a multiple of mids
        for d in itertools.chain(self.sweep(), partial):
            n = len(d)
            mids = metric_space._slab_depth(n)
            lhs, rhs = np.ones((mids, rows, 2)), np.ones((mids, 2, n))
            for lo in sorted({0, (n - 1) // rows * rows}):
                for k in sorted({0, (n - 1) // mids * mids}):
                    col = d[k:k + mids, lo:lo + rows]
                    row = d[k:k + mids, lo:]
                    out = np.full((len(col), col.shape[1], row.shape[1]),
                                  np.nan)
                    _outer_sum(col, row, out, lhs[:len(col), :col.shape[1]],
                               rhs[:len(col), :, lo:])
                    assert out.tobytes() == \
                        np.add(col[:, :, None], row[:, None, :]).tobytes()
            col = d[:, n // 2].copy()
            col[::3] = np.inf
            out = np.full((n, n), np.nan)
            with np.errstate(invalid="ignore"):   # as in floyd_warshall
                _outer_sum(col, d[0], out, np.ones((n, 2)), np.ones((2, n)))
            assert out.tobytes() == np.add.outer(col, d[0]).tobytes()

    def test_asymmetric_sweep_matches_oracle(self):
        """The one pass on asymmetric matrices at unit and subnormal scale;
        the sizes at each scale take every residue mod 8."""
        rng = np.random.default_rng(20)
        for n in range(3, 71, 5):
            d = metric_closure(rng.uniform(0.3, 2.0, (n, n)))
            i, j = rng.integers(0, n, (2, 3))
            d[i, j] *= 1.5
            for scale in BLAS_SCALES[:1 if n > 40 else 2]:
                assert validate_metric(d * scale, 0.0).violations == \
                    reference_violations(d * scale, 0.0)

    @pytest.mark.parametrize("n", [15, 16, 17, 33, 40])
    def test_one_broken_triangle_per_intermediate(self, n):
        """Each k, slab edges included, is the only intermediate of one
        broken triangle: all distances 2, but 1 from i and j to k."""
        rng = np.random.default_rng([17, n])
        for k in range(n):
            i, j = rng.choice([p for p in range(n) if p != k], 2, replace=False)
            d = np.full((n, n), 2.0)
            np.fill_diagonal(d, 0.0)
            d[i, k] = d[k, i] = d[j, k] = d[k, j] = 1.0
            d[i, j] = d[j, i] = 2.0 + 1e-6
            assert not triangle_ok(d, 1e-9)
            report = validate_metric(d)
            assert report.violations == reference_violations(d)
            assert [v.indices for v in report.violations] == [
                (min(i, j), max(i, j), k), (max(i, j), min(i, j), k)]

    @pytest.mark.parametrize("n, depth", [
        (1, 1), (3, 3), (12, 12), (90, 90), (91, 90), (150, 54), (200, 40),
        (220, 37), (400, 20), (410, 19), (1000, 8), (8192, 1), (10 ** 5, 1)])
    def test_slab_depth(self, n, depth):
        """The stacked sums of a slab fill at most 1 MiB, and one slab of
        every intermediate serves n <= 90, the suite's sizes included."""
        assert metric_space._slab_depth(n) == depth
        assert depth * metric_space._ROWS * n * 8 <= 2 ** 20 or depth == 1

    @pytest.mark.parametrize("n", [91, 150, 220])
    def test_broken_triangle_at_the_end_of_a_partial_slab(self, n):
        """The last intermediate, alone in the last, partial block of k, is
        the only one of a broken triangle, in the first and the last rows."""
        k = n - 1
        assert n % metric_space._slab_depth(n) != 0
        for i, j in ((0, 1), (n - 3, n - 2)):
            d = np.full((n, n), 2.0)
            np.fill_diagonal(d, 0.0)
            d[i, k] = d[k, i] = d[j, k] = d[k, j] = 1.0
            d[i, j] = d[j, i] = 2.0 + 1e-6
            excess = d[i, j] - 2.0   # exactly, through k alone
            assert triangle_ok(d, excess)
            assert not triangle_ok(d, math.nextafter(excess, 0.0))
            assert [v.indices for v in validate_metric(d).violations] == [
                (i, j, k), (j, i, k)]

    @pytest.mark.parametrize("n", [3, 15, 16, 17, 33])
    def test_degenerate_triples_included(self, n):
        """A large diagonal entry breaks only the triples (i, i, k); the
        pass must see it in every row, the last one included."""
        d = metric_closure(np.random.default_rng([18, n]).uniform(0.3, 2.0, (n, n)))
        for i in (0, n // 2, n - 1):
            e = d.copy()
            e[i, i] = 5.0
            assert not triangle_ok(e, 1e-9) and not excess_ok(e, 1e-9)
            assert validate_metric(e).violations == reference_violations(e)

    def test_boundary_cases_reach_both_outcomes(self):
        """The seeded cases hit the tolerance from both sides, and some
        fail the pass only through degenerate triples."""
        outcomes = set()
        for d in self.cases():
            if len(d) >= 3 and np.array_equal(d, d.T):
                for tol in (1e-9, 1e-6):
                    outcomes.add((triangle_ok(d, tol),
                                  bool(reference_violations(d, tol))))
        assert outcomes == {(True, False), (False, True), (False, False)}

    def test_asymmetric_matrix_takes_the_one_pass(self, monkeypatch):
        passes = count_calls(monkeypatch, "_triangle_breaks")
        d = metric_closure(np.random.default_rng(14).uniform(0.3, 2.0, (8, 8)))
        d[5, 2] += 1e-10
        d[0, 1] = d[1, 0] = 5.0   # a triangle violation the pass must report
        report = validate_metric(d)
        assert [symmetric for _, _, symmetric in passes] == [False]
        assert report.violations == reference_violations(d)
        assert {v.kind for v in report.violations} == {"triangle"}

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
    def test_report_sweep_at_slab_edges(self, tol):
        """Asymmetric and broken symmetric matrices, some with a degenerate
        diagonal, at sizes around the slab edges: the broken pairs and the
        report, entry by entry."""
        rng = np.random.default_rng([22, int(tol * 1e9)])
        seen = set()
        for n in (15, 16, 17, 33, 91, 150):
            d = metric_closure(rng.uniform(0.3, 2.0, (n, n)))
            i, j = rng.integers(0, n, (2, 4))
            asym = d.copy()
            asym[i, j] *= rng.uniform(1.5, 3.0, 4)
            asym[j[0], i[0]] += 2 * tol   # a nudge at twice the tolerance
            sym = d.copy()
            sym[i, j] = sym[j, i] = d[i, j] * rng.uniform(1.5, 3.0, 4)
            for e in (asym, sym):
                for diagonal in (False, True):
                    if diagonal:   # negative or large: degenerate triples
                        e = e.copy()
                        e[i[1], i[1]], e[j[2], j[2]] = -tol - 0.01, 0.5
                    symmetric = np.array_equal(e, e.T)
                    seen.add(symmetric)
                    assert np.array_equal(_triangle_breaks(e, tol, symmetric),
                                          excess_mask(e, tol))
                    report = validate_metric(e, tol)
                    assert report.violations == reference_violations(e, tol)
                    assert any(v.kind == "triangle" for v in report.violations)
        assert seen == {False, True}

    @pytest.mark.parametrize("sums", [1, 64, 700])
    def test_report_blocks_of_intermediates(self, monkeypatch, sums):
        """With a small sum budget the pass runs one intermediate per slab
        and the report names the broken pairs in many blocks of k, whose
        concatenation keeps the order of k, then i, then j."""
        monkeypatch.setattr(metric_space, "_SUMS", sums)
        rng = np.random.default_rng([23, sums])
        for n in (8, 17, 40):
            d = metric_closure(rng.uniform(0.3, 2.0, (n, n)))
            d *= rng.uniform(0.5, 1.5, (n, n))   # many broken pairs
            for e in (d, (d + d.T) / 2):
                report = validate_metric(e, 1e-9)
                assert report.violations == reference_violations(e, 1e-9)
                assert any(v.kind == "triangle" for v in report.violations)

    def test_negative_diagonal_marks_no_pair(self, monkeypatch):
        """No triple of distinct points reads the diagonal, so the pass runs
        on a zero diagonal: a negative one marks no pair for the report to
        search, though every triple (i, j, i) breaks."""
        masks, kernel = [], metric_space._triangle_breaks
        monkeypatch.setattr(metric_space, "_triangle_breaks", lambda *args:
                            masks.append(kernel(*args)) or masks[-1])
        d = metric_closure(np.random.default_rng(24).uniform(0.3, 2.0, (40, 40)))
        np.fill_diagonal(d, -1.0)
        assert not excess_ok(d, 1e-9)
        report = validate_metric(d)
        assert report.violations == reference_violations(d)
        assert {v.kind for v in report.violations} == {"diagonal"}
        assert len(masks) == 1 and not masks[0].any()

    def test_small_spaces_skip_the_pass(self, monkeypatch):
        monkeypatch.setattr(metric_space, "_triangle_breaks", None)
        for d in ([[0.0]], [[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [2.0, 0.0]]):
            assert validate_metric(d).violations == reference_violations(d)


def fresh_floyd_warshall(d):
    """Oracle: the Floyd-Warshall loop with a fresh array per k."""
    d = np.array(d, dtype=float)
    for k in range(d.shape[0]):
        np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :], out=d)
    return d


def sparse_weights(rng, n, integer=False, scale=1.0, symmetric=True):
    """A weight matrix, symmetric unless asked, with +inf for missing
    edges; integer weights make ties between paths."""
    edges = rng.random((n, n)) < rng.uniform(0.02, 0.5)
    w = (rng.integers(1, 4, (n, n)).astype(float) if integer
         else rng.uniform(0.2, 2.0, (n, n)))
    d = np.where(edges, w * scale, np.inf)
    if symmetric:
        d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("seed", range(8))
def test_floyd_warshall_matches_fresh_arrays(seed):
    """Seeded cases, then a share of the sizes 1-70 and 200 (every edge tile
    of BLAS), symmetric when n % 16 < 8 and at scale BLAS_SCALES[n % 3], so
    that each kind meets every residue of n mod 8, with +inf in the column
    operand wherever an edge is missing."""
    rng = np.random.default_rng([15, seed])
    cases = [(int(rng.integers(1, 40)), False, 1.0, True),
             (15, True, 1.0, True), (16, True, 1.0, True),
             (17, False, 1.0, True), (33, True, 1.0, True)]
    cases += [(n, n % 4 == 0, BLAS_SCALES[n % 3], n % 16 < 8)
              for n in SWEEP_SIZES[seed::8]]
    for n, integer, scale, symmetric in cases:
        d = sparse_weights(rng, n, integer, scale, symmetric)
        got = floyd_warshall(d)
        want = fresh_floyd_warshall(d)
        assert got.tobytes() == want.tobytes()   # inf entries included
        assert not np.shares_memory(got, d)


def test_floyd_warshall_keeps_a_negative_zero_diagonal():
    """BLAS sums (-0) + (-0) to +0; the closure still keeps a -0.0 diagonal
    as the broadcast oracle does."""
    rng = np.random.default_rng(24)
    for n in (1, 2, 9, 33):
        d = sparse_weights(rng, n)
        np.fill_diagonal(d, -0.0)
        got = floyd_warshall(d)
        assert got.tobytes() == fresh_floyd_warshall(d).tobytes()
        assert np.signbit(got.diagonal()).all()


def test_kernels_raise_no_floating_point_error():
    """BLAS edge tiles multiply +inf by padding zeros in lanes never stored;
    no flag of that may surface.  A chain of odd length leaves +inf in the
    column operand of most stages."""
    n = 41
    edges = [(i, i + 1, 0.5 + i % 3) for i in range(n - 1)] + [(0, 20, 7.0)]
    matrix = gen_random_instance(25, 33, metric_kind="matrix").to_dict()
    with np.errstate(all="raise"):
        assert shortest_path_space(range(n), edges).n == n
        assert instance_from_dict(matrix).space.n == 33
        assert validate_metric(matrix["metric"]["dist"]).ok


def at_offset(a, offset):
    """A copy of ``a`` whose data starts ``offset`` bytes past a 64-byte
    boundary."""
    buf = np.empty(a.size + 8)
    start = (offset - buf.ctypes.data) % 64 // 8
    out = buf[start:start + a.size].reshape(a.shape)
    out[...] = a
    assert out.ctypes.data % 64 == offset
    return out


def test_kernels_ignore_input_alignment():
    rng = np.random.default_rng(21)
    w = sparse_weights(rng, 33, integer=True)
    d = metric_closure(rng.uniform(0.3, 2.0, (33, 33)))
    d[2, 30] = d[30, 2] = 3 * d.max()   # broken triangles through every k
    closures, reports = set(), []
    for offset in (0, 16, 32, 48):
        closures.add(floyd_warshall(at_offset(w, offset)).tobytes())
        reports.append(validate_metric(at_offset(d, offset)).to_dict())
    assert closures == {fresh_floyd_warshall(w).tobytes()}
    assert reports == [reports[0]] * 4 and not reports[0]["ok"]


@pytest.mark.parametrize("size", [0, 1, 7, 200 ** 2])
def test_aligned_buffer(size):
    buf = _aligned(size)
    assert buf.shape == (size,) and buf.dtype == np.float64
    assert buf.ctypes.data % 64 == 0


class TestShortestPathSpace:
    def test_path_graph(self):
        space = shortest_path_space(["a", "b", "c"],
                                    [("a", "b", 1.0), ("b", "c", 1.0)])
        assert space.distance("a", "c") == 2.0

    def test_single_vertex(self):
        space = shortest_path_space(["v"], [])
        assert space.n == 1 and space.distance("v", "v") == 0.0

    def test_detour_beats_heavy_edge(self):
        space = shortest_path_space(
            ["a", "b", "c"],
            [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 5.0)])
        assert space.distance("a", "c") == 2.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        vertices = list("abcde")
        edges = [("a", "b", 0.5), ("b", "c", 1.5), ("c", "d", 0.7),
                 ("d", "e", 2.0), ("a", "e", 1.1), ("b", "d", 0.9)]
        space = shortest_path_space(vertices, edges)
        oracle = brute_shortest_paths(vertices, edges)
        for u in vertices:
            for v in vertices:
                assert space.distance(u, v) == pytest.approx(oracle[(u, v)])

    def test_disconnected_names_pair(self):
        with pytest.raises(ParameterError, match="'c'"):
            shortest_path_space(["a", "b", "c"], [("a", "b", 1.0)])

    def test_nonpositive_weight(self):
        with pytest.raises(ParameterError):
            shortest_path_space(["a", "b"], [("a", "b", 0.0)])

    @pytest.mark.parametrize("w", [math.nan, math.inf])
    def test_nonfinite_weight(self, w):
        """Such an edge used to be dropped: nan < d and inf < inf are False."""
        with pytest.raises(ParameterError,
                           match=r"edge \('b', 'c'\) has non-finite weight"):
            shortest_path_space(["a", "b", "c"], [
                ("a", "b", 1.0), ("b", "c", w), ("a", "c", 3.0)])

    def test_minus_infinite_weight_is_nonpositive(self):
        with pytest.raises(ParameterError, match="nonpositive weight -inf"):
            shortest_path_space(["a", "b"], [("a", "b", -math.inf)])

    def test_weight_below_the_tolerance(self):
        """The closure bound replaces the triangle pass only: the sign check
        still runs."""
        with pytest.raises(MetricError, match="is not positive"):
            shortest_path_space(["a", "b", "c"],
                                [("a", "b", 1.0), ("b", "c", 1e-10)])

    @pytest.mark.parametrize("u, v", [("a", "zz"), ("zz", 1), (0, 3), (-1, 2),
                                      (0, 10 ** 30), (1.0, 2), (np.float64(0), 1)])
    def test_unknown_vertex_is_a_domain_error(self, u, v):
        """A name that is no vertex, an index out of range, and a float, which
        is read as a name, all raise the same error as an unknown index."""
        with pytest.raises(DomainError, match=r"uses unknown vertices") as info:
            shortest_path_space(["a", "b", "c"], [("a", "b", 1.0), (u, v, 1.0)])
        assert str(info.value) == f"edge ({u!r}, {v!r}) uses unknown vertices"

    def test_any_integer_is_an_index(self):
        want = shortest_path_space(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 2.0)])
        for i0, i1, i2 in [(np.int64(0), np.int32(1), np.uint8(2)),
                           (False, True, 2)]:
            got = shortest_path_space(["a", "b", "c"],
                                      [(i0, i1, 1.0), (i1, i2, 2.0)])
            assert got.dist.tobytes() == want.dist.tobytes()

    @pytest.mark.parametrize("edges, error, message", [
        # the first bad edge in list order is named, whatever comes later
        ([("a", "b", -1.0), ("a", "zz", 1.0)], ParameterError,
         "edge ('a', 'b') has nonpositive weight -1.0"),
        ([("a", "zz", -1.0), ("a", "b", -1.0)], DomainError,
         "edge ('a', 'zz') uses unknown vertices"),
        # within an edge: unknown vertex, self-loop, sign, finiteness
        ([("zz", "zz", math.nan)], DomainError,
         "edge ('zz', 'zz') uses unknown vertices"),
        ([("a", "b", 1.0), ("c", 2, 0.0)], ParameterError,
         "self-loop at 'c' not allowed"),
        ([("b", "c", 0.0)], ParameterError,
         "edge ('b', 'c') has nonpositive weight 0.0"),
        ([("b", "c", -math.inf)], ParameterError,
         "edge ('b', 'c') has nonpositive weight -inf"),
        ([(1, 2, math.inf)], ParameterError,
         "edge ('b', 'c') has non-finite weight inf"),
        ([("a", "b", 1.0), (2, "a", math.nan)], ParameterError,
         "edge ('c', 'a') has non-finite weight nan"),
    ])
    def test_first_bad_edge_and_check_order(self, edges, error, message):
        with pytest.raises(error) as info:
            shortest_path_space(["a", "b", "c"], edges)
        assert type(info.value) is error and str(info.value) == message

    def test_duplicate_edges_keep_the_least_weight(self):
        rng = np.random.default_rng(12)
        n = 9
        edges = [(int(rng.integers(0, v)), v, float(rng.uniform(0.2, 2.0)))
                 for v in range(1, n)]
        edges += [(j, i, float(rng.uniform(0.2, 2.0))) for i, j, _ in edges]
        edges += [(int(i), int(j), float(rng.uniform(0.2, 2.0)))
                  for i, j in rng.integers(0, n, size=(30, 2)) if i != j]
        w = np.full((n, n), np.inf)
        np.fill_diagonal(w, 0.0)
        for i, j, wt in edges:   # the per-edge loop the build replaced
            if wt < w[i, j]:
                w[i, j] = w[j, i] = wt
        space = shortest_path_space([f"v{i}" for i in range(n)], edges)
        assert space.dist.tobytes() == floyd_warshall(w).tobytes()

    def test_edges_must_be_triples(self):
        # numpy's reshape raised a bare ValueError that named no edge
        for edges, shown in (([("a", "b")], "('a', 'b')"),
                             ([("a", "b", 1.0, 2.0)], "('a', 'b', 1.0, 2.0)"),
                             ([("a", "b", 1.0), ("b", "c")], "('b', 'c')")):
            with pytest.raises(ParameterError) as info:
                shortest_path_space(["a", "b", "c"], edges)
            assert str(info.value) == (
                f"malformed graph edge (want [u, v, w]): {shown}")

    def test_relabel_invariance(self):
        edges = [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 2.5)]
        s1 = shortest_path_space(["a", "b", "c"], edges)
        s2 = shortest_path_space(["x", "y", "z"], edges)
        assert np.array_equal(s1.dist, s2.dist)


def load_graph(edges):
    return instance_from_dict({
        "points": ["a", "b", "c", "d"], "metric": {"kind": "graph", "edges": edges},
        "neighborhoods": {"kind": "all"}}).space


class TestLoadedEdges:
    """Edges of numbers with index ends are read as one array; every other
    encoding goes through the per-edge reader, with its errors."""

    @pytest.mark.parametrize("edges", [
        [[0, 1, 1.0], [1, 2, 3.5], [2, 3, 1], [0, 3, 6.0]],
        [[0, 1, 1], [1, 2, 3.5], [2, 3, 1], [0, 3, 6]],
        [[0.0, 1.0, 1.0], [1, 2.0, 3.5], [2, 3, 1.0], [-0.0, 3, 6.0]],
        [[False, True, True], [True, 2, 3.5], [2, 3, 1], [0, 3, 6]],
        [["0", "1", "1"], [1, 2, "3.5"], [2, 3, 1], [0, 3, 6]],
        [[1, 0, 1.0], [2, 1, 3.5], [3, 2, 1.0], [3, 0, 6.0], [0, 1, 9.0]],
    ])
    def test_equal_spaces(self, edges):
        want = shortest_path_space("abcd", [(0, 1, 1.0), (1, 2, 3.5),
                                            (2, 3, 1.0), (0, 3, 6.0)])
        got = load_graph(edges)
        assert got == want and got.dist.tobytes() == want.dist.tobytes()

    @pytest.mark.parametrize("edges, error, message", [
        ([[0, 1, 1.0], [0.5, 2, 1.0]], ParameterError,
         "malformed graph edge (want [u, v, w]): [0.5, 2, 1.0]"),
        ([[0, 1, 1.0], [1, 2]], ParameterError,
         "malformed graph edge (want [u, v, w]): [1, 2]"),
        ([[0, 1], [1, 2]], ParameterError,
         "malformed graph edge (want [u, v, w]): [0, 1]"),
        ([[0, 1, 1.0, 2.0]], ParameterError,
         "malformed graph edge (want [u, v, w]): [0, 1, 1.0, 2.0]"),
        ([["x", 1, 1.0]], ParameterError,
         "malformed graph edge (want [u, v, w]): ['x', 1, 1.0]"),
        ([[0, 1, None]], ParameterError,
         "malformed graph edge (want [u, v, w]): [0, 1, None]"),
        ([[0, 1, [1.0]]], ParameterError,
         "malformed graph edge (want [u, v, w]): [0, 1, [1.0]]"),
        ([[math.nan, 1, 1.0]], ParameterError,
         "malformed graph edge (want [u, v, w]): [nan, 1, 1.0]"),
        ([[0, math.inf, 1.0]], ParameterError,
         "malformed graph edge (want [u, v, w]): [0, inf, 1.0]"),
        ([[0, 1, 1.0], [0, 4, 1.0]], DomainError,
         "edge (0, 4) uses unknown vertices"),
        ([[0, 4.0, 1.0]], DomainError, "edge (0, 4) uses unknown vertices"),
        ([[-1, 2, 1.0]], DomainError, "edge (-1, 2) uses unknown vertices"),
        ([[0, 10 ** 30, 1.0]], DomainError,
         f"edge (0, {10 ** 30}) uses unknown vertices"),
        ([[0, 1e30, 1.0]], DomainError,
         f"edge (0, {int(1e30)}) uses unknown vertices"),
        ([[0, 1, 1.0], [2, 2, 1.0]], ParameterError,
         "self-loop at 'c' not allowed"),
        ([[0, 1, -1.5], [0, 9, 1.0]], ParameterError,
         "edge ('a', 'b') has nonpositive weight -1.5"),
        ([[0, 1, 0]], ParameterError, "edge ('a', 'b') has nonpositive weight 0.0"),
        ([[0, 1, math.inf]], ParameterError,
         "edge ('a', 'b') has non-finite weight inf"),
        ([[3, 1, math.nan]], ParameterError,
         "edge ('d', 'b') has non-finite weight nan"),
        ([[0, 1, 1.0], [2, 3, 1.0]], ParameterError,
         "graph is disconnected: no path from 'a' to 'c'"),
        ([], ParameterError, "graph is disconnected: no path from 'a' to 'b'"),
        (["013", [1, 2, 1.0], [2, 3, 1.0]], ParameterError,   # read as (0, 1, 3)
         "malformed graph edge (want [u, v, w]): '013'"),
    ])
    def test_malformed(self, edges, error, message):
        with pytest.raises(error) as info:
            load_graph(edges)
        assert type(info.value) is error and str(info.value) == message

    def test_no_per_edge_reads(self, monkeypatch):
        """The generator's 200-point graph is loaded without ``_edge``."""
        inst = gen_random_instance(3, 200)
        monkeypatch.setattr(instances, "_edge", None)
        assert instance_from_dict(inst.to_dict()).space == inst.space


def edge_refused(row):
    return ParameterError, f"malformed graph edge (want [u, v, w]): {row}"


def pair_refused(row):
    return ParameterError, f"malformed neighbor pair (want [x, y]): {row}"


class TestMalformedRows:
    """A row is a list, tuple or array of its width, and every route names
    the first that is not.  The builders raised numpy's bare "cannot
    reshape" ValueError, a TypeError, or read a nested row flat; the
    loader and grid_space read a string as its characters (the loader's
    edges in ``TestLoadedEdges``)."""

    @pytest.mark.parametrize("build, refusal", [
        (lambda e3: shortest_path_space("ab", [(0, 1)]), edge_refused("(0, 1)")),
        (lambda e3: shortest_path_space("ab", [(0, 1, 1.0, 2.0)]),
         edge_refused("(0, 1, 1.0, 2.0)")),
        (lambda e3: shortest_path_space("ab", [(0, 1, 1.0), (0, 1)]),
         edge_refused("(0, 1)")),
        (lambda e3: shortest_path_space("ab", [5]), edge_refused("5")),
        (lambda e3: shortest_path_space("ab", ["ab1"]), edge_refused("'ab1'")),
        (lambda e3: shortest_path_space("ab", [([0], [1], [2.0])]),
         (ParameterError, "malformed edge weight: [2.0]")),
        (lambda e3: shortest_path_space("ab", 5),
         (ParameterError, "malformed graph edges: 5")),
        (lambda e3: explicit_neighborhoods(e3, [("a",)]), pair_refused("('a',)")),
        (lambda e3: explicit_neighborhoods(e3, [("a", "b", "c")]),
         pair_refused("('a', 'b', 'c')")),
        (lambda e3: explicit_neighborhoods(e3, [("a", "b"), ("b",)]),
         pair_refused("('b',)")),
        (lambda e3: explicit_neighborhoods(e3, [5]), pair_refused("5")),
        (lambda e3: explicit_neighborhoods(e3, ["ab"]), pair_refused("'ab'")),
        (lambda e3: explicit_neighborhoods(e3, [(["a"], "b")]),
         (DomainError, "pair (['a'], 'b') uses unknown points")),
        (lambda e3: explicit_neighborhoods(e3, 5),
         (ParameterError, "malformed neighbor pairs: 5")),
        (lambda e3: loaded_system(["01", [1, 2]]),
         (ParameterError, "malformed neighbor pair (want [i, j]): '01'")),
        (lambda e3: grid_space(["01"], [3]),
         (ParameterError, "malformed grid bound (want [lo, hi]): '01'")),
    ], ids=["edge-of-two", "edge-of-four", "ragged-edges", "edge-number",
            "edge-string", "nested-edge", "edges-number", "pair-of-one",
            "pair-of-three", "ragged-pairs", "pair-number", "pair-string",
            "nested-pair", "pairs-number", "loaded-pair-string",
            "grid-bound-string"])
    def test_refused_by_name(self, e3, build, refusal):
        error, message = refusal
        with pytest.raises(error) as info:
            build(e3)
        assert type(info.value) is error and str(info.value) == message

    def test_rows_of_each_type_build_one_space(self, e3):
        rows = [(0, 1, 1.5), [1, 2, 2.0], np.array([0, 2, 4.0], dtype=object)]
        assert shortest_path_space("abc", rows) == shortest_path_space(
            "abc", np.array([[0, 1, 1.5], [1, 2, 2.0], [0, 2, 4.0]], dtype=object))
        with pytest.raises(DomainError) as info:   # a float is no index
            shortest_path_space("abc", [np.array([0.0, 2.0, 4.0])])
        assert str(info.value) == "edge (0.0, 2.0) uses unknown vertices"
        assert explicit_neighborhoods(e3, [("a", "b"), ["c", "b"]]) == \
            explicit_neighborhoods(e3, np.array([["a", "b"], ["b", "c"]],
                                                dtype=object))


class TestBallNeighborhoods:
    def test_unit_radius(self, e3):
        nb = ball_neighborhoods(e3, 1.0)
        assert nb.of("a") == {"b"}
        assert nb.of("b") == {"a", "c"}
        assert nb.of("c") == {"b"}

    def test_radius_at_diameter(self, e3):
        nb = ball_neighborhoods(e3, e3.diameter())
        assert all(len(nb.of(p)) == 2 for p in e3.points)

    def test_radius_below_min_distance(self, e3):
        nb = ball_neighborhoods(e3, 0.5)
        assert all(not nb.of(p) for p in e3.points)

    def test_nonpositive_radius(self, e3):
        with pytest.raises(ParameterError):
            ball_neighborhoods(e3, 0.0)

    def test_nan_radius(self, e3):
        with pytest.raises(ParameterError, match="nan"):
            ball_neighborhoods(e3, math.nan)
        obj = {"points": ["a", "b"], "metric": {"kind": "matrix",
                                                "dist": [[0, 1], [1, 0]]},
               "neighborhoods": {"kind": "ball", "r": math.nan}}
        with pytest.raises(ParameterError, match="nan"):
            instance_from_dict(obj)

    def test_symmetric_for_any_radius(self, e3):
        for r in (0.3, 1.0, 1.5, 2.0, 5.0):
            ball_neighborhoods(e3, r).validate()

    def test_space_asymmetric_within_tol(self):
        """A pair is a neighbour only when both directions are within
        r + tol, so a space asymmetric by less than tol still gets a
        symmetric system."""
        space = MetricSpace(("a", "b", "c"),
                            [[0, 1, 2], [1 + 5e-10, 0, 1], [2, 1, 0]])
        assert validate_metric(space.dist).ok
        nb = ball_neighborhoods(space, 1 - 8e-10)
        assert nb.of("a") == set() and nb.of("b") == {"c"}
        assert ball_neighborhoods(space, 1 - 3e-10).of("a") == {"b"}

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pointwise_definition(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        space = MetricSpace(tuple(f"p{i}" for i in range(n)),
                            metric_closure(rng.uniform(0.3, 2.0, (n, n))))
        radii = (*rng.choice(space.dist[space.dist > 0], 3), 0.1, 9.0)
        for r, tol in itertools.product(radii, (0.0, 1e-9)):
            want = {p: {q for j, q in enumerate(space.points)
                        if j != i and space.dist[i, j] <= r + tol}
                    for i, p in enumerate(space.points)}
            assert ball_neighborhoods(space, r, tol).neighbors == want


class TestNeighborhoodRestrict:
    def test_induced_system(self, e3):
        nb = ball_neighborhoods(e3, 1.0)
        sub = nb.restrict(["c", "b", "zz"])   # unknown points are dropped
        assert sub.points == ("b", "c")
        assert sub.neighbors == {"b": {"c"}, "c": {"b"}}


# Systems with their first fault, as building and then validating them
# reports it.  A neighbour that is not a point is refused when the system
# is built; the other faults are found by validate().
VALIDATE_CASES = [
    ((("a", "b", "c", "d"), {"a": {"b", "c", "d"}}),
     "asymmetric neighborhood: 'b' in neighbors('a') but not vice versa"),
    ((("a", "b"), {"a": {"x", "y", "b"}, "b": {"a"}}),
     "neighbor 'x' of 'a' is not a point"),
    ((("a", "b", "c"), {"b": {"zz", "b", "a"}, "c": {"c"}}),
     "neighbor 'zz' of 'b' is not a point"),
    ((("a", "b", "c"), {"c": {"a"}, "b": {"q", "p"}}),
     "neighbor 'p' of 'b' is not a point"),
    ((("a", "b", "c"), {"a": {"b"}, "b": {"c", "b"}, "c": {"c"}}),
     "asymmetric neighborhood: 'b' in neighbors('a') but not vice versa"),
    ((("a", "b", "c"), {"a": {"b"}, "b": {"c", "b", "a"}}),
     "point 'b' listed as its own neighbor"),
    ((("a", "b", "c"), {"a": {"c", "b"}, "b": {"a"}}),
     "asymmetric neighborhood: 'c' in neighbors('a') but not vice versa"),
    # the stray of a later point is refused before validate() could name
    # the one-way neighbour of an earlier one
    ((("a", "b", "c"), {"a": {"b"}, "b": {"c", "zz", "b"}, "c": {"c"}}),
     "neighbor 'zz' of 'b' is not a point"),
]


def has_stray(system):
    points, neighbors = system
    return any(set(neighbors.get(p, ())) - set(points) for p in points)


class TestNeighborhoodValidate:
    @pytest.mark.parametrize("system, message", VALIDATE_CASES)
    def test_reports_the_first_fault(self, system, message):
        """A stray is refused at build: the first point in point order with
        one, and its least name.  Any other system is built, as local slopes
        are defined on it, and validate() names the first faulty point, and
        within it the point itself, then one-way neighbours in point order."""
        if has_stray(system):
            with pytest.raises(ParameterError) as info:
                NeighborhoodSystem(*system)
        else:
            nbhd = NeighborhoodSystem(*system)
            with pytest.raises(ParameterError) as info:
                nbhd.validate()
        assert str(info.value) == message

    def test_messages_independent_of_hash_seed(self):
        code = ("import json, sys; from slopekit import NeighborhoodSystem\n"
                "out = []\n"
                "for system in json.loads(sys.argv[1]):\n"
                "    for step in ('build', 'validate'):\n"
                "        try:\n"
                "            nbhd = NeighborhoodSystem(*system)\n"
                "            if step == 'validate':\n"
                "                nbhd.validate()\n"
                "        except Exception as exc:\n"
                "            out.append([step, str(exc)])\n"
                "print(json.dumps(out))")
        systems = json.dumps([[pts, {p: sorted(q) for p, q in nb.items()}]
                              for (pts, nb), _ in VALIDATE_CASES])
        want = [[step, m] for system, m in VALIDATE_CASES
                for step in ("build", "validate")
                if step == "validate" or has_stray(system)]
        src = os.path.dirname(os.path.dirname(metric_space.__file__))
        for seed in (0, 2):   # seeds under which sets iterate differently
            out = subprocess.run(
                [sys.executable, "-c", code, systems], capture_output=True,
                text=True, check=True, env={**os.environ, "PYTHONPATH": src,
                                            "PYTHONHASHSEED": str(seed)}).stdout
            assert json.loads(out) == want

    def test_valid_systems_pass(self, e3):
        for nbhd in (ball_neighborhoods(e3, 1.0), all_pairs_neighborhoods(e3),
                     NeighborhoodSystem(e3.points, {}),
                     explicit_neighborhoods(e3, [("a", "c")])):
            assert nbhd.validate() is nbhd


class TestMaskStorage:
    def test_mask_and_views(self, e3):
        nbhd = NeighborhoodSystem(e3.points, {"a": ["b"], "b": ("a", "c"),
                                              "c": {"b"}, "zz": {"a"}})
        assert nbhd.mask.tolist() == [[False, True, False], [True, False, True],
                                      [False, True, False]]
        assert not nbhd.mask.flags.writeable
        assert nbhd.adjacency(e3) is nbhd.mask
        assert dict(nbhd.neighbors) == {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        assert nbhd == explicit_neighborhoods(e3, [("a", "b"), ("c", "b")])
        with pytest.raises(DomainError, match="'zz' is not in the neighborhood"):
            nbhd.of("zz")

    def test_stray_names_are_refused(self, e3):
        """A system is its mask: a neighbour that is not a point has no
        column, and is refused when the system is built."""
        with pytest.raises(ParameterError) as info:
            NeighborhoodSystem(e3.points, {"a": {"b", "q"}, "b": {"a"}})
        assert str(info.value) == "neighbor 'q' of 'a' is not a point"
        nbhd = NeighborhoodSystem(e3.points, {"a": {"b"}, "b": {"a"}})
        assert set(vars(nbhd)) == {"points", "mask", "_index"}

    def test_copies_are_equal_and_frozen(self, e3):
        nbhd = NeighborhoodSystem(e3.points, {"a": {"b", "c"}, "b": {"a"}})
        for dup in (pickle.loads(pickle.dumps(nbhd)), copy.deepcopy(nbhd)):
            assert dup == nbhd and dup.of("a") == {"b", "c"}
            assert not dup.mask.flags.writeable
        assert nbhd.__eq__(nbhd.points) is NotImplemented and nbhd != nbhd.points

    @pytest.mark.parametrize("adj", [
        [[0, 1], [2, 1]], [[0.0, 1.0], [2, 1.0]], [[True, 0], [1, 2]],
        [["0", "1"], ["2", "1"]], [[0, 1], [1, 0], [2, 1]]])
    def test_loaded_pairs(self, adj):
        """Plain int pairs are read as one array; the other entries that the
        per-pair reader accepted are still read the same."""
        inst = instance_from_dict({
            "points": ["a", "b", "c"],
            "metric": {"kind": "matrix", "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
            "neighborhoods": {"kind": "explicit", "adj": adj}})
        assert dict(inst.nbhd.neighbors) == {"a": {"b"}, "b": {"a", "c"},
                                             "c": {"b"}}

    def test_builds_at_n_1000_read_no_neighbour_set(self, monkeypatch):
        """Builders, adjacency and validate work on the mask alone."""
        space, _ = grid_space([(0, 1), (0, 2)], [25, 40])   # certified
        n = space.n
        upper = np.triu(space.dist <= 0.1, 1)
        pairs = [(space.points[i], space.points[j])
                 for i, j in np.argwhere(upper).tolist()]

        def refuse(*args):
            raise AssertionError("a neighbour set was read")

        monkeypatch.setattr(NeighborhoodSystem, "of", refuse)
        monkeypatch.setattr(NeighborhoodSystem, "neighbors", property(refuse))
        within = space.dist <= 0.3 + 1e-9
        axis = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        row = np.arange(n) // 40
        want = {
            "ball": within & within.T & ~np.eye(n, dtype=bool),
            "all": ~np.eye(n, dtype=bool),
            "explicit": upper | upper.T,
            "grid": ((axis == 40) | ((axis == 1) &
                                     (row[:, None] == row[None, :]))),
        }
        got = {"ball": ball_neighborhoods(space, 0.3),
               "all": all_pairs_neighborhoods(space),
               "explicit": explicit_neighborhoods(space, pairs),
               "grid": grid_space([(0, 1), (0, 2)], [25, 40])[1]}
        for kind, nbhd in got.items():
            assert nbhd.validate() is nbhd
            mask = nbhd.adjacency(space)
            assert mask.tobytes() == want[kind].tobytes(), kind
            assert not mask.flags.writeable
            assert nbhd.restrict(space.points).mask.tobytes() == mask.tobytes()


def loaded_system(adj):
    return instance_from_dict({
        "points": ["a", "b", "c"],
        "metric": {"kind": "matrix", "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        "neighborhoods": {"kind": "explicit", "adj": adj}}).nbhd


@pytest.mark.parametrize("build, error, message", [
    (lambda e3: NeighborhoodSystem(e3.points, {"a": {"b"}, "b": {"a", "q"}}),
     ParameterError, "neighbor 'q' of 'b' is not a point"),
    (lambda e3: explicit_neighborhoods(e3, [("a", "b"), ("b", "q")]),
     DomainError, "pair ('b', 'q') uses unknown points"),
    (lambda e3: loaded_system([[0, 1], [1, 3]]),
     ParameterError, "neighbor pair [1, 3] is not a pair of indices below 3"),
    (lambda e3: loaded_system([[0, 10**5000]]), ParameterError,
     "neighbor pair <list too long to show> is not a pair of indices below 3"),
], ids=["mapping", "explicit", "loader", "loader-huge-index"])
def test_unknown_neighbour_refused_at_build(e3, build, error, message):
    """Every route into a system refuses a neighbour that is not a point
    when it builds the system, so none carries one."""
    with pytest.raises(error) as info:
        build(e3)
    assert type(info.value) is error and str(info.value) == message


def per_pair_adjacency(nbhd, space):
    """Oracle: the adjacency mask filled one neighbour pair at a time."""
    mask = np.zeros((space.n, space.n), dtype=bool)
    for i, p in enumerate(space.points):
        for q in nbhd.of(p):
            mask[i, space.index(q)] = True
    return mask


class TestAdjacency:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_pair_loop(self, seed):
        rng = np.random.default_rng([16, seed])
        n = int(rng.integers(2, 60))
        edges = [(int(rng.integers(0, v)), v, float(rng.uniform(0.2, 2.0)))
                 for v in range(1, n)]
        graph = shortest_path_space([f"v{i}" for i in range(n)], edges)
        grid, grid_nbhd = grid_space([(0, 1), (0, 2)], [2, max(2, n // 2)])
        systems = [
            (graph, explicit_neighborhoods(graph, [
                (graph.points[u], graph.points[v]) for u, v, _ in edges])),
            (graph, ball_neighborhoods(graph, float(np.median(graph.dist)))),
            (graph, all_pairs_neighborhoods(graph)),
            (graph, NeighborhoodSystem(graph.points, {   # not symmetric
                p: set(rng.choice(graph.points, int(rng.integers(0, n))))
                for p in graph.points})),
            (grid, grid_nbhd)]
        for space, nbhd in systems:
            mask = nbhd.adjacency(space)
            assert mask.tobytes() == per_pair_adjacency(nbhd, space).tobytes()
            assert not mask.flags.writeable

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_all_pairs_mask_is_built_with_the_system(self, n, monkeypatch):
        space = MetricSpace([f"p{i}" for i in range(n)],
                            metric_closure(np.ones((n, n))))
        nbhd = all_pairs_neighborhoods(space)
        want = per_pair_adjacency(nbhd, space)
        # no neighbour set is read for the space's own point list
        monkeypatch.setattr(NeighborhoodSystem, "of", None)
        mask = nbhd.adjacency(space)
        assert mask.tobytes() == want.tobytes()
        assert not mask.flags.writeable
        monkeypatch.undo()
        # another point list, the same points reversed, is refused
        other = MetricSpace(space.points[::-1], space.dist)
        if n == 1:   # the same list
            assert nbhd.adjacency(other) is nbhd.mask
        else:
            with pytest.raises(DomainError, match="another point list"):
                nbhd.adjacency(other)

    def test_points_outside_the_space(self, e3):
        """A stray neighbour never reaches adjacency: the system is refused
        when it is built.  A system on fewer points is refused by it."""
        with pytest.raises(ParameterError, match="'zz' of 'b' is not a point"):
            NeighborhoodSystem(("a", "b", "c"), {"a": {"b"}, "b": {"a", "zz"}})
        partial = NeighborhoodSystem(("a", "b"), {"a": {"b"}, "b": {"a"}})
        with pytest.raises(DomainError, match="another point list"):
            partial.adjacency(e3)


class TestGridSpace:
    def test_1d_unit_interval(self):
        space, nbhd = grid_space([(0, 1)], [3], p=2)
        assert space.n == 3
        assert space.distance("n0", "n2") == 1.0
        assert nbhd.of("n1") == {"n0", "n2"}

    def test_2d_l1_corner(self):
        space, _ = grid_space([(0, 1), (0, 1)], [2, 2], p=1)
        corner_pairs = [(p, q) for p in space.points for q in space.points
                        if space.distance(p, q) == 2.0]
        assert corner_pairs   # opposite corners at L1 distance 2

    def test_2d_linf_corner(self):
        space, _ = grid_space([(0, 1), (0, 1)], [2, 2], p=math.inf)
        assert space.diameter() == 1.0

    def test_resolution_too_small(self):
        with pytest.raises(ParameterError):
            grid_space([(0, 1)], [1])

    def test_unordered_bounds(self):
        with pytest.raises(ParameterError):
            grid_space([(1, 0)], [3])

    def test_grid_is_a_metric(self):
        for p in (1, 1.7, 2, math.inf):
            space, nbhd = grid_space([(0, 2), (-1, 1)], [3, 3], p=p)
            assert validate_metric(space.dist).ok
            nbhd.validate()


class TestMetricSpaceInvariants:
    def test_caller_array_is_copied(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        space = MetricSpace(("a", "b"), d)
        assert d.flags.writeable
        assert not space.dist.flags.writeable
        d[0, 1] = d[1, 0] = 5.0
        assert space.distance("a", "b") == 1.0

    def test_duplicate_points_rejected(self):
        with pytest.raises(ParameterError):
            MetricSpace(("a", "a"), [[0, 1], [1, 0]])

    def test_invalid_metric_rejected(self):
        with pytest.raises(MetricError):
            MetricSpace(("a", "b", "c"), [[0, 1, 3], [1, 0, 1], [3, 1, 0]])

    @pytest.mark.parametrize("build, error, message", [
        (lambda e3: explicit_neighborhoods(e3, [("a", "b"), ("c", "c")]),
         ParameterError, "self-pair ('c', 'c') not allowed"),
        (lambda e3: explicit_neighborhoods(e3, [("a", "b"), ("c", "z")]),
         DomainError, "pair ('c', 'z') uses unknown points"),
        (lambda e3: shortest_path_space([], []),
         ParameterError, "need at least one vertex"),
        (lambda e3: metric_closure([[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
         ParameterError, "off-diagonal weights must be positive"),
        (lambda e3: grid_space([(0, 1)], [3, 3]),
         ParameterError, "bounds and resolution must have equal length"),
        (lambda e3: grid_space([], []), ParameterError, "need at least one axis"),
        (lambda e3: grid_space([(0, 1)], [3], p=0.5),
         ParameterError, "metric exponent must be >= 1 or inf, got 0.5"),
    ])
    def test_builders_refuse(self, e3, build, error, message):
        with pytest.raises(error) as info:
            build(e3)
        assert type(info.value) is error and str(info.value) == message

    def test_subspace_preserves_distances(self, e3):
        sub = e3.subspace({"a", "c"})
        assert sub.points == ("a", "c")
        assert sub.distance("a", "c") == 2.0

    @given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
    @settings(max_examples=50, deadline=None)
    def test_metric_closure_always_valid(self, seed, n):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 3.0, size=(n, n))
        assert validate_metric(metric_closure(w)).ok


class TestCoords:
    """A space is its points and its checked matrix: it takes no coordinates,
    malformed or well formed, and neither does validate_metric."""

    @pytest.mark.parametrize("coords", [
        [(0.0,)],                              # one row for three points
        [(0.0,), (1.0, 2.0), (2.0,)],          # ragged
        [(0.0,), (math.nan,), (2.0,)],
        [(0.0,), (math.inf,), (2.0,)],
        [(), (), ()],                          # dimension 0
        [0.0, 1.0, 2.0],                       # not one row per point
        [("a",), ("b",), ("c",)],
        [(0.0,), (1.0,), (2.0,)],              # well formed
    ])
    def test_malformed_coords_rejected(self, coords):
        with pytest.raises(TypeError):
            MetricSpace(("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                        coords=coords)
        with pytest.raises(TypeError):
            validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]], None, coords)

    def test_fields_are_points_and_dist(self):
        assert [f.name for f in dataclasses.fields(MetricSpace)] == [
            "points", "dist"]
        assert not hasattr(metric_space, "_as_coords")
        space, _ = grid_space([(0, 1)], [3])
        assert not hasattr(space, "coords")


def full_tensor_grid(bounds, resolution, p):
    """Reference: the grid's nodes and their l_p matrix, built as one
    n x n x dim tensor reduced over its last axis."""
    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(bounds, resolution)]
    coords = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                      axis=1)
    return coords, full_tensor(coords, p)


def full_tensor(coords, p):
    diff = np.abs(coords[:, None, :] - coords[None, :, :])
    if p == math.inf:
        return diff.max(axis=2)
    return (diff ** p).sum(axis=2) ** (1.0 / p)


U = 2.0 ** -53


def grid_bound(dim):
    """(rel, ab) of the proved bound of an l_inf, l_1 or l_2 grid matrix."""
    return 5 * (dim + 3) * U, dim * 2.0 ** -535


def closure_constants(n):
    """(rel, ab) of the proved bound of an n-point shortest-path closure."""
    return (4 * n + 3) * U, 0.0


def exact_bound(bound, top):
    """rel * top + ab, exactly."""
    rel, ab = bound
    return Fraction(rel) * Fraction(float(top)) + Fraction(ab)


def rounded_up(x):
    """The least float at or above the Fraction x."""
    f = float(x)
    return f if f >= x else math.nextafter(f, math.inf)


def built_report(build):
    """The report of the space that ``build()`` makes: empty, or the one its
    MetricError carries."""
    try:
        build()
    except MetricError as exc:
        return exc.report
    return ValidationReport([])


def marks(calls):
    """The proved bound that the matrix of each recorded validate_metric
    call carries, None for one that carries none."""
    return [getattr(args[0], "bound", None) for args in calls]


def check_submatrix(rng, d, bound, space, calls):
    """A seeded random principal submatrix of ``d``, which carries the proved
    bound (rel, ab) = ``bound``: its excess oracle is within rel * max + ab,
    and it reports as the plain array does, marked with the bound.  When
    ``space`` (d's space) was built, its subspace adopts the submatrix and
    adds no validate_metric call to ``calls``."""
    n = len(d)
    keep = np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
    sub = d[np.ix_(keep, keep)]
    assert Fraction(max_excess(sub)) <= exact_bound(bound, sub.max())
    for t in (resolve_tol(), rounded_up(exact_bound(bound, sub.max()))):
        assert validate_metric(_bounded(sub, *bound), t) == \
            validate_metric(sub, t)
    if space is not None:   # built without an error: an empty report
        made = len(calls)
        sub_space = space.subspace([space.points[i] for i in keep])
        assert len(calls) == made
        assert validate_metric(sub) == ValidationReport([])
        assert sub_space.dist.tobytes() == sub.tobytes() == \
            space.dist.take(keep, 0).take(keep, 1).tobytes()


EXPONENTS = (1.0, 2.0, math.inf, 1.5, 3.0)
# 1e7, 1e9 and 1e12 break the triangle inequality by rounding; 1e-157
# makes squares underflow; 2^-40 puts every spacing below the tolerance
SCALES = (1.0, 2.0 ** 40, 2.0 ** -40, 1e7, 1e9, 1e12, 1e-157)


def sweep_grids():
    """Seeded grids; dim 8 has 256 nodes, so it takes scales whose failing
    reports stay small: 2^20 breaks l_1, 2^16 is left to the triangle pass."""
    rng = np.random.default_rng(31)
    for dim, max_res, scales, draws in (
            (1, 9, SCALES, 2), (2, 9, SCALES, 1), (3, 5, SCALES, 1),
            (8, 2, (1.0, 2.0 ** 10, 2.0 ** 16, 2.0 ** 20), 1)):
        for p in EXPONENTS:
            for scale in scales:
                for _ in range(draws):
                    lo = rng.uniform(-2, 2, dim) * scale
                    width = rng.uniform(0.5, 3, dim) * scale
                    resolution = rng.integers(2, max_res + 1, dim).tolist()
                    bounds = [(a, a + w) for a, w in zip(lo, width)]
                    yield bounds, resolution, p


class TestCoordinateCertificate:
    """Grid matrices, errors and reports against the full-tensor formula,
    and the rounding-bound certificate against the triangle pass."""

    def test_lp_distances_match_full_tensor(self):
        rng = np.random.default_rng(32)
        for dim in range(1, 11):   # pairwise summation from 8 terms on
            for p in (*EXPONENTS, 2, 3):
                for scale in SCALES:
                    n = int(rng.integers(1, 30))
                    x = rng.uniform(-2, 2, (n, dim)) * scale
                    assert _lp_distances(x, p).tobytes() == \
                        full_tensor(x, p).tobytes()

    def test_grids_match_full_tensor(self, monkeypatch):
        rng = np.random.default_rng(34)
        calls = count_calls(monkeypatch, "validate_metric")
        outcomes, broken = set(), set()
        for bounds, resolution, p in sweep_grids():
            coords, ref = full_tensor_grid(bounds, resolution, p)
            want = validate_metric(ref)
            # only l_inf, l_1 and l_2 matrices carry the bound
            bound = grid_bound(len(bounds)) if p in (1, 2, math.inf) else None
            space = None
            calls.clear()
            try:
                space, _ = grid_space(bounds, resolution, p)
            except MetricError as exc:
                assert str(exc) == "not a metric: " + want.summary()
                assert exc.report == want
            else:
                assert want.ok and space.dist.tobytes() == ref.tobytes()
            assert marks(calls) == [bound]
            certified = bound is not None and _certifies(bound, ref.max(),
                                                         resolve_tol())
            if certified:   # grid_space's error above checks the rest
                assert validate_metric(_bounded(ref, *bound)) == want
                assert triangle_ok(ref, resolve_tol())
                if len(ref) <= 100:   # the oracle loop is slow beyond
                    assert not [v for v in reference_violations(ref)
                                if v.kind == "triangle"]
            outcomes.add((certified, want.ok))
            if any(v.kind == "triangle" for v in want.violations):
                broken.add(p)
            if bound is not None:
                check_submatrix(rng, ref, bound, space, calls)
        # certified metrics, certified grids whose spacing fails the sign
        # check, and grids left to the triangle pass, passing and failing
        assert outcomes == {(True, True), (True, False), (False, True),
                            (False, False)}
        assert broken == set(EXPONENTS)   # rounding breaks every exponent

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_large_coordinates_take_the_full_pass(self, p):
        coords, ref = full_tensor_grid([(0, 1e7)], [40], p)
        assert not _certifies(grid_bound(1), ref.max(), resolve_tol())
        with pytest.raises(MetricError) as exc:
            grid_space([(0, 1e7)], [40], p)
        want = "not a metric: " + validate_metric(ref).summary()
        assert str(exc.value) == want

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_underflowing_squares(self, monkeypatch, dim):
        """Spacings near 1e-158 square to subnormals.  With a tolerance of
        1e-160, below every distance, the certificate holds, and so does the
        triangle pass.  At 1e-170 rounding breaks triangles by about 1e-166,
        far more than a bound relative to the distances allows, and the
        absolute term of the bound leaves them to the triangle pass."""
        rng = np.random.default_rng([33, dim])
        bound = grid_bound(dim)
        passes = count_calls(monkeypatch, "_triangle_breaks")
        broken = 0
        for _ in range(5):
            box = [(a, a + 3e-158) for a in rng.uniform(-1e-157, 1e-157, dim)]
            resolution = rng.integers(2, 5, dim).tolist()
            coords, ref = full_tensor_grid(box, resolution, 2.0)
            assert _certifies(bound, ref.max(), 1e-160)
            assert triangle_ok(ref, 1e-160)
            assert reference_violations(ref, 1e-160) == []
            assert validate_metric(_bounded(ref, *bound), 1e-160).ok
            report = validate_metric(_bounded(ref, *bound), 1e-170)
            assert report.violations == reference_violations(ref, 1e-170)
            broken += not report.ok
            passes.clear()
            monkeypatch.setenv("SLOPEKIT_TOL", "1e-160")
            grid_space(box, resolution, 2.0)
            assert passes == []
            monkeypatch.setenv("SLOPEKIT_TOL", "1e-170")
            assert built_report(lambda: grid_space(box, resolution, 2.0)) == \
                report
            assert len(passes) == (len(ref) >= 3)   # no triple below 3 points
        assert broken

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_matrix_that_is_not_the_coordinates_takes_the_full_pass(self, p):
        """The bound would pass this matrix; a caller's matrix is not marked."""
        space, _ = grid_space([(0, 1), (0, 2)], [4, 5], p)
        d = space.dist.copy()
        d[0, 19] = d[19, 0] = 1.5 * d[0, 19]   # one symmetric pair lengthened
        assert _certifies(grid_bound(2), d.max(), resolve_tol())
        report = validate_metric(d)
        assert report.violations == reference_violations(d)
        assert {v.kind for v in report.violations} == {"triangle"}
        with pytest.raises(MetricError) as exc:
            MetricSpace(space.points, d)
        assert exc.value.report == report

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_caller_built_space_takes_the_pass(self, monkeypatch, p):
        space, _ = grid_space([(0, 1), (0, 2)], [4, 5], p)
        calls = count_calls(monkeypatch, "validate_metric")
        passes = count_calls(monkeypatch, "_triangle_breaks")
        same = MetricSpace(space.points, space.dist.copy())
        assert same == space and marks(calls) == [None] and len(passes) == 1
        # its subspace adopts the checked submatrix, as a grid's does
        sub = same.subspace(space.points[::2])
        assert sub == space.subspace(space.points[::2])
        assert len(calls) == len(passes) == 1

    @pytest.mark.parametrize("p", [1.0, 2.0, "inf"])
    @pytest.mark.parametrize("resolution", [[200], [10, 20]])
    def test_grid_instance_loads_without_a_triangle_pass(self, monkeypatch, p,
                                                         resolution):
        n = math.prod(resolution)
        obj = {"points": [f"n{i}" for i in range(n)],
               "metric": {"kind": "grid", "resolution": resolution, "p": p,
                          "bounds": [[0.0, 1.0]] * len(resolution)},
               "neighborhoods": {"kind": "grid"},
               "fields": {"f": np.linspace(0.0, 3.0, n).tolist()}}
        calls, passes = [], []
        validate = metric_space.validate_metric
        monkeypatch.setattr(metric_space, "validate_metric",
                            lambda *args: calls.append(args) or validate(*args))
        monkeypatch.setattr(metric_space, "_triangle_breaks",
                            lambda arr, *args: passes.append(args)
                            or np.zeros(arr.shape, dtype=bool))
        inst = instance_from_dict(obj)
        assert marks(calls) == [grid_bound(len(resolution))] and passes == []
        # a subspace adopts the checked submatrix: no validation at all
        sub = inst.space.subspace(inst.space.points[::3])
        assert sub.points == inst.space.points[::3]
        assert sub.dist.tobytes() == inst.space.dist[::3, ::3].tobytes()
        assert len(calls) == 1 and passes == []


def closure_bound(d):
    """The certificate's bound (4 n + 3) u max(d), rounded up to a float."""
    return rounded_up(exact_bound(closure_constants(len(d)), d.max()))


def max_excess(d):
    """Oracle: the largest fl(d_ij - fl(d_ik + d_kj)) over all triples,
    one intermediate k at a time."""
    return max((d - (d[:, k:k + 1] + d[k:k + 1, :])).max()
               for k in range(len(d)))


def graph_edges(rng, family, n):
    """Vertex pairs of a graph on n vertices; chains give the deepest
    summation trees, parallel edges repeat pairs."""
    if family == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "star":
        return [(0, i) for i in range(1, n)]
    if family == "complete":
        return list(itertools.combinations(range(n), 2))
    tree = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    if family == "parallel":
        return tree + [tree[i] for i in rng.integers(0, n - 1, n - 1)]
    extra = rng.integers(0, n, (int(rng.integers(0, 2 * n + 1)), 2))
    return tree + [(int(i), int(j)) for i, j in extra if i != j]


def graph_weights(rng, kind, m):
    if kind == "uniform":
        return rng.uniform(0.2, 2.0, m)
    if kind == "log-uniform":
        return 2.0 ** rng.uniform(-30, 30, m)
    return 1.0 + 1e-12 * rng.integers(0, 4, m)   # near-equal: ties


def weight_matrix(n, edges):
    """W as shortest_path_space builds it: the lightest edge per pair."""
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    for i, j, x in edges:
        w[i, j] = w[j, i] = min(w[i, j], x)
    return w


def sweep_graphs():
    rng = np.random.default_rng(41)
    sizes = (1, 2, 3, 5, 17, 40, 90, 160, 230, 300)
    for f, family in enumerate(("tree", "chain", "star", "complete",
                                "parallel")):
        for k, kind in enumerate(("uniform", "log-uniform", "near-equal")):
            for n in sizes[(f + k) % 3::3]:
                if family == "complete" or (family, kind) == ("chain",
                                                              "log-uniform"):
                    # 4,005 edges; a 230-point chain breaks 863,770
                    # triangles by rounding, an 8 s report per validation
                    n = min(n, 90)
                pairs = graph_edges(rng, family, n)
                edges = [(i, j, float(x)) for (i, j), x in
                         zip(pairs, graph_weights(rng, kind, len(pairs)))]
                yield family, kind, n, edges


def count_calls(monkeypatch, name):
    """Wrap metric_space.<name> so that each call is recorded."""
    calls, fn = [], getattr(metric_space, name)
    monkeypatch.setattr(metric_space, name, lambda *args, **kwargs:
                        calls.append(args) or fn(*args, **kwargs))
    return calls


class TestClosureCertificate:
    """The rounding bound of shortest-path closures against floyd_warshall,
    the triangle pass and an n^3 excess oracle."""

    def test_sweep(self, monkeypatch):
        tol = resolve_tol()
        rng = np.random.default_rng(45)
        calls = count_calls(monkeypatch, "validate_metric")
        ratios, kinds, families = [], set(), set()
        for family, kind, n, edges in sweep_graphs():
            ref = floyd_warshall(weight_matrix(n, edges))
            want = validate_metric(ref)
            constants = closure_constants(n)
            space = None
            calls.clear()
            try:
                space = shortest_path_space([f"v{i}" for i in range(n)], edges)
            except MetricError as exc:
                assert str(exc) == "not a metric: " + want.summary()
                assert exc.report == want
            else:
                assert want.ok and space.dist.tobytes() == ref.tobytes()
                assert type(space.dist) is np.ndarray
            assert marks(calls) == [constants]
            bound = closure_bound(ref)
            top = ref.max()
            for t in (tol, bound):   # uncertified reports are compared above
                if _certifies(constants, top, t):
                    assert validate_metric(_bounded(ref, *constants), t) == \
                        validate_metric(ref, t)
            assert _certifies(constants, top, bound)
            assert triangle_ok(ref, bound)
            excess = max_excess(ref)
            assert excess <= bound
            for t in (0.0, excess, math.nextafter(excess, -math.inf),
                      bound / 1000, U * float(top)):
                if t >= 0 and _certifies(constants, top, t):
                    assert excess <= t, (family, kind, n, t)
            if n >= 3:
                assert not _certifies(constants, top, 0.0)
                ratios.append(excess / bound)
            check_submatrix(rng, ref, constants, space, calls)
            families.add(family)
            kinds.add(kind)
        assert len(families) == 5 and len(kinds) == 3
        # rounding leaves positive excesses, some above a thousandth of the
        # bound, so the bound is not loose by that factor
        assert max(ratios) > 1e-3

    @pytest.mark.parametrize("n,scale", [(200, 1.0), (120, 2.0 ** 30)])
    def test_tolerance_below_the_bound_takes_the_pass(self, monkeypatch, n,
                                                       scale):
        rng = np.random.default_rng([42, n])
        pairs = graph_edges(rng, "chain", n) + graph_edges(rng, "tree", n)
        edges = [(i, j, float(x) * scale) for (i, j), x in
                 zip(pairs, graph_weights(rng, "uniform", len(pairs)))]
        ref = floyd_warshall(weight_matrix(n, edges))
        bound = closure_bound(ref)
        passes = count_calls(monkeypatch, "_triangle_breaks")
        if scale == 1.0:   # the pass succeeds below the bound
            monkeypatch.setenv("SLOPEKIT_TOL", repr(bound / 2))
            want = validate_metric(ref)
            assert want.ok
            space = shortest_path_space(range(n), edges)
            assert space.dist.tobytes() == ref.tobytes()
        else:   # weights near 2^30: the bound exceeds 1e-9 and rounding
            assert bound > resolve_tol()   # breaks triangles by more
            want = validate_metric(ref)
            assert not want.ok
            with pytest.raises(MetricError) as exc:
                shortest_path_space(range(n), edges)
            assert str(exc.value) == "not a metric: " + want.summary()
        assert len(passes) == 2   # one for the space, one for the reference

    def test_graph_instance_loads_without_a_triangle_pass(self, monkeypatch):
        graph = gen_random_instance(43, 200, metric_kind="graph")
        obj = graph.to_dict()
        calls = count_calls(monkeypatch, "validate_metric")
        passes = count_calls(monkeypatch, "_triangle_breaks")
        space = instance_from_dict(obj).space
        assert marks(calls) == [closure_constants(space.n)] and passes == []
        assert type(space.dist) is np.ndarray
        # the same closure as a matrix, through MetricSpace or
        # validate_metric, takes the pass once each
        matrix = dict(obj, metric={"kind": "matrix",
                                   "dist": space.dist.tolist()})
        assert np.array_equal(instance_from_dict(matrix).space.dist, space.dist)
        assert len(passes) == 1
        MetricSpace(space.points, space.dist.copy())
        assert len(passes) == 2
        assert metric_space.validate_metric(space.dist).ok
        assert len(passes) == 3
        # a subspace of the graph adopts the checked submatrix unvalidated
        keep = list(range(0, space.n, 2))
        sub = space.subspace([space.points[i] for i in keep])
        assert type(sub.dist) is np.ndarray
        assert sub.dist.tobytes() == \
            space.dist.take(keep, 0).take(keep, 1).tobytes()
        assert len(calls) == 4 and len(passes) == 3

    def test_matrix_gen_takes_no_triangle_pass(self, monkeypatch):
        """gen marks the closure it has just computed with the closure
        bound; loading the file it writes keeps the full pass."""
        with monkeypatch.context() as m:   # the space from the JSON matrix
            m.setattr(instances, "_closure_space",
                      lambda points, d: MetricSpace(tuple(points), d.tolist()))
            want = gen_random_instance(46, 90, metric_kind="matrix").to_json()
        calls = count_calls(monkeypatch, "validate_metric")
        passes = count_calls(monkeypatch, "_triangle_breaks")
        inst = gen_random_instance(46, 90, metric_kind="matrix")
        assert passes == []
        assert marks(calls) == [closure_constants(90)]
        assert inst.to_json() == want
        loaded = instance_from_dict(json.loads(want))
        assert len(passes) == 1 and marks(calls) == [closure_constants(90), None]
        assert loaded.space.dist.tobytes() == inst.space.dist.tobytes()

    def test_broken_matrix_is_not_certified(self):
        """A matrix within the bound's reach of tol but not a closure keeps
        the full pass, through MetricSpace and validate_metric alike."""
        d = metric_closure(np.random.default_rng(44).uniform(0.3, 2.0, (9, 9)))
        d[2, 7] = d[7, 2] = 5.0   # the other distances are below 2
        assert _certifies(closure_constants(9), d.max(), resolve_tol())
        report = validate_metric(d)
        assert report.violations == reference_violations(d)
        assert {v.kind for v in report.violations} == {"triangle"}
        with pytest.raises(MetricError):
            MetricSpace(tuple("abcdefghi"), d)


class TestCertificateGate:
    """The gate rel * max + ab <= tol against an exact Fraction oracle."""

    @pytest.mark.parametrize("bound", [grid_bound(1), grid_bound(8),
                                       closure_constants(3),
                                       closure_constants(1000)])
    def test_matches_fraction_oracle(self, bound):
        rng = np.random.default_rng(47)
        tops = [0.0, 5e-324, 2.0 ** -1060, 2.0 ** -1022, 1.0, 2.0 ** 999,
                *rng.uniform(0, 1e4, 20), *2.0 ** rng.uniform(-1070, 1000, 20)]
        for top in tops:
            exact = exact_bound(bound, top)
            near = float(exact)
            for tol in (0.0, near, math.nextafter(near, -math.inf),
                        math.nextafter(near, math.inf), 5e-324, 1e-9):
                if tol >= 0:
                    assert _certifies(bound, top, tol) == \
                        (exact <= Fraction(tol)), (bound, top, tol)

    @pytest.mark.parametrize("bound,top,representable", [
        (closure_constants(3), 1.0, True),       # (4 n + 3) u
        (grid_bound(2), 0.0, True),              # dim 2^-535
        (closure_constants(7), 2.0 ** -1074, False),   # a subnormal max
        (grid_bound(3), 2.0 ** -1074, False)])
    def test_tolerance_at_the_bound(self, bound, top, representable):
        """The least float tol at or above the bound certifies, the float
        below it does not, and neither does tol = 0."""
        exact = exact_bound(bound, top)
        at = rounded_up(exact)
        assert (at == exact) == representable
        assert _certifies(bound, top, at)
        assert not _certifies(bound, top, math.nextafter(at, -math.inf))
        assert not _certifies(bound, top, 0.0)

    def test_graph_at_the_bound(self, monkeypatch):
        """A 3-point path of weights 1/2 has max 1, so its bound is 15 u:
        a tolerance of exactly 15 u skips the pass, the float below runs it."""
        calls = count_calls(monkeypatch, "validate_metric")
        passes = count_calls(monkeypatch, "_triangle_breaks")
        edges = [(0, 1, 0.5), (1, 2, 0.5)]
        monkeypatch.setenv("SLOPEKIT_TOL", repr(15 * U))
        space = shortest_path_space(range(3), edges)
        assert marks(calls) == [closure_constants(3)] and passes == []
        monkeypatch.setenv("SLOPEKIT_TOL", repr(math.nextafter(15 * U, 0)))
        assert shortest_path_space(range(3), edges) == space
        assert len(passes) == 1


GRID = ([(0.0, 1.0), (-1.0, 2.0)], [3, 4])


def caller_copy():
    """A caller-built copy of a certified grid: its matrix carries no bound."""
    space, _ = grid_space(*GRID, 2.0)
    return MetricSpace(space.points, space.dist.copy())


def loaded_matrix():
    inst = gen_random_instance(63, 12, metric_kind="matrix")
    return instance_from_dict(json.loads(inst.to_json())).space


SUBSPACE_PARENTS = {
    "grid-p1": lambda: grid_space(*GRID, 1.0)[0],
    "grid-p2": lambda: grid_space(*GRID, 2.0)[0],
    "grid-pinf": lambda: grid_space(*GRID, math.inf)[0],
    "grid-p1.5": lambda: grid_space(*GRID, 1.5)[0],   # uncertified
    "graph": lambda: gen_random_instance(61, 12, metric_kind="graph").space,
    "matrix": lambda: gen_random_instance(62, 12, metric_kind="matrix").space,
    "caller": caller_copy,
    "loaded": loaded_matrix,
}


class TestSubspaceAdoption:
    """A subspace adopts its parent's checked principal submatrix, whatever
    built the parent, and equals the space the public constructor builds."""

    @pytest.mark.parametrize("kind", SUBSPACE_PARENTS)
    def test_subspaces_adopt_the_submatrix(self, monkeypatch, kind):
        space = SUBSPACE_PARENTS[kind]()
        rng = np.random.default_rng([65, *kind.encode()])
        calls = [count_calls(monkeypatch, name) for name in (
            "validate_metric", "_as_square_matrix", "_triangle_breaks")]
        keeps = [np.sort(rng.choice(space.n, int(rng.integers(1, space.n + 1)),
                                    replace=False)).tolist() for _ in range(30)]
        # each subset in a shuffled order, which the subspace does not keep
        subs = [space.subspace(rng.permutation(np.take(space.points, keep))
                               .tolist()) for keep in keeps]
        assert calls == [[], [], []]
        for keep, sub in zip(keeps, subs):
            assert sub.points == tuple(space.points[i] for i in keep)
            assert sub.dist.tobytes() == \
                space.dist.take(keep, 0).take(keep, 1).tobytes()
            assert not sub.dist.flags.writeable
            assert [sub.index(p) for p in sub.points] == list(range(len(keep)))
            assert validate_metric(sub.dist) == ValidationReport([])
            assert MetricSpace(sub.points, sub.dist) == sub

    def test_subspace_keeps_the_verdict_of_its_build(self, monkeypatch):
        """A space passes under the tolerance of its build; a tighter
        SLOPEKIT_TOL set later re-judges neither it nor its subspaces."""
        d = [[0, 1, 2 + 1e-10], [1, 0, 1], [2 + 1e-10, 1, 0]]
        space = MetricSpace("abc", d)
        monkeypatch.setenv("SLOPEKIT_TOL", "1e-12")
        assert space.subspace("cab") == space
        with pytest.raises(MetricError):
            MetricSpace(space.points, space.dist)
        with pytest.raises(DomainError, match=r"^points not in space: \['z'\]$"):
            space.subspace({"a", "z"})

    @pytest.mark.parametrize("subset,names", [
        ({"z", 1}, "[1, 'z']"),
        ({"a", 2.5, "z", 1, (0,)}, "[2.5, 1, 'z', (0,)]"),
        ({"b", 10, 9}, "[9, 10]"),
        ({"y", "x"}, "['x', 'y']"),
    ])
    def test_unknown_points_of_mixed_types(self, e3, subset, names):
        # the message sorted str and int together and raised TypeError
        with pytest.raises(DomainError) as info:
            e3.subspace(subset)
        assert str(info.value) == f"points not in space: {names}"


FROZEN_SPACES = {
    "caller": caller_copy,
    "grid": SUBSPACE_PARENTS["grid-p2"],
    "graph": SUBSPACE_PARENTS["graph"],
    "closure": SUBSPACE_PARENTS["matrix"],
    "loaded": loaded_matrix,
    "subspace": lambda: caller_copy().subspace(["n0", "n3", "n4", "n9"]),
}


@pytest.mark.parametrize("kind", FROZEN_SPACES)
def test_spaces_are_frozen(kind):
    """No attribute of a built space can be rebound, so a field's cached
    slopes cannot go stale behind it: rebinding dist to 10 * dist used to
    leave them at the old distances, unchecked, while a new field on the
    space read the new ones.  Pickled and deep-copied spaces, and the
    eps-Crit rows cached on a field, are frozen as well."""
    space = FROZEN_SPACES[kind]()
    f = ScalarField(space, np.linspace(0.0, 3.0, space.n) ** 2)
    want = slopes(f).tobytes()
    for name, value in (("points", tuple(reversed(space.points))),
                        ("dist", 10 * space.dist)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(space, name, value)
    with pytest.raises(ValueError):
        space.dist[0, 0] = 1.0
    assert slopes(ScalarField(space, f.values)).tobytes() == want
    assert [space.index(p) for p in space.points] == list(range(space.n))
    with pytest.raises(DomainError, match=r"^point 'zz' is not in the space$"):
        space.index("zz")
    assert space.__eq__(space.dist) is NotImplemented and space != space.points
    for dup in (pickle.loads(pickle.dumps(space)), copy.deepcopy(space),
                copy.deepcopy(f).space):
        assert dup == space
        assert [dup.index(p) for p in dup.points] == list(range(dup.n))
        assert dup.dist.tobytes() == space.dist.tobytes()
        with pytest.raises(ValueError):   # a copy's matrix is frozen too
            dup.dist[0, 0] = 1.0
    rows = _crit_rows(f, 1.0, None)[0]   # cached, and handed to the checkers
    assert rows is _crit_rows(f, 1.0, None)[0]
    assert not rows.flags.writeable
