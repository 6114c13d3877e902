"""The engine-wide memory budget: parsing, tiling, spilling, identity.

Pins the contracts of :mod:`repro.core.budget` and its integration through
the engine:

* the one shared size parser (CLI flag + estimator validation) and its
  fail-fast behaviour on nonsense;
* tile sizing: defaults preserved when unbounded, bounded shares when not,
  clamping (never erroring) below the tile floor;
* the growable-container growth policy (capacity doubling, explicit
  ``shrink_to_fit``) and spill-to-disk mode for :class:`EdgeList` and
  :class:`BCCPCache`;
* end-to-end byte-identity of ``emst``/``hdbscan`` under any budget,
  including memory-mapped inputs;
* the plumbing: estimators, CLI flag, ambient scoping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.budget import (
    MIN_TILE_BYTES,
    MemoryBudget,
    UNBOUNDED,
    format_memory_size,
    parse_memory_size,
    resolve_memory_budget,
)
from repro.core.context import current_context, use_context
from repro.core.errors import InvalidParameterError, InvalidPointSetError
from repro.core.points import open_memmap_points
from repro.emst.api import emst
from repro.estimators import EMST, HDBSCAN
from repro.hdbscan.api import hdbscan
from repro.mst.edges import EdgeList
from repro.spatial.kdtree import KDTree
from repro.wspd.bccp import BCCPCache


@pytest.fixture
def points():
    return np.random.default_rng(99).random((300, 3))


class TestParseMemorySize:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("512", 512),
            ("64K", 64 << 10),
            ("512M", 512 << 20),
            ("2G", 2 << 30),
            ("1T", 1 << 40),
            ("512MB", 512 << 20),
            ("1.5G", int(1.5 * (1 << 30))),
            (" 2g ", 2 << 30),
            (4096, 4096),
            (2.0e9, 2_000_000_000),
        ],
    )
    def test_valid(self, spec, expected):
        assert parse_memory_size(spec) == expected

    @pytest.mark.parametrize(
        "spec", ["12X", "", "-5M", "0", "M", "five hundred", None, True, [], 0, -1]
    )
    def test_invalid_fails_fast(self, spec):
        with pytest.raises(InvalidParameterError):
            parse_memory_size(spec)

    def test_format_round_trips(self):
        assert format_memory_size(None) == "unbounded"
        assert format_memory_size(512 << 20) == "512M"
        assert format_memory_size(2 << 30) == "2G"
        assert format_memory_size(1000) == "1000"
        assert parse_memory_size(format_memory_size(512 << 20)) == 512 << 20


class TestMemoryBudget:
    def test_unbounded_returns_defaults_verbatim(self):
        budget = MemoryBudget(None)
        assert not budget.bounded
        assert budget.spec() == "unbounded"
        assert budget.tile_bytes(12345) == 12345
        assert budget.tile_rows(100, default_bytes=5000) == 50
        assert budget.tile_elements(np.float64, default_elements=777) == 777

    def test_bounded_tile_share(self):
        budget = MemoryBudget("64M")
        # One tile gets at most a quarter of the unreserved remainder.
        assert budget.tile_bytes(1 << 30) <= (64 << 20) // 4
        # A default below the share is a ceiling, not a target (down to the
        # MIN_TILE_BYTES floor, which even smaller defaults clamp up to).
        assert budget.tile_bytes(128 << 10) == 128 << 10
        assert budget.tile_bytes(1 << 10) == MIN_TILE_BYTES

    def test_tiny_budget_clamps_at_floor(self):
        budget = MemoryBudget(1)
        assert budget.tile_bytes(1 << 30) == MIN_TILE_BYTES
        assert budget.tile_rows(1 << 40, default_bytes=1 << 30, minimum=7) == 7

    def test_parts_split_the_share(self):
        budget = MemoryBudget("64M")
        whole = budget.tile_bytes(1 << 30, parts=1)
        split = budget.tile_bytes(1 << 30, parts=4)
        assert split <= whole // 4 or split == MIN_TILE_BYTES

    def test_reservations_subtract_from_tiles(self):
        budget = MemoryBudget("64M")
        unreserved = budget.tile_bytes(1 << 30)
        budget.reserve("points", 32 << 20)
        assert budget.reserved_bytes == 32 << 20
        assert budget.reservations == {"points": 32 << 20}
        assert budget.tile_bytes(1 << 30) < unreserved
        budget.release("points")
        assert budget.tile_bytes(1 << 30) == unreserved
        budget.release("never-reserved")  # ignored, not an error

    def test_reserve_is_idempotent_per_component(self):
        budget = MemoryBudget("64M")
        budget.reserve("cache", 1 << 20)
        budget.reserve("cache", 2 << 20)
        assert budget.reserved_bytes == 2 << 20

    def test_available_bytes_never_below_floor(self):
        budget = MemoryBudget("1M")
        budget.reserve("points", 10 << 20)
        assert budget.available_bytes() == MIN_TILE_BYTES
        with pytest.raises(InvalidParameterError):
            MemoryBudget(None).available_bytes()

    def test_peak_tracks_grants_and_notes(self):
        budget = MemoryBudget("64M")
        assert budget.peak_bytes == 0
        budget.tile_bytes(1 << 20)
        first = budget.peak_bytes
        assert first >= 1 << 20
        budget.note_allocation(32 << 20)
        assert budget.peak_bytes >= 32 << 20
        budget.note_allocation(1)  # high-water mark never decreases
        assert budget.peak_bytes >= 32 << 20

    def test_unbounded_singleton_stays_stateless(self):
        UNBOUNDED.note_allocation(1 << 30)
        assert UNBOUNDED.peak_bytes == 0

    def test_allocate_spills_past_threshold(self):
        budget = MemoryBudget("1M", spill_threshold=1 << 10)
        small = budget.allocate(8, np.float64)
        assert isinstance(small, np.ndarray)
        assert not isinstance(small, np.memmap)
        big = budget.allocate(1 << 12, np.float64)
        assert isinstance(big, np.memmap)
        big[:] = 7.5
        assert float(big[123]) == 7.5
        assert budget.spilled_buffers == 1
        assert budget.spilled_bytes == (1 << 12) * 8

    def test_unbounded_never_spills(self):
        assert not MemoryBudget(None).wants_spill(1 << 40)
        buffer = MemoryBudget(None).allocate(1 << 12, np.float64)
        assert not isinstance(buffer, np.memmap)


class TestResolutionAndScoping:
    def test_resolve_accepts_all_budget_likes(self):
        assert resolve_memory_budget(None) is current_context().memory_budget
        budget = MemoryBudget("2G")
        assert resolve_memory_budget(budget) is budget
        assert resolve_memory_budget("512M").total_bytes == 512 << 20
        assert resolve_memory_budget(4096).total_bytes == 4096

    @pytest.mark.parametrize("bad", ["12X", True, 2.5, object()])
    def test_resolve_rejects_nonsense(self, bad):
        with pytest.raises(InvalidParameterError):
            resolve_memory_budget(bad)

    def test_use_context_scopes_and_restores_budget(self):
        assert current_context().memory_budget is UNBOUNDED
        with use_context(memory_budget="16M") as context:
            budget = context.memory_budget
            assert resolve_memory_budget(None) is budget
            assert budget.total_bytes == 16 << 20
            with use_context(memory_budget=None):  # None keeps the current scope
                assert current_context().memory_budget is budget
        assert current_context().memory_budget is UNBOUNDED

    def test_use_context_installs_budget_instance(self):
        budget = MemoryBudget("8M")
        with use_context(memory_budget=budget) as context:
            assert context.memory_budget is budget
            assert resolve_memory_budget(None) is budget
        assert current_context().memory_budget is UNBOUNDED


class TestEdgeListGrowthPolicy:
    def test_capacity_doubles_and_bounds_overallocation(self):
        edges = EdgeList()
        assert edges.capacity == 16
        for i in range(17):
            edges.append(i, i + 1, float(i))
        assert edges.capacity == 32
        # After any batch append, capacity < 2x the live count (plus the
        # initial floor for tiny lists).
        edges.extend_arrays(
            np.arange(100), np.arange(100) + 1, np.ones(100)
        )
        assert len(edges) == 117
        assert edges.capacity == 128
        assert edges.capacity < 2 * len(edges)

    def test_shrink_to_fit_releases_overallocation(self):
        edges = EdgeList()
        edges.extend_arrays(np.arange(100), np.arange(100) + 1, np.ones(100))
        before = edges.nbytes
        view_u, view_v, view_w = edges.as_arrays()
        edges.shrink_to_fit()
        assert edges.nbytes < before
        assert edges.capacity == len(edges)
        # Views handed out before the shrink stay valid and unchanged.
        assert np.array_equal(view_u, np.arange(100))
        u, v, w = edges.as_arrays()
        assert np.array_equal(u, view_u)
        assert np.array_equal(w, view_w)

    def test_spill_mode_is_behaviourally_identical(self):
        with use_context(memory_budget=MemoryBudget("1M", spill_threshold=256)):
            spilled = EdgeList()
            spilled.extend_arrays(np.arange(500), np.arange(500) + 1, np.ones(500))
            budget = current_context().memory_budget
            assert budget.spilled_buffers > 0
        plain = EdgeList()
        plain.extend_arrays(np.arange(500), np.arange(500) + 1, np.ones(500))
        for left, right in zip(spilled.as_arrays(), plain.as_arrays()):
            assert np.array_equal(left, right)
        assert spilled[13] == plain[13]
        assert len(spilled) == len(plain)


class TestBCCPCacheGrowthPolicy:
    @staticmethod
    def _frontier():
        points = np.random.default_rng(5).random((64, 2))
        tree = KDTree(points, leaf_size=4)
        leaves = tree.flat.leaf_ids()
        a_ids = np.repeat(leaves, 2)
        b_ids = np.roll(a_ids, 3)
        keep = a_ids != b_ids
        return tree, a_ids[keep], b_ids[keep]

    def test_nbytes_is_exact_capacity_equals_live_count(self):
        tree, a_ids, b_ids = self._frontier()
        cache = BCCPCache(tree)
        cache.get_batch(a_ids, b_ids)
        # Four parallel columns (int64 keys/endpoints + float64 weights) with
        # no over-allocation: capacity always equals the live count.
        assert cache.nbytes == len(cache) * 4 * 8

    def test_spill_mode_preserves_results_and_reserves(self):
        tree, a_ids, b_ids = self._frontier()
        with use_context(memory_budget=MemoryBudget("1M", spill_threshold=1)):
            spilled_cache = BCCPCache(tree)
            results_spilled = spilled_cache.get_batch(a_ids, b_ids)
            budget = current_context().memory_budget
            assert budget.spilled_buffers > 0
            assert budget.reservations["bccp_cache"] == spilled_cache.nbytes
        plain_cache = BCCPCache(tree)
        results_plain = plain_cache.get_batch(a_ids, b_ids)
        for left, right in zip(results_spilled, results_plain):
            assert np.array_equal(left, right)
        # Cached pairs are served from the spilled store identically too.
        again = spilled_cache.get_batch(a_ids, b_ids)
        for left, right in zip(again, results_plain):
            assert np.array_equal(left, right)


class TestEndToEndIdentity:
    BUDGETS = ("64M", "1M", 1)

    def test_emst_byte_identical_at_any_budget(self, points):
        reference = emst(points)
        for budget in self.BUDGETS:
            result = emst(points, memory_budget=budget)
            for left, right in zip(
                reference.edges.as_arrays(), result.edges.as_arrays()
            ):
                assert np.array_equal(left, right), f"budget={budget}"

    def test_hdbscan_byte_identical_at_any_budget(self, points):
        reference = hdbscan(points, min_pts=8)
        for budget in self.BUDGETS:
            result = hdbscan(points, min_pts=8, memory_budget=budget)
            assert np.array_equal(
                reference.core_distances, result.core_distances
            ), f"budget={budget}"
            for left, right in zip(
                reference.mst.edges.as_arrays(), result.mst.edges.as_arrays()
            ):
                assert np.array_equal(left, right), f"budget={budget}"
            assert np.array_equal(
                reference.eom_labels(), result.eom_labels()
            ), f"budget={budget}"

    def test_budget_identity_with_threads(self, points):
        reference = emst(points, num_threads=4)
        result = emst(points, num_threads=4, memory_budget="1M")
        for left, right in zip(
            reference.edges.as_arrays(), result.edges.as_arrays()
        ):
            assert np.array_equal(left, right)

    def test_budget_peak_is_recorded(self, points):
        budget = MemoryBudget("8M")
        emst(points, memory_budget=budget)
        assert budget.peak_bytes > 0


class TestMemmapEndToEnd:
    @pytest.fixture
    def npy_file(self, tmp_path, points):
        path = tmp_path / "points.npy"
        np.save(path, points)
        return path

    def test_memmap_input_byte_identical(self, npy_file, points):
        mapped = open_memmap_points(npy_file)
        assert isinstance(mapped, np.memmap)
        assert not mapped.flags.writeable
        reference = emst(points)
        result = emst(mapped, memory_budget="8M")
        for left, right in zip(
            reference.edges.as_arrays(), result.edges.as_arrays()
        ):
            assert np.array_equal(left, right)
        clustering = hdbscan(mapped, min_pts=8, memory_budget="8M")
        assert np.array_equal(
            clustering.eom_labels(), hdbscan(points, min_pts=8).eom_labels()
        )

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(InvalidPointSetError, match="not found"):
            open_memmap_points(tmp_path / "absent.npy")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.npy"
        path.write_bytes(b"")
        with pytest.raises(InvalidPointSetError, match="empty"):
            open_memmap_points(path)

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "garbage.npy"
        path.write_bytes(b"this is not an npy file at all")
        with pytest.raises(InvalidPointSetError):
            open_memmap_points(path)

    def test_integer_dtype_raises(self, tmp_path):
        path = tmp_path / "ints.npy"
        np.save(path, np.arange(12).reshape(4, 3))
        with pytest.raises(InvalidPointSetError, match="float32 or float64"):
            open_memmap_points(path)

    def test_wrong_shape_raises(self, tmp_path):
        path = tmp_path / "flat.npy"
        np.save(path, np.zeros(7))
        with pytest.raises(InvalidPointSetError, match="shape"):
            open_memmap_points(path)


class TestEstimatorPlumbing:
    def test_params_round_trip(self):
        estimator = HDBSCAN(min_pts=5, memory_budget="16M")
        assert estimator.get_params()["memory_budget"] == "16M"
        cloned = HDBSCAN(**estimator.get_params())
        assert cloned.memory_budget == "16M"

    def test_labels_identical_under_budget(self, points):
        unbudgeted = HDBSCAN(min_pts=8).fit(points)
        budgeted = HDBSCAN(min_pts=8, memory_budget="16M").fit(points)
        assert np.array_equal(unbudgeted.labels_, budgeted.labels_)

    def test_emst_estimator_accepts_budget(self, points):
        fitted = EMST(memory_budget="16M").fit(points)
        assert fitted.edges_.shape == (points.shape[0] - 1, 2)

    @pytest.mark.parametrize("estimator_cls", [EMST, HDBSCAN])
    def test_fail_fast_on_nonsense(self, estimator_cls, points):
        with pytest.raises(InvalidParameterError):
            estimator_cls(memory_budget="12X").fit(points)


class TestCLIPlumbing:
    @pytest.fixture
    def csv_file(self, tmp_path):
        rng = np.random.default_rng(17)
        data = rng.random((60, 2))
        path = tmp_path / "points.csv"
        path.write_text("\n".join(f"{x},{y}" for x, y in data) + "\n")
        return path

    def test_budget_flag_output_identical(self, csv_file, tmp_path):
        plain = tmp_path / "plain.csv"
        budgeted = tmp_path / "budgeted.csv"
        assert cli_main(["emst", str(csv_file), "--output", str(plain)]) == 0
        assert (
            cli_main(
                [
                    "emst",
                    str(csv_file),
                    "--memory-budget",
                    "8M",
                    "--output",
                    str(budgeted),
                ]
            )
            == 0
        )
        assert plain.read_text() == budgeted.read_text()

    def test_npy_input_memmaps_under_budget(self, tmp_path):
        rng = np.random.default_rng(23)
        npy = tmp_path / "points.npy"
        np.save(npy, rng.random((50, 2)))
        out = tmp_path / "labels.csv"
        code = cli_main(
            [
                "hdbscan",
                str(npy),
                "--min-pts",
                "5",
                "--memory-budget",
                "4M",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        labels = out.read_text().strip().splitlines()
        assert labels[0] == "label"
        assert len(labels) == 51

    def test_nonsense_budget_exits_2(self, csv_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["emst", str(csv_file), "--memory-budget", "12X"])
        assert excinfo.value.code == 2
        assert "invalid memory size" in capsys.readouterr().err
