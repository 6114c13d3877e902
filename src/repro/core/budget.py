"""Engine-wide memory budget: bytes accounting for the tiled hot paths.

Every batched kernel in this library materializes *tiles* — a block of k-NN
queries, one BCCP size-class distance tensor, a sort chunk of the Kruskal
weight array — and before this module each kernel sized its tiles from its
own hard-coded constant.  A :class:`MemoryBudget` replaces those constants
with one bytes ceiling threaded through the engine the same way
:class:`~repro.core.metric.Metric` and the kernel backend are: a per-call
``memory_budget=`` argument on the public entry points scopes an *ambient*
budget (a field of the execution context, :mod:`repro.core.context`) that
every kernel consults when it picks a tile size (:meth:`MemoryBudget.tile_rows` / :meth:`~MemoryBudget.tile_bytes`).

The budget changes **only** tile and chunk sizes.  Every tiled kernel in the
engine is tile-invariant by construction — k-NN results are independent of
the query blocking, BCCP class padding is fixed before chunking, the parallel
merge argsort equals ``np.argsort(..., kind="stable")`` at any chunk size,
and the frontier masks are elementwise — so results are **byte-identical to
the unbudgeted engine at any budget that admits at least one tile**.  A
budget below the floor of a kernel's smallest possible tile simply clamps at
that floor (:data:`MIN_TILE_BYTES`, or the kernel's own row minimum): the run
may then overshoot the requested ceiling by the irreducible tile, but it
never changes results and never errors.

Beyond tiling, a bounded budget turns on **spill-to-disk** for the growable
containers: :func:`repro.core.buffers.ensure_capacity` routes buffer
(re)allocation through :meth:`MemoryBudget.allocate`, which backs any buffer
larger than the spill threshold with an *unlinked* temporary-file memmap —
the OS pages it instead of RAM, views stay valid for the life of the mapping,
and nothing is left on disk afterwards because the file is deleted the moment
it is mapped.

Accounting is deliberately simple: fixed per-component reservations
(:meth:`MemoryBudget.reserve` — the input points, persistent caches) are
subtracted from the total, kernels receive a bounded share of what remains
per tile, and the high-water mark of everything the budget granted is kept in
:attr:`MemoryBudget.peak_bytes` so benchmarks can report the *planned* peak
next to the measured RSS.

Selection order mirrors the backend knob: per-call ``memory_budget=``
argument > the ambient execution context
(:func:`repro.core.context.use_context`) > the ``REPRO_MEMORY_BUDGET``
environment variable read once at import > unbounded.
"""

from __future__ import annotations

import re
import tempfile
import warnings
import weakref
from typing import Dict, Optional, Union

import numpy as np

from repro.core.errors import InvalidParameterError

BudgetLike = Union[None, int, str, "MemoryBudget"]

#: Floor on the bytes any single tile may use.  "Any budget that admits at
#: least one tile" is a budget for which this floor is meaningful: below it
#: the kernels clamp here rather than degenerating to pathological row-by-row
#: dispatch (which would be slow but *still* byte-identical).
MIN_TILE_BYTES = 64 << 10

#: Fraction of the un-reserved budget one tile may claim.  Several tiled
#: stages (and, under ``num_threads > 1``, several workers' tiles) are live
#: at once, so a single tile never gets the whole remainder.
_TILE_DIVISOR = 4

_SIZE_PATTERN = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([KMGT]?)B?\s*$", re.IGNORECASE)

_SIZE_FACTORS = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}


def parse_memory_size(spec: Union[int, float, str]) -> int:
    """Parse a human-readable size (``"512M"``, ``"2G"``, ``"65536"``) to bytes.

    Suffixes ``K``/``M``/``G``/``T`` (optionally followed by ``B``, any case)
    denote binary multiples; a bare number is bytes.  This is the one parser
    shared by the CLI ``--memory-budget`` flag and the estimators'
    ``memory_budget=`` validation, so both fail fast with the same message on
    nonsense values (empty strings, negative or zero sizes, unknown units).
    """
    if isinstance(spec, bool):
        raise InvalidParameterError(f"invalid memory size {spec!r}")
    if isinstance(spec, (int, float, np.integer, np.floating)):
        size = int(spec)
        if size <= 0:
            raise InvalidParameterError(
                f"memory size must be positive, got {spec!r}"
            )
        return size
    if not isinstance(spec, str):
        raise InvalidParameterError(
            f"memory size must be an int, a string like '512M', or a "
            f"MemoryBudget, got {spec!r}"
        )
    match = _SIZE_PATTERN.match(spec)
    if match is None:
        raise InvalidParameterError(
            f"invalid memory size {spec!r}; expected bytes or a K/M/G/T "
            f"suffix, e.g. '512M' or '2G'"
        )
    value = float(match.group(1)) * _SIZE_FACTORS[match.group(2).upper()]
    size = int(value)
    if size <= 0:
        raise InvalidParameterError(f"memory size must be positive, got {spec!r}")
    return size


def format_memory_size(nbytes: Optional[int]) -> str:
    """Human-readable rendering of a byte count (``None`` -> ``"unbounded"``)."""
    if nbytes is None:
        return "unbounded"
    for suffix, factor in (("G", 1 << 30), ("M", 1 << 20), ("K", 1 << 10)):
        if nbytes >= factor and nbytes % (factor // 16) == 0:
            value = nbytes / factor
            return f"{value:g}{suffix}"
    return str(int(nbytes))


class MemoryBudget:
    """A bytes ceiling for the engine's tiled kernels and growable buffers.

    Parameters
    ----------
    total:
        Total budget in bytes (int), as a size string (``"512M"``), or
        ``None`` for unbounded (every helper then returns its caller's
        default, and nothing spills).
    spill_threshold:
        Buffers at least this large are backed by unlinked temporary-file
        memmaps instead of RAM (see :meth:`allocate`).  Defaults to an
        eighth of the total for bounded budgets; ``None`` on an unbounded
        budget disables spilling.
    spill_dir:
        Directory the anonymous spill files are created in (defaults to the
        platform temporary directory).  Files are unlinked immediately after
        mapping, so nothing survives the process regardless.

    Notes
    -----
    The budget is an accounting object, not an enforcement mechanism: it
    bounds what the *engine* plans to materialize (and records the high-water
    mark of those grants in :attr:`peak_bytes`), while the interpreter, NumPy
    and the input arrays live outside it.  Benchmarks therefore gate measured
    RSS against ``budget + fixed overhead allowance``, never against the raw
    budget.
    """

    def __init__(
        self,
        total: Union[None, int, str] = None,
        *,
        spill_threshold: Union[None, int, str] = None,
        spill_dir: Optional[str] = None,
    ) -> None:
        self.total_bytes: Optional[int] = (
            None if total is None else parse_memory_size(total)
        )
        if spill_threshold is not None:
            self.spill_threshold_bytes: Optional[int] = parse_memory_size(
                spill_threshold
            )
        elif self.total_bytes is not None:
            self.spill_threshold_bytes = max(self.total_bytes // 8, MIN_TILE_BYTES)
        else:
            self.spill_threshold_bytes = None
        self.spill_dir = spill_dir
        self._reservations: Dict[str, int] = {}
        #: High-water mark of reservations + the largest concurrent tile
        #: grant — the *planned* peak, reported next to measured RSS.
        self.peak_bytes = 0
        #: Number of buffers this budget has spilled to disk, and their bytes.
        self.spilled_buffers = 0
        self.spilled_bytes = 0
        #: Bytes of spilled buffers whose memmaps are still alive (decremented
        #: by a ``weakref.finalize`` on each mapping).  The spill-lifecycle
        #: tests pin this to zero after a fit — including a *failed* fit — to
        #: prove no exception path leaks a mapping or its file descriptor.
        self.live_spilled_bytes = 0

    # -- identity --------------------------------------------------------------

    @property
    def bounded(self) -> bool:
        """Whether a finite ceiling is set (unbounded budgets are no-ops)."""
        return self.total_bytes is not None

    def spec(self) -> str:
        """Canonical string form (what benchmark metadata records)."""
        return format_memory_size(self.total_bytes)

    def __repr__(self) -> str:
        return f"MemoryBudget({self.spec()!r})"

    # -- reservations ----------------------------------------------------------

    def reserve(self, component: str, nbytes: int) -> None:
        """Register a fixed per-component reservation (idempotent per name).

        Reservations model long-lived allocations — the coerced input array,
        a persistent cache — that tiles must leave room for.  Re-reserving a
        component replaces its previous figure (callers re-enter the engine
        with the same budget object across pipeline stages).
        """
        self._reservations[component] = max(int(nbytes), 0)
        self._note(self.reserved_bytes)

    def release(self, component: str) -> None:
        """Drop a reservation (missing names are ignored)."""
        self._reservations.pop(component, None)

    @property
    def reserved_bytes(self) -> int:
        """Sum of the current per-component reservations."""
        return sum(self._reservations.values())

    @property
    def reservations(self) -> Dict[str, int]:
        """A copy of the per-component reservation table."""
        return dict(self._reservations)

    def available_bytes(self) -> int:
        """Bytes left for tiles after the fixed reservations.

        Never below :data:`MIN_TILE_BYTES`: a budget fully consumed by
        reservations still admits the minimum tile (clamping, not failing,
        is the contract — results are tile-invariant).
        """
        if self.total_bytes is None:
            raise InvalidParameterError(
                "available_bytes() is undefined on an unbounded budget"
            )
        return max(self.total_bytes - self.reserved_bytes, MIN_TILE_BYTES)

    # -- tile sizing -----------------------------------------------------------

    def tile_bytes(
        self, default: int, *, parts: int = 1, component: str = "tile"
    ) -> int:
        """The bytes ceiling for one tile of a kernel.

        ``default`` is the kernel's unbudgeted constant (returned verbatim on
        an unbounded budget, so the historical tile sizes are preserved
        exactly).  On a bounded budget a tile gets at most a
        :data:`_TILE_DIVISOR`-th of the un-reserved remainder, further split
        across ``parts`` concurrent consumers (worker threads), floored at
        :data:`MIN_TILE_BYTES` so a tiny budget clamps instead of
        degenerating.
        """
        if self.total_bytes is None:
            return int(default)
        share = self.available_bytes() // (_TILE_DIVISOR * max(int(parts), 1))
        granted = max(min(int(default), share), MIN_TILE_BYTES)
        self._note(self.reserved_bytes + granted * max(int(parts), 1))
        return granted

    def tile_rows(
        self,
        bytes_per_row: int,
        *,
        default_bytes: int,
        minimum: int = 1,
        maximum: Optional[int] = None,
        parts: int = 1,
        component: str = "tile",
    ) -> int:
        """Rows per tile given a per-row footprint.

        ``rows = clamp(tile_bytes // bytes_per_row, minimum, maximum)`` —
        the shape every blocked kernel (k-NN query blocks, sort chunks,
        frontier mask shards) derives its blocking from.
        """
        budget_bytes = self.tile_bytes(default_bytes, parts=parts, component=component)
        rows = budget_bytes // max(int(bytes_per_row), 1)
        rows = max(rows, int(minimum))
        if maximum is not None:
            rows = min(rows, int(maximum))
        return int(rows)

    def tile_elements(
        self,
        dtype,
        *,
        default_elements: int,
        minimum: int = 1,
        parts: int = 1,
        component: str = "tile",
    ) -> int:
        """Elements per tile for a kernel that thinks in dtype entries.

        The BCCP size-class kernel caps the padded distance entries one chunk
        may materialize; this converts its element count through the dtype's
        itemsize so the cap becomes a bytes ceiling under a bounded budget.
        """
        itemsize = int(np.dtype(dtype).itemsize)
        budget_bytes = self.tile_bytes(
            int(default_elements) * itemsize, parts=parts, component=component
        )
        return max(budget_bytes // itemsize, int(minimum))

    # -- peak tracking ---------------------------------------------------------

    def _note(self, nbytes: int) -> None:
        # Peak tracking is only meaningful against a ceiling; keeping this a
        # no-op when unbounded also keeps the shared UNBOUNDED singleton
        # stateless across runs.
        if self.total_bytes is None:
            return
        if nbytes > self.peak_bytes:
            self.peak_bytes = int(nbytes)

    def note_allocation(self, nbytes: int) -> None:
        """Record an engine allocation the tile helpers did not size.

        Used for irreducible blocks — a single oversized BCCP pair matrix —
        so :attr:`peak_bytes` stays an honest high-water mark even when a
        kernel must overshoot the tile ceiling.
        """
        self._note(self.reserved_bytes + max(int(nbytes), 0))

    # -- spill-to-disk ---------------------------------------------------------

    def wants_spill(self, nbytes: int) -> bool:
        """Whether a buffer of ``nbytes`` should be disk-backed."""
        return (
            self.spill_threshold_bytes is not None
            and nbytes >= self.spill_threshold_bytes
        )

    def allocate(self, capacity: int, dtype) -> np.ndarray:
        """An uninitialized 1-d buffer of ``capacity`` entries.

        RAM-backed (``np.empty``) below the spill threshold; above it, a
        memory map over an unlinked temporary file — the mapping keeps the
        (deleted) file alive, so the buffer needs no cleanup and cannot leak
        onto disk past the process.  Falls back to RAM with a warning if the
        spill directory is unwritable; if that fallback *also* fails for lack
        of memory, raises :class:`~repro.core.errors.SpillIOError` (the typed
        out-of-resources signal the CLI maps to its own exit code).  The file
        handle is closed on every path, including mid-setup failures, so a
        refused spill can never leak a descriptor.
        """
        from repro.core.errors import SpillIOError
        from repro.resilience.faults import fault_check

        dtype = np.dtype(dtype)
        nbytes = int(capacity) * dtype.itemsize
        if not self.wants_spill(nbytes):
            self.note_allocation(nbytes)
            return np.empty(int(capacity), dtype=dtype)
        handle = None
        try:
            fault = fault_check("spill-os-error", nbytes=nbytes)
            if fault is not None:
                raise OSError(f"injected spill failure ({fault.spec()})")
            handle = tempfile.TemporaryFile(
                dir=self.spill_dir, prefix="repro-spill-"
            )
            handle.truncate(max(nbytes, 1))
            buffer = np.memmap(handle, dtype=dtype, mode="r+", shape=(int(capacity),))
        except OSError as error:
            if handle is not None:
                handle.close()
            warnings.warn(
                f"could not spill a {nbytes}-byte buffer to disk ({error}); "
                "keeping it in RAM",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                fault = fault_check("spill-ram-fail", nbytes=nbytes)
                if fault is not None:
                    raise MemoryError(f"injected RAM exhaustion ({fault.spec()})")
                fallback = np.empty(int(capacity), dtype=dtype)
            except MemoryError as ram_error:
                raise SpillIOError(
                    f"spilling a {nbytes}-byte buffer to disk failed "
                    f"({error}) and the RAM fallback failed too "
                    f"({ram_error}); free disk space in the spill directory "
                    f"({self.spill_dir or 'the system tmpdir'}) or raise the "
                    "memory budget"
                ) from ram_error
            self.note_allocation(nbytes)
            return fallback
        except BaseException:
            if handle is not None:
                handle.close()
            raise
        # The mapping owns the pages now; the file object can go (the file
        # itself was never linked into the filesystem namespace on POSIX, or
        # is marked delete-on-close elsewhere).
        handle.close()
        self.spilled_buffers += 1
        self.spilled_bytes += nbytes
        self.live_spilled_bytes += nbytes
        weakref.finalize(buffer, self._release_spill, nbytes)
        return buffer

    def _release_spill(self, nbytes: int) -> None:
        self.live_spilled_bytes -= nbytes


#: The unbounded budget every kernel sees unless a caller scopes one.
UNBOUNDED = MemoryBudget(None)


def resolve_memory_budget(budget: BudgetLike = None) -> MemoryBudget:
    """Normalize a budget argument into a usable :class:`MemoryBudget`.

    ``None`` means the budget of the current execution context (see
    :func:`repro.core.context.use_context`; initialized from
    ``REPRO_MEMORY_BUDGET`` at import, unbounded otherwise).
    Ints and strings construct a bounded budget via :func:`parse_memory_size`
    — nonsense values fail fast with the parser's message.
    """
    if budget is None:
        from repro.core.context import current_context

        return current_context().memory_budget
    if isinstance(budget, MemoryBudget):
        return budget
    if isinstance(budget, (int, str, np.integer)) and not isinstance(budget, bool):
        return MemoryBudget(parse_memory_size(budget))
    raise InvalidParameterError(
        f"memory_budget must be bytes, a size string like '512M', a "
        f"MemoryBudget instance or None, got {budget!r}"
    )
