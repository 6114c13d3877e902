"""Work–depth parallel model and the classic parallel primitives.

The paper analyses all of its algorithms in the shared-memory work–depth
model: *work* is the total number of operations and *depth* the longest chain
of sequential dependencies; Brent's theorem turns a ``(W, D)`` pair into a
running-time bound ``W/p + D`` on ``p`` processors.

CPython's GIL prevents a faithful shared-memory implementation, so this
subpackage provides two things instead (see DESIGN.md, "Parallelism model"):

* :class:`~repro.parallel.scheduler.WorkDepthTracker` — algorithms report the
  work and depth they incur, and the tracker converts those into simulated
  running times for any processor count via Brent's bound.
* Sequentially-executed versions of the primitives the paper relies on
  (prefix sum, filter, split, WRITE_MIN, union-find) that charge the textbook
  work/depth costs to the active tracker, so the simulated speedups reflect
  the algorithms actually implemented.

:mod:`~repro.parallel.pool` provides the *real* multicore execution engine: a
persistent :class:`~repro.parallel.pool.WorkerPool` of daemon threads (NumPy
releases the GIL inside its C kernels) that every batched hot path — BCCP
size-class tensors, k-NN blocks, WSPD predicate masks, the chunked Kruskal
merge sort — shards work onto with fixed, thread-count-independent chunk
boundaries, so threaded runs are byte-identical to single-threaded ones.  The
simulated Brent-bound curves and the measured wall-clock curves of
``benchmarks/bench_parallel_scaling.py`` are therefore directly comparable.
"""

from repro.parallel.scheduler import (
    WorkDepthTracker,
    current_tracker,
    simulated_time,
    simulated_speedups,
)
from repro.parallel.primitives import (
    prefix_sum,
    parallel_filter,
    parallel_split,
    write_min,
    WriteMinCell,
    parallel_max_index,
    parallel_min_index,
)
from repro.parallel.unionfind import UnionFind
from repro.parallel.pool import (
    WorkerPool,
    Workspace,
    current_workspace,
    get_pool,
    map_shards,
    parallel_map,
    shard_ranges,
    shutdown_pools,
)

__all__ = [
    "WorkDepthTracker",
    "current_tracker",
    "simulated_time",
    "simulated_speedups",
    "prefix_sum",
    "parallel_filter",
    "parallel_split",
    "write_min",
    "WriteMinCell",
    "parallel_max_index",
    "parallel_min_index",
    "UnionFind",
    "WorkerPool",
    "Workspace",
    "current_workspace",
    "get_pool",
    "map_shards",
    "parallel_map",
    "shard_ranges",
    "shutdown_pools",
]
