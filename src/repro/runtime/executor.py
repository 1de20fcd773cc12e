"""ND-range kernel executor shared by the OpenCL and SYCL front-ends.

Both programming models in the paper execute kernels the same way
(Section II.B): an ND-range of work-items is divided into work-groups;
work-items in a group share local memory and synchronize with barriers;
groups are scheduled independently.  This module implements that execution
model for Python kernels in two modes:

**Interpreted mode** executes one Python frame per work-item.  Kernels that
use barriers are written as *generator functions* that ``yield`` at each
barrier point (``yield item.barrier()``); the executor advances every
work-item of a group to its next barrier before resuming any of them, which
gives real barrier semantics including divergence detection.  Kernels
without barriers may be plain functions.

**Vectorized mode** lets a kernel supply a numpy implementation that
computes the whole ND-range at once.  The executor still handles work-group
decomposition, local-memory provisioning and statistics; the kernel author
is responsible for barrier-equivalent ordering inside the vectorized body
(trivial for the paper's kernels, whose single barrier separates a
local-memory fill from its use).

Work-group scheduling order is configurable (``linear`` or ``shuffled``)
because the paper notes that atomic update order is non-deterministic on
real devices; shuffled order lets tests verify that results are
order-independent.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BarrierDivergenceError, SYCLNDRangeError
from .memory import LocalMemory

#: Default per-work-group local memory capacity (64 KiB, as on GCN/CDNA).
DEFAULT_LDS_BYTES = 64 * 1024

#: Work-items per fused call of :meth:`NDRangeExecutor.run_vectorized`
#: when the caller passes no ``block_items``, under any work-group size.
#: A comparer kernel emits one block's forward-strand hits before its
#: reverse-strand hits.  Read at call time.
VECTORIZED_BLOCK_ITEMS = 1 << 20


class FenceSpace:
    """Barrier fence spaces (``access::fence_space`` / ``CLK_*_MEM_FENCE``)."""

    LOCAL = "local_space"
    GLOBAL = "global_space"
    GLOBAL_AND_LOCAL = "global_and_local"


class _BarrierToken:
    """Returned by ``item.barrier()``; kernels must ``yield`` it."""

    __slots__ = ("fence",)

    def __init__(self, fence: str):
        self.fence = fence


@dataclass
class LocalDecl:
    """Declaration of a per-work-group local array.

    The OpenCL front-end produces these from ``__local`` kernel arguments
    (``clSetKernelArg`` with a size and NULL pointer); the SYCL front-end
    produces them from local accessors created in the command group.
    """

    name: str
    dtype: object
    count: int


@dataclass
class ExecutionStats:
    """Counters describing one kernel launch."""

    kernel_name: str = ""
    work_items: int = 0
    work_groups: int = 0
    work_group_size: int = 0
    barriers: int = 0
    mode: str = "interpreted"

    def merge(self, other: "ExecutionStats") -> None:
        self.work_items += other.work_items
        self.work_groups += other.work_groups
        self.barriers += other.barriers


class WorkItem:
    """A single kernel instance's view of the ND-range (1-D).

    The method names match SYCL's ``nd_item`` (Table IV of the paper); the
    OpenCL front-end wraps an instance in :class:`OpenCLWorkItemFunctions`
    to expose the OpenCL spellings.
    """

    __slots__ = ("global_id", "local_id", "group_id", "local_range",
                 "global_range", "_barrier_count")

    def __init__(self, global_id: int, local_id: int, group_id: int,
                 local_range: int, global_range: int):
        self.global_id = global_id
        self.local_id = local_id
        self.group_id = group_id
        self.local_range = local_range
        self.global_range = global_range
        self._barrier_count = 0

    def get_global_id(self, dim: int = 0) -> int:
        self._check_dim(dim)
        return self.global_id

    def get_local_id(self, dim: int = 0) -> int:
        self._check_dim(dim)
        return self.local_id

    def get_group(self, dim: int = 0) -> int:
        self._check_dim(dim)
        return self.group_id

    def get_local_range(self, dim: int = 0) -> int:
        self._check_dim(dim)
        return self.local_range

    def get_global_range(self, dim: int = 0) -> int:
        self._check_dim(dim)
        return self.global_range

    def barrier(self, fence: str = FenceSpace.LOCAL) -> _BarrierToken:
        """Create a barrier token; the kernel must ``yield`` it."""
        self._barrier_count += 1
        return _BarrierToken(fence)

    @staticmethod
    def _check_dim(dim: int) -> None:
        if dim != 0:
            raise SYCLNDRangeError(
                f"this executor models 1-D ND-ranges; dimension {dim} "
                "was requested")


class OpenCLWorkItemFunctions:
    """OpenCL spellings of the work-item functions (Table IV, left column).

    An instance is passed as the first argument of every interpreted
    OpenCL-style kernel, standing in for OpenCL C's global built-ins.
    """

    __slots__ = ("_item",)

    CLK_LOCAL_MEM_FENCE = FenceSpace.LOCAL
    CLK_GLOBAL_MEM_FENCE = FenceSpace.GLOBAL

    def __init__(self, item: WorkItem):
        self._item = item

    def get_global_id(self, dim: int = 0) -> int:
        return self._item.get_global_id(dim)

    def get_local_id(self, dim: int = 0) -> int:
        return self._item.get_local_id(dim)

    def get_group_id(self, dim: int = 0) -> int:
        return self._item.get_group(dim)

    def get_local_size(self, dim: int = 0) -> int:
        return self._item.get_local_range(dim)

    def get_global_size(self, dim: int = 0) -> int:
        return self._item.get_global_range(dim)

    def barrier(self, fence: str = FenceSpace.LOCAL) -> _BarrierToken:
        return self._item.barrier(fence)


@dataclass
class GroupContext:
    """Passed to vectorized kernels: one work-group's coordinates + LDS."""

    group_id: int
    group_start: int
    group_size: int
    global_range: int
    local_memory: LocalMemory


class NDRangeExecutor:
    """Executes 1-D ND-range kernels over work-groups.

    Parameters
    ----------
    lds_capacity_bytes:
        Per-work-group shared-local-memory capacity (default 64 KiB).
    group_order:
        ``"linear"`` schedules work-groups in index order; ``"shuffled"``
        permutes them with ``seed`` to emulate non-deterministic hardware
        scheduling (the paper notes atomic update order is not
        deterministic).
    """

    def __init__(self, lds_capacity_bytes: int = DEFAULT_LDS_BYTES,
                 group_order: str = "linear", seed: int = 0):
        if group_order not in ("linear", "shuffled"):
            raise ValueError(f"unknown group order {group_order!r}")
        self.lds_capacity_bytes = lds_capacity_bytes
        self.group_order = group_order
        self.seed = seed

    # -- public API ---------------------------------------------------

    def run(self, kernel: Callable, global_size: int, local_size: int,
            args: Sequence, local_decls: Sequence[LocalDecl] = (),
            kernel_name: str = "", opencl_style: bool = False,
            ) -> ExecutionStats:
        """Run ``kernel`` interpreted over the ND-range.

        ``args`` are passed after the work-item context; local arrays from
        ``local_decls`` are appended after ``args`` in declaration order,
        matching how both front-ends bind ``__local`` arguments / local
        accessors last in the paper's kernels.
        """
        self._validate_range(global_size, local_size)
        stats = ExecutionStats(
            kernel_name=kernel_name or getattr(kernel, "__name__", "kernel"),
            work_group_size=local_size, mode="interpreted")
        is_generator = inspect.isgeneratorfunction(kernel)
        for group_id in self._group_schedule(global_size, local_size):
            lds = LocalMemory(self.lds_capacity_bytes)
            local_arrays = [lds.declare(d.name, d.dtype, d.count)
                            for d in local_decls]
            group_start = group_id * local_size
            group_size = min(local_size, global_size - group_start)
            items = [
                WorkItem(global_id=group_start + li, local_id=li,
                         group_id=group_id, local_range=local_size,
                         global_range=global_size)
                for li in range(group_size)
            ]
            if is_generator:
                stats.barriers += self._run_group_with_barriers(
                    kernel, items, args, local_arrays, opencl_style)
            else:
                for item in items:
                    ctx = OpenCLWorkItemFunctions(item) if opencl_style else item
                    kernel(ctx, *args, *local_arrays)
            stats.work_groups += 1
            stats.work_items += group_size
        return stats

    def run_vectorized(self, kernel: Callable, global_size: int,
                       local_size: int, args: Sequence,
                       local_decls: Sequence[LocalDecl] = (),
                       kernel_name: str = "",
                       block_items: Optional[int] = None) -> ExecutionStats:
        """Run a vectorized kernel over the ND-range in large blocks.

        The kernel signature is ``kernel(group: GroupContext, *args,
        *local_arrays)`` and it must compute all work-items of
        ``[group.group_start, group.group_start + group.group_size)``
        with numpy.  Work-group decomposition only affects shared local
        memory, which vectorized kernels stage internally, so for speed
        the executor fuses exactly ``block_items`` work-items into each
        call (default :data:`VECTORIZED_BLOCK_ITEMS`), whatever the
        work-group size, so a kernel's blocks are the same under every
        API; reported statistics still count true work-groups.
        Vectorized kernels must therefore rely neither on group
        boundaries nor on ``group_id`` meaning a hardware group index.
        """
        self._validate_range(global_size, local_size)
        stats = ExecutionStats(
            kernel_name=kernel_name or getattr(kernel, "__name__", "kernel"),
            work_group_size=local_size, mode="vectorized")
        block_size = max(1, VECTORIZED_BLOCK_ITEMS if block_items is None
                         else block_items)
        n_groups = (global_size + local_size - 1) // local_size
        start = 0
        block_id = 0
        while start < global_size:
            size = min(block_size, global_size - start)
            lds = LocalMemory(self.lds_capacity_bytes)
            local_arrays = [lds.declare(d.name, d.dtype, d.count)
                            for d in local_decls]
            ctx = GroupContext(group_id=block_id, group_start=start,
                               group_size=size, global_range=global_size,
                               local_memory=lds)
            kernel(ctx, *args, *local_arrays)
            start += size
            block_id += 1
        stats.work_groups = n_groups
        stats.work_items = global_size
        return stats

    # -- internals ----------------------------------------------------

    def _validate_range(self, global_size: int, local_size: int) -> None:
        if global_size <= 0:
            raise SYCLNDRangeError(f"global size must be positive, "
                                   f"got {global_size}")
        if local_size <= 0:
            raise SYCLNDRangeError(f"local size must be positive, "
                                   f"got {local_size}")
        if global_size % local_size:
            # SYCL requires the work-group size to divide the ND-range size
            # in each dimension (Section III.C); we allow a ragged final
            # group only for OpenCL-style launches where the host rounded
            # the range up -- callers are expected to round up themselves,
            # so enforce divisibility here exactly as SYCL does.
            raise SYCLNDRangeError(
                f"work-group size {local_size} does not divide ND-range "
                f"size {global_size}")

    def _group_schedule(self, global_size: int, local_size: int) -> List[int]:
        n_groups = (global_size + local_size - 1) // local_size
        order = list(range(n_groups))
        if self.group_order == "shuffled":
            random.Random(self.seed).shuffle(order)
        return order

    def _run_group_with_barriers(self, kernel, items: List[WorkItem],
                                 args, local_arrays,
                                 opencl_style: bool) -> int:
        """Advance all work-items of a group in barrier-aligned phases."""
        frames = []
        for item in items:
            ctx = OpenCLWorkItemFunctions(item) if opencl_style else item
            frames.append(kernel(ctx, *args, *local_arrays))
        live = list(range(len(frames)))
        barriers = 0
        while live:
            arrived: List[int] = []
            finished: List[int] = []
            fences = set()
            for idx in live:
                try:
                    token = next(frames[idx])
                except StopIteration:
                    finished.append(idx)
                    continue
                if not isinstance(token, _BarrierToken):
                    raise BarrierDivergenceError(
                        f"kernel yielded {token!r}; kernels must yield "
                        "item.barrier() tokens only")
                fences.add(token.fence)
                arrived.append(idx)
            if arrived and finished:
                raise BarrierDivergenceError(
                    f"{len(arrived)} work-item(s) reached a barrier while "
                    f"{len(finished)} work-item(s) returned; barriers must "
                    "be encountered by all work-items of a work-group")
            if arrived:
                if len(fences) > 1:
                    raise BarrierDivergenceError(
                        f"work-items disagree on barrier fence space: "
                        f"{sorted(fences)}")
                barriers += 1
                live = arrived
            else:
                live = []
        return barriers
