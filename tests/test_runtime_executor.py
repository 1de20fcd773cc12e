"""Unit tests for the ND-range executor: work-items, barriers,
divergence detection, scheduling order, vectorized blocks."""

import numpy as np
import pytest

from repro.runtime.errors import BarrierDivergenceError, SYCLNDRangeError
from repro.runtime.executor import (FenceSpace, LocalDecl,
                                    NDRangeExecutor, WorkItem)


@pytest.fixture
def executor():
    return NDRangeExecutor()


class TestRangeValidation:
    def test_rejects_non_dividing_local_size(self, executor):
        with pytest.raises(SYCLNDRangeError, match="does not divide"):
            executor.run(lambda item: None, 10, 4, ())

    def test_rejects_nonpositive_sizes(self, executor):
        with pytest.raises(SYCLNDRangeError):
            executor.run(lambda item: None, 0, 4, ())
        with pytest.raises(SYCLNDRangeError):
            executor.run(lambda item: None, 8, 0, ())

    def test_rejects_unknown_group_order(self):
        with pytest.raises(ValueError, match="group order"):
            NDRangeExecutor(group_order="random")

    def test_work_item_rejects_second_dimension(self):
        item = WorkItem(0, 0, 0, 4, 8)
        with pytest.raises(SYCLNDRangeError, match="1-D"):
            item.get_global_id(1)


class TestPlainKernels:
    def test_every_work_item_executes_once(self, executor):
        out = np.zeros(64, dtype=np.int64)

        def kernel(item, data):
            data[item.get_global_id(0)] += 1

        stats = executor.run(kernel, 64, 8, (out,))
        assert (out == 1).all()
        assert stats.work_items == 64
        assert stats.work_groups == 8
        assert stats.work_group_size == 8

    def test_coordinate_functions_consistent(self, executor):
        rows = []

        def kernel(item):
            rows.append((item.get_global_id(0), item.get_local_id(0),
                         item.get_group(0), item.get_local_range(0),
                         item.get_global_range(0)))

        executor.run(kernel, 12, 4, ())
        for gid, lid, group, lrange, grange in rows:
            assert gid == group * lrange + lid
            assert lrange == 4
            assert grange == 12

    def test_opencl_style_names(self, executor):
        rows = []

        def kernel(cl):
            rows.append((cl.get_global_id(0), cl.get_local_id(0),
                         cl.get_group_id(0), cl.get_local_size(0),
                         cl.get_global_size(0)))

        executor.run(kernel, 8, 4, (), opencl_style=True)
        assert rows[5] == (5, 1, 1, 4, 8)


class TestBarriers:
    def test_barrier_orders_cross_item_communication(self, executor):
        """Work-item 0 fills local memory; all items read it after the
        barrier — the staging pattern of both paper kernels."""
        out = np.zeros(32, dtype=np.int64)

        def kernel(item, data, scratch):
            li = item.get_local_id(0)
            if li == 0:
                for k in range(len(scratch)):
                    scratch[k] = 100 + item.get_group(0)
            yield item.barrier(FenceSpace.LOCAL)
            data[item.get_global_id(0)] = scratch[li]

        stats = executor.run(kernel, 32, 8, (out,),
                             [LocalDecl("scratch", np.int64, 8)])
        expected = np.repeat(100 + np.arange(4), 8)
        np.testing.assert_array_equal(out, expected)
        assert stats.barriers == 4  # one barrier phase per group

    def test_multiple_barriers(self, executor):
        out = np.zeros(8, dtype=np.int64)

        def kernel(item, data, scratch):
            li = item.get_local_id(0)
            scratch[li] = li
            yield item.barrier()
            total = sum(scratch[k] for k in range(4))
            yield item.barrier()
            data[item.get_global_id(0)] = total

        stats = executor.run(kernel, 8, 4, (out,),
                             [LocalDecl("scratch", np.int64, 4)])
        assert (out == 6).all()
        assert stats.barriers == 4  # two per group, two groups

    def test_divergent_barrier_detected(self, executor):
        def kernel(item):
            if item.get_local_id(0) == 0:
                yield item.barrier()

        with pytest.raises(BarrierDivergenceError, match="returned"):
            executor.run(kernel, 4, 4, ())

    def test_mismatched_fence_spaces_detected(self, executor):
        def kernel(item):
            if item.get_local_id(0) == 0:
                yield item.barrier(FenceSpace.LOCAL)
            else:
                yield item.barrier(FenceSpace.GLOBAL)

        with pytest.raises(BarrierDivergenceError, match="fence"):
            executor.run(kernel, 4, 4, ())

    def test_yielding_non_barrier_detected(self, executor):
        def kernel(item):
            yield 42

        with pytest.raises(BarrierDivergenceError, match="yield"):
            executor.run(kernel, 4, 4, ())

    def test_local_memory_fresh_per_group(self, executor):
        seen = []

        def kernel(item, scratch):
            li = item.get_local_id(0)
            if li == 0:
                seen.append(int(scratch[0]))
                scratch[0] = 7
            yield item.barrier()

        executor.run(kernel, 16, 4, (), [LocalDecl("s", np.int64, 2)])
        assert seen == [0, 0, 0, 0], "LDS must be re-zeroed per group"


class TestScheduling:
    def test_shuffled_order_is_deterministic_for_seed(self):
        def order_of(seed):
            order = []

            def kernel(item):
                if item.get_local_id(0) == 0:
                    order.append(item.get_group(0))

            ex = NDRangeExecutor(group_order="shuffled", seed=seed)
            ex.run(kernel, 64, 8, ())
            return order

        assert order_of(3) == order_of(3)
        assert order_of(3) != list(range(8))

    def test_linear_order(self, executor):
        order = []

        def kernel(item):
            if item.get_local_id(0) == 0:
                order.append(item.get_group(0))

        executor.run(kernel, 32, 8, ())
        assert order == [0, 1, 2, 3]


class TestVectorized:
    def test_blocks_cover_range_exactly(self, executor):
        out = np.zeros(100 * 64, dtype=np.int64)
        spans = []

        def kernel(group, data):
            spans.append((group.group_start, group.group_size))
            sl = slice(group.group_start,
                       group.group_start + group.group_size)
            data[sl] += 1

        stats = executor.run_vectorized(kernel, 6400, 64, (out,),
                                        block_items=1000)
        assert (out == 1).all()
        assert stats.work_groups == 100
        assert stats.work_items == 6400
        # Blocks are exactly block_items long, whatever the group size.
        assert spans == [(start, 1000) for start in range(0, 6000, 1000)
                         ] + [(6000, 400)]

    def test_local_decls_available_per_block(self, executor):
        def kernel(group, scratch):
            assert scratch.shape == (16,)
            assert (scratch == 0).all()
            scratch[:] = 1

        executor.run_vectorized(kernel, 256, 64, (),
                                [LocalDecl("s", np.int32, 16)],
                                block_items=128)

    def test_stats_mode_label(self, executor):
        stats = executor.run_vectorized(lambda g: None, 64, 64, ())
        assert stats.mode == "vectorized"
