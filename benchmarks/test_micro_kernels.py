"""Wall-clock micro-benchmarks of the Python substrate itself.

These are ours, not the paper's: they measure the real costs of the
pieces the simulation is built from (vectorized vs interpreted kernels,
2-bit encoding, the full pipeline) and back the ablation notes in
EXPERIMENTS.md with measured numbers.
"""

import numpy as np
import pytest

from repro.core.config import Query, SearchRequest, example_request
from repro.core.patterns import compile_pattern
from repro.core.pipeline import SyclCasOffinder, search
from repro.genome.twobit import decode, encode
from repro.kernels.variants import VARIANT_ORDER
from repro.service.index import GenomeSiteIndex


def test_full_pipeline_vectorized(benchmark, bench_assembly):
    request = example_request()
    result = benchmark(search, bench_assembly, request)
    assert result.workload.candidates > 0


def test_full_pipeline_opencl(benchmark, bench_assembly):
    request = example_request()
    result = benchmark(search, bench_assembly, request, api="opencl")
    assert result.workload.candidates > 0


@pytest.mark.parametrize("variant", VARIANT_ORDER)
def test_vectorized_variants_equal_cost(benchmark, bench_assembly,
                                        variant):
    """All variants share the vectorized fast path; their Python cost is
    flat (the modeled GPU cost is what differs)."""
    request = example_request()
    benchmark(search, bench_assembly, request, variant=variant)


def test_interpreted_kernel_cost(benchmark):
    """Interpreted mode on a deliberately tiny genome: the price of real
    per-work-item execution with barrier scheduling."""
    rng = np.random.default_rng(0)
    from repro.genome.assembly import Assembly, Chromosome
    assembly = Assembly("tiny", [Chromosome(
        "c", rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8), 1500))])
    request = SearchRequest("NNNNNNRG", [Query("GACGTCNN", 2)])
    pipeline = SyclCasOffinder(chunk_size=512, mode="interpreted",
                               work_group_size=16)
    result = benchmark(pipeline.search, assembly, request)
    assert result.workload.positions_scanned > 0


def test_twobit_encode(benchmark, bench_assembly):
    sequence = bench_assembly["chr20"].sequence
    encoded = benchmark(encode, sequence)
    assert encoded.nbytes < sequence.nbytes / 2


def test_twobit_decode(benchmark, bench_assembly):
    sequence = bench_assembly["chr20"].sequence
    encoded = encode(sequence)
    decoded = benchmark(decode, encoded)
    assert decoded.size == sequence.size


def _popcount_words(n: int = 1 << 20) -> np.ndarray:
    rng = np.random.default_rng(3)
    return rng.integers(0, 1 << 63, size=n, dtype=np.uint64)


@pytest.mark.skipif(not hasattr(np, "bitwise_count"),
                    reason="numpy lacks bitwise_count")
def test_popcount_native(benchmark):
    """``np.bitwise_count`` path of the packed comparer's popcount."""
    from repro.core.bitparallel import _popcount64_native
    words = _popcount_words()
    counts = benchmark(_popcount64_native, words)
    assert counts.max() <= 64


def test_popcount_lut(benchmark):
    """Byte-LUT fallback popcount (pre-``bitwise_count`` numpy)."""
    from repro.core.bitparallel import _popcount64_lut
    words = _popcount_words()
    counts = benchmark(_popcount64_lut, words)
    assert counts.max() <= 64


@pytest.mark.parametrize("n_guides", [1, 60])
def test_resident_comparer(benchmark, bench_assembly, n_guides):
    """One serving comparer pass over the resident row table: a narrow
    batch (a single query) and a design-wide one, without a server."""
    index = GenomeSiteIndex.build(bench_assembly,
                                  "NNNNNNNNNNNNNNNNNNNNNRG")
    rng = np.random.default_rng(9)
    entries = [e for e in index.entries if e.loci.size]
    guides = set()
    while len(guides) < n_guides:
        entry = entries[rng.integers(len(entries))]
        i = int(rng.integers(entry.loci.size))
        protospacer = entry.data[entry.loci[i]:entry.loci[i] + 20]
        if entry.flags[i] != 2 and set(protospacer.tobytes()) <= \
                set(b"ACGT"):
            guides.add(protospacer.tobytes().decode() + "NNN")
    queries = [Query(guide, 3) for guide in sorted(guides)]
    compiled = [compile_pattern(q.sequence) for q in queries]
    found = benchmark(index.pipeline.compare_resident_triples,
                      index.table, queries, compiled)
    # Every guide hits at least its own forward site.
    assert all(any(triples[qi][0].size for triples in found.values())
               for qi in range(n_guides))


@pytest.mark.parametrize("chunk_size", [1 << 16, 1 << 18, 1 << 20])
def test_chunk_size_ablation(benchmark, bench_assembly, chunk_size):
    """DESIGN.md ablation: chunk size trades launch count against
    device-memory footprint; results must not change (asserted in the
    test suite) and Python cost varies mildly."""
    request = example_request()
    result = benchmark(search, bench_assembly, request,
                       chunk_size=chunk_size)
    assert result.workload.chunk_count >= 1
