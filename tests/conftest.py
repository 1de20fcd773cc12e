"""Shared fixtures: small deterministic genomes and requests, and the
served hit order as a sort."""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest

from repro.core.config import ExecutionPolicy, Query, SearchRequest
from repro.genome.assembly import Assembly, Chromosome
from repro.genome.synthetic import synthetic_assembly


def served_order(hits, assembly: Assembly):
    """``hits`` in the served hit order of :mod:`repro.core.records`,
    grouped by query in first-appearance order: chromosome in assembly
    order, ``+`` before ``-``, then position."""
    query_rank = {}
    for hit in hits:
        query_rank.setdefault(hit.query, len(query_rank))
    chrom_rank = {c.name: i for i, c in enumerate(assembly.chromosomes)}
    return sorted(hits, key=lambda h: (query_rank[h.query],
                                       chrom_rank[h.chrom],
                                       h.strand != "+", h.position))


#: A request every serving tier answers, sent after a bad line to show
#: the connection still serves.
HEALTH_LINE = b'{"op": "health", "id": "after"}\n'


def converse(host: str, port: int, *writes: bytes) -> list:
    """Send each write on one connection, reading one answer per line
    it holds before sending the next."""
    answers = []
    with socket.create_connection((host, port), timeout=60) as sock:
        with sock.makefile("rb") as stream:
            for payload in writes:
                sock.sendall(payload)
                answers.extend(json.loads(stream.readline())
                               for _ in range(payload.count(b"\n")))
    return answers


def padded_line(request: dict, length: int) -> bytes:
    """``request`` as one line of exactly ``length`` bytes before its
    newline, padded with JSON whitespace."""
    text = json.dumps(request).encode("ascii")
    return text[:-1] + b" " * (length - len(text)) + b"}\n"


def query_line(length: int) -> bytes:
    """A well-formed ``query`` line of exactly ``length`` bytes before
    its newline (~17 bytes per query)."""
    entry = ["GACGTCNN", 0]
    count = (length - 40) // len(json.dumps([entry, entry])) * 2
    return padded_line({"op": "query", "queries": [entry] * count},
                       length)


def over_limit_writes(limit: int) -> list:
    """Writes that each put one line longer than ``limit`` before a
    ``health`` request: a 2 MiB query, a line one byte over, and a
    3 MiB query sharing one write with the ``health`` line."""
    return [[query_line(2 << 20), HEALTH_LINE],
            [padded_line({"op": "health"}, limit + 1), HEALTH_LINE],
            [query_line(3 << 20) + HEALTH_LINE]]


def nested_query_line(depth: int) -> bytes:
    """A ``query`` line whose ``queries`` nests ``depth`` lists."""
    return (b'{"op": "query", "queries": ' + b"[" * depth
            + b"]" * depth + b"}\n")


def random_sequence(rng: np.random.Generator, n: int,
                    alphabet: bytes = b"ACGT") -> np.ndarray:
    return rng.choice(np.frombuffer(alphabet, dtype=np.uint8), size=n)


@pytest.fixture(scope="session")
def small_assembly() -> Assembly:
    """A two-chromosome random assembly (~12 kbp) with an N gap."""
    rng = np.random.default_rng(1234)
    chr_a = random_sequence(rng, 8000)
    chr_a[3000:3100] = ord("N")
    chr_b = random_sequence(rng, 4000)
    return Assembly("test-small", [Chromosome("chrA", chr_a),
                                   Chromosome("chrB", chr_b)])


@pytest.fixture(scope="session")
def tiny_assembly() -> Assembly:
    """A ~1.5 kbp assembly cheap enough for interpreted kernels."""
    rng = np.random.default_rng(99)
    return Assembly("test-tiny", [
        Chromosome("chr1", random_sequence(rng, 1100)),
        Chromosome("chr2", random_sequence(rng, 450)),
    ])


@pytest.fixture(scope="session")
def example_style_request() -> SearchRequest:
    """The paper's pattern with a threshold high enough to find hits in
    small random genomes."""
    return SearchRequest(
        pattern="NNNNNNNNNNNNNNNNNNNNNRG",
        queries=[Query("GGCCGACCTGTCGCTGACGCNNN", 7),
                 Query("CGCCAGCGTCAGCGACAGGTNNN", 6)])


@pytest.fixture(scope="session")
def short_request() -> SearchRequest:
    """A short pattern that yields plenty of hits on tiny genomes."""
    return SearchRequest(
        pattern="NNNNNNRG",
        queries=[Query("GACGTCNN", 3), Query("TTACGANN", 2)])


@pytest.fixture(scope="session")
def fault_injected_policy() -> ExecutionPolicy:
    """A streaming policy whose fault plan walks every recovery path.

    ``raise@0`` is absorbed by the worker retry; ``stall@2:0.6`` outlives
    the 0.25 s deadline, so the watchdog abandons the pipeline and the
    retry succeeds on a fresh one; ``raise@3x3`` exhausts all three
    worker attempts and lands in the merge thread's serial fallback.
    Used by the tier-1 fault-marked equivalence sweep.
    """
    return ExecutionPolicy(streaming=True, workers=2, max_retries=2,
                           retry_backoff_s=0.01, chunk_deadline_s=0.25,
                           fault_plan="raise@0,stall@2:0.6,raise@3x3")


@pytest.fixture(scope="session")
def hg19_mini() -> Assembly:
    return synthetic_assembly("hg19", scale=0.0001,
                              chromosomes=["chr21", "chr22"], seed=5)


@pytest.fixture(scope="session")
def hg38_mini() -> Assembly:
    return synthetic_assembly("hg38", scale=0.0001,
                              chromosomes=["chr21", "chr22"], seed=5)
