#!/usr/bin/env bash
# One-command verification: the tier-1 suite, then an explicit pass over
# the fault-marked failover/recovery tests, then the query-service tests
# with a 5-second load-generator smoke. The fault and service tests also
# run as part of the default suite; the extra passes keep them green even
# when developers filter the first run (e.g. `-m "not slow"` via
# PYTEST_ADDOPTS).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src
# Whatever happens above, never leave orphaned repro-shm-* segments in
# /dev/shm (a killed shard worker or interrupted smoke can strand them).
trap 'python -m repro.service.shards --cleanup' EXIT
python -m pytest -x -q "$@"
python -m pytest -x -q -m fault "$@"
python -m pytest -x -q tests/test_service.py tests/test_packed_service.py \
    tests/test_shard_rings.py tests/test_router.py tests/test_design.py \
    tests/test_variants.py "$@"
# Benchmark-harness self-tests: one of them starts a traced server whose
# layer spans wrap serving functions by name, so renaming one fails here.
python -m pytest -q perfbench
python -m repro.service.client --smoke --clients 4 --duration 5 --packed
python -m repro.service.client --smoke --clients 4 --duration 5 --no-packed
# Sharded smokes: the result-ring hot path, then a 4-record ring that
# forces the overflow (pickle) fallback on every batch.
python -m repro.service.client --smoke --clients 4 --duration 5 --packed \
    --shards 2 --adaptive
python -m repro.service.client --smoke --clients 4 --duration 5 --packed \
    --shards 2 --ring-records 4
# Guide-design smoke: a served `design` request must be byte-identical
# to the in-process reference, with every candidate query covered by
# exactly one batched comparer pass (no per-guide rescans).
python -m repro.design --smoke
# Variant smoke: one comparer batch per variant search, served and
# 2-shard responses byte-identical to in-process, a TOML enzyme config
# served end to end; its sharded leg runs under the shm leak guard.
python -m repro.variants --smoke
# Routing-tier smoke: 3 subprocess backends behind a router, one
# SIGKILLed mid-load, one zero-downtime rollover, SIGTERM drain of the
# survivors; asserts byte-identity against a single-process server and
# a routed `design` request checked before and after the rollover.
python -m repro.service.router --smoke --duration 6
# Every smoke above closed its tier; any surviving segment is a leak
# and fails verification before the trap's cleanup can mask it.
python -m repro.service.shards --guard
