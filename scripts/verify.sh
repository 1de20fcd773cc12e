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
python -m pytest -x -q "$@"
python -m pytest -x -q -m fault "$@"
python -m pytest -x -q tests/test_service.py tests/test_packed_service.py \
    tests/test_router.py tests/test_design.py tests/test_variants.py "$@"
# Benchmark-harness self-tests: one of them starts a traced server whose
# layer spans wrap serving functions by name, so renaming one fails here.
python -m pytest -q perfbench
python -m repro.service.client --smoke --clients 4 --duration 5
# Guide-design smoke: a served `design` request must be byte-identical
# to the in-process reference, with every candidate query covered by
# exactly one batched comparer pass (no per-guide rescans).
python -m repro.design --smoke
# Variant smoke: one comparer batch per variant search, the served
# response byte-identical to in-process, a TOML enzyme config served
# end to end.
python -m repro.variants --smoke
# Routing-tier smoke: 3 subprocess backends behind a router, one
# SIGKILLed mid-load, SIGTERM drain of the survivors; asserts
# byte-identity against a single-process server, with a routed
# `design`, `variant` and `Alt`-enzyme `query` and `design` checked
# just before and just after the SIGKILL.
python -m repro.service.router --smoke --duration 6
