PYTHON ?= python

.PHONY: test fault service router design variants verify

# Tier-1 suite (includes the fault-marked tests).
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Only the fault-injection / failover equivalence tests.
fault:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q -m fault

# Query-service tests plus load-generator smokes: the default
# scheduler, then the adaptive one.
service:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_service.py \
		tests/test_packed_service.py
	PYTHONPATH=src $(PYTHON) -m repro.service.client --smoke \
		--clients 4 --duration 5
	PYTHONPATH=src $(PYTHON) -m repro.service.client --smoke \
		--clients 4 --duration 5 --adaptive

# Routing-tier tests plus the fleet smoke: 3 subprocess backends, one
# induced SIGKILL, one zero-downtime rollover, graceful SIGTERM drain;
# byte-identity against a single-process server and zero leaked
# processes/ready files are asserted throughout.
router:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_router.py
	PYTHONPATH=src $(PYTHON) -m repro.service.router --smoke --duration 6

# Guide-design tests plus the design smoke: in-process reference vs a
# served design request, byte-identity and the single-scan comparer
# proof (one batch covering every candidate query) asserted.
design:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_design.py \
		tests/test_scoring.py
	PYTHONPATH=src $(PYTHON) -m repro.design --smoke

# Variant-aware search tests plus the variants smoke: single-batch
# comparer accounting, served byte-identity against the in-process
# payload, and a TOML enzyme config served end to end.
variants:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_variants.py
	PYTHONPATH=src $(PYTHON) -m repro.variants --smoke

# Tier-1 suite plus explicit fault and service passes, one command.
verify:
	./scripts/verify.sh
