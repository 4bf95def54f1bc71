# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make check` is the local equivalent of the
# lint + check-deep jobs: lint, then every repro check pass (shallow,
# deep, kernel, bounds) in one `--all` run over one parse of the tree.
# The single-pass targets stay for iterating on one pass. ruff/mypy are
# optional extras — install with `pip install ruff mypy` (the repro
# passes need only the package).

PYTHON ?= python

.PHONY: check check-shallow check-deep check-kernel check-bounds lint \
	test bench bench-batched mrc-approx perfbench-check baseline hash-schema

check: lint
	$(PYTHON) -m repro check src/repro --all

check-shallow:
	$(PYTHON) -m repro check src/repro

check-deep:
	$(PYTHON) -m repro check src/repro --deep

check-kernel:
	$(PYTHON) -m repro check src/repro --kernel

check-bounds:
	$(PYTHON) -m repro check src/repro --bounds

lint:
	$(PYTHON) -m ruff check src tests
	$(PYTHON) -m mypy

test:
	$(PYTHON) -m pytest -q

bench:
	$(PYTHON) -m repro bench --smoke --threshold 0.30 \
		--baseline BENCH_core_ops.json --output bench_smoke.json

# Full-length run of the suite including the batched scenarios and the
# >=5x batched-vs-committed-single-step speedup gate (same gate CI's
# bench-smoke job enforces at smoke scale).
bench-batched:
	$(PYTHON) -m repro bench --threshold 0.30 --batch-size 1024 \
		--baseline BENCH_core_ops.json --output bench_batched.json

# The approximate-MRC validation ladder: the fast SHARDS/AET-vs-exact
# accuracy suite (also run by CI's bench-smoke job), then the
# REPRO_BIG_TESTS tentpole gate — 10^7 references, >= 20x over exact
# Mattson at <= 1% MAE under a fixed memory budget (takes ~2 min).
mrc-approx:
	$(PYTHON) -m pytest -q tests/analysis/test_mrc_approx.py
	REPRO_BIG_TESTS=1 $(PYTHON) -m pytest -q \
		tests/analysis/test_mrc_approx.py -k tentpole_gate

# The end-to-end benchmark's correctness checks (CI's perfbench-check
# job): its own tests, then one short run of each stream workload at
# seeds 1 and 2. Every run checks scalar = batched = in-memory drive;
# the seed-1 runs also check the pinned result hashes (seed 2 has
# none). A failed check exits 1.
perfbench-check:
	$(PYTHON) -m pytest -q perfbench/tests
	$(PYTHON) perfbench/run.py --workload stream-single --seed 1 \
		--seconds 1 --trace 0
	$(PYTHON) perfbench/run.py --workload stream-multi --seed 1 \
		--seconds 1 --trace 0
	$(PYTHON) perfbench/run.py --workload stream-single --seed 2 \
		--seconds 1 --trace 0
	$(PYTHON) perfbench/run.py --workload stream-multi --seed 2 \
		--seconds 1 --trace 0

# Maintenance: regenerate the check-pass artefacts after reviewing
# that the new findings / schema drift are intentional. The baseline
# file is shared by every pass; --all --update-baseline rewrites it
# from the shallow, deep, kernel and bounds passes in one go.
baseline:
	$(PYTHON) -m repro check src/repro --all --update-baseline

hash-schema:
	$(PYTHON) -m repro check src/repro --deep --update-hash-schema
