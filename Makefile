# Convenience entry points; CI runs `make ci` plus the perf gate.

# The one opam package list every CI job installs (kept here so the
# workflow jobs cannot drift apart; see .github/workflows/ci.yml).
CI_DEPS = dune alcotest qcheck qcheck-alcotest fmt logs cmdliner \
	ocamlformat odoc

.PHONY: all build test fmt doc bench bench-json perf-gate perf-pairs smoke \
	ci ci-deps baseline-refresh clean

all: build

build:
	dune build @all

test:
	dune runtest

# Formatting is advisory when ocamlformat is not installed locally.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

# API reference from the .mli doc comments; advisory when odoc is not
# installed locally. CI always runs `dune build @doc`.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
		dune build @doc; \
		echo "HTML: _build/default/_doc/_html/index.html"; \
	else \
		echo "odoc not installed; skipping doc build (CI runs it)"; \
	fi

# Every table and figure, then the run's totals.
bench:
	dune exec bin/portals_repro.exe -- all --perf

# Machine-readable performance records (see EXPERIMENTS.md).
bench-json:
	dune exec bin/portals_repro.exe -- bench --json BENCH.json

# Fail if any experiment's events/sec regressed more than 25% against
# the committed baseline. Refresh with `make baseline-refresh` on a
# quiet machine; see README.
perf-gate:
	dune exec bin/portals_repro.exe -- \
		bench --json BENCH.json --baseline bench/baseline.json --tolerance 25

# Alternating paired runs of perfbench on REV and on the working tree,
# with medians, quartiles and pair wins per end-to-end metric; see
# scripts/perf_pairs.sh.
REV ?= HEAD
WORKLOAD ?= coll
PAIRS ?= 10
perf-pairs:
	bash scripts/perf_pairs.sh $(REV) $(WORKLOAD) $(PAIRS)

# Install exactly what CI installs (shared by every workflow job).
ci-deps:
	opam install --yes $(CI_DEPS)

# Rebuild bench/baseline.json as the best-of-3 events/sec per record.
# Three full passes smooth out scheduler noise; taking the max per id
# keeps the gate honest (a regression must beat the machine's best day,
# not an unlucky run). Run on a quiet machine, then commit the file.
baseline-refresh:
	for i in 1 2 3; do \
		dune exec bin/portals_repro.exe -- bench --json BENCH.$$i.json \
			|| exit 1; \
	done
	python3 scripts/merge_baselines.py \
		BENCH.1.json BENCH.2.json BENCH.3.json > bench/baseline.json
	rm -f BENCH.1.json BENCH.2.json BENCH.3.json
	@echo "wrote bench/baseline.json (best of 3); review and commit it"

# Seeded acceptance smoke, shared with CI (scripts/smoke.sh).
smoke: build
	bash scripts/smoke.sh

ci: build test fmt smoke

clean:
	dune clean
