# Convenience entry points; CI runs `make ci` plus the perf gate.

# The one opam package list every CI job installs (kept here so the
# workflow jobs cannot drift apart; see .github/workflows/ci.yml).
CI_DEPS = dune alcotest qcheck qcheck-alcotest cmdliner \
	ocamlformat odoc

.PHONY: all build test fmt doc bench bench-json perf-gate perf-pairs smoke \
	ci ci-deps baseline-refresh doc-blocks clean

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

# Fail if any record's sim_events, fibers or sim_time_us differs from
# the committed baseline; see README.
perf-gate:
	dune exec bin/portals_repro.exe -- bench --json BENCH.json --baseline bench/baseline.json

# Alternating paired runs of perfbench on REV and on the working tree,
# at seed SEED, with medians, quartiles and pair wins per end-to-end
# metric, then every run's value; see scripts/perf_pairs.sh.
REV ?= HEAD
WORKLOAD ?= coll
PAIRS ?= 10
SEED ?= 0
perf-pairs:
	bash scripts/perf_pairs.sh $(REV) $(WORKLOAD) $(PAIRS) $(SEED)

# Install exactly what CI installs (shared by every workflow job).
ci-deps:
	opam install --yes $(CI_DEPS)

# Rewrite bench/baseline.json from this tree; commit it with the change
# that moved the sim fields, and say why.
baseline-refresh:
	dune exec bin/portals_repro.exe -- bench --json bench/baseline.json

# Rewrite every command-output block in EXPERIMENTS.md from this tree,
# after a change that means to move an output (smoke.sh checks them).
doc-blocks: build
	python3 scripts/doc_blocks.py --write

# Seeded acceptance smoke, shared with CI (scripts/smoke.sh).
smoke: build
	bash scripts/smoke.sh

ci: build test fmt smoke

clean:
	dune clean
