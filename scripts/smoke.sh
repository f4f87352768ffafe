#!/usr/bin/env bash
# Acceptance smoke tests, shared by `make smoke` and CI. Each block must
# stay cheap (seconds): these guard observable behaviour at fixed seeds,
# not performance. Set DUNE to wrap dune (CI uses "opam exec -- dune").
set -euo pipefail

DUNE=${DUNE:-dune}
OUT=${SMOKE_OUT:-_build/smoke}
mkdir -p "$OUT"

# check_sha FILE SHA256 WHAT: fail unless FILE's digest is SHA256.
check_sha() {
  local got
  got=$(sha256sum "$1" | cut -d' ' -f1)
  if [ "$got" != "$2" ]; then
    echo "$3 output drifted: sha256 $got" >&2
    exit 1
  fi
}

echo "== smoke: no process-wide mutable state in lib/ =="
# Every world is built from one immutable scenario and owns all of its
# state, so worlds can be built in any order and run on any domain. A
# top-level ref / Atomic.make / Hashtbl.create / Array.make /
# Bytes.create binding in lib/ would be shared by every world in the
# process. Allowed, as FILE:NAME: the scheduler's three process-wide
# run totals, which wait for the benchmark change that moves
# perfbench/workloads.ml off Scheduler.global_totals onto per-world
# counts; and the CRC-32C lookup table, filled once at module
# initialisation and only read after.
allowed="lib/engine/scheduler.ml:g_events
lib/engine/scheduler.ml:g_fibers
lib/engine/scheduler.ml:g_sim_ns
lib/simnet/crc32c.ml:table"
# A binding counts when "let NAME [: TYPE] =" (no parameters) at column
# 0 names one of the five constructors anywhere in its body, which runs
# to the next column-0 line; a body that starts with fun or function
# builds a closure, not state, and is skipped.
found=$(find lib -name '*.ml' | sort | xargs awk '
  function mutable_in(s) {
    return s ~ /(^|[^A-Za-z0-9_'"'"'.])(ref|Atomic\.make|Hashtbl\.create|Array\.make|Bytes\.create)([ \t(]|$)/
  }
  FNR == 1 { name = "" }
  /^[^ \t]/ { name = "" }
  /^let [a-z_][A-Za-z0-9_'"'"']*[ \t]*(:[^=]*)?=/ {
    name = $0
    sub(/^let /, "", name)
    sub(/[^A-Za-z0-9_'"'"'].*/, "", name)
    text = $0
    sub(/^[^=]*=/, "", text)
    fresh = 1
  }
  name != "" && !/^let / { text = $0 }
  name != "" && text !~ /^[ \t]*$/ {
    if (fresh && text ~ /^[ \t]*(fun|function)([ \t]|$)/) name = ""
    else if (mutable_in(text)) { print FILENAME ":" name; name = "" }
    fresh = 0
  }')
unexpected=$(comm -23 <(echo "$found" | sort) <(echo "$allowed" | sort))
if [ -n "$unexpected" ]; then
  echo "process-wide mutable state in lib/ (make it per world):" >&2
  echo "$unexpected" >&2
  exit 1
fi

echo "== smoke: no shard-0 alias reads outside perfbench/ =="
# A world's sched, fabric and transport fields are shard 0's, which on a
# sharded world rejects every node shard 0 does not own. Per-rank and
# per-node work goes through the *_of_rank / *_of_nid accessors and
# world-wide questions through Runtime.now, metrics_snapshot,
# shard_fabrics and topology. perfbench/ alone still reads the fields.
if grep -rnE '\.(Runtime|World)\.(sched|fabric|transport)\b' \
  lib bin examples test >&2; then
  echo "shard-0 alias reads above: use the shard-aware accessors" >&2
  exit 1
fi

echo "== smoke: every exported val has a reader outside its module =="
# A `val NAME` in lib/**/*.mli that no file outside its own .ml/.mli
# under lib bin test examples perfbench reads is an export nothing
# calls: drop it from the .mli, or give it a test. A file reads M.NAME
# (M the .mli's module, or the `module M : sig` the val sits in) when,
# outside comments and strings, it names M.NAME through any module path
# or through an alias of M (`module A = ...M` in that file or in any
# .mli, or a wrapper that does `include M`), or when it opens M (`open
# ...M`, `M.(`) and names NAME as a word. Allowed, as MLI:NAME (none
# today):
allowed=""
unread=$(python3 - <<'EOF'
import pathlib, re

MOD = r"[A-Z][\w']*"
PATH = rf"(?:{MOD}\.)*({MOD})"
CHAR = re.compile(r"'(\\(?:[^']+|')|[^\\'])'")


def strip(src):
    """The source with comments, strings and char literals left out."""
    out, i, n, depth = [], 0, len(src), 0
    while i < n:
        if src.startswith("(*", i):
            depth, i = depth + 1, i + 2
        elif depth and src.startswith("*)", i):
            depth, i = depth - 1, i + 2
        elif src[i] == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
        elif depth == 0 and (m := CHAR.match(src, i)) and not (
            i and re.match(r"[\w']", src[i - 1])
        ):
            i = m.end()
        else:
            if depth == 0 or src[i] == "\n":
                out.append(src[i])
            i += 1
    return "".join(out)


def aliases(src):
    got = {}
    for a, m in re.findall(rf"\bmodule\s+({MOD})\s*=\s*{PATH}\b(?!\s*\()", src):
        got.setdefault(m, set()).add(a)
    return got


files = sorted(
    p
    for root in "lib bin test examples perfbench".split()
    for p in pathlib.Path(root).rglob("*")
    if p.suffix in (".ml", ".mli")
)
text = {p: strip(p.read_text()) for p in files}
# Names a module goes by in every file: aliases an .mli re-exports,
# and a wrapper module that includes it.
known = {}
for p in files:
    if p.suffix == ".mli":
        for m, a in aliases(text[p]).items():
            known.setdefault(m, set()).update(a)
    for m in re.findall(rf"^include\s+{PATH}", text[p], re.M):
        known.setdefault(m, set()).add(p.stem.capitalize())
facts = {
    p: (
        aliases(src),
        set(re.findall(rf"\bopen!?\s+{PATH}", src))
        | set(re.findall(rf"(?<![\w'])({MOD})\.[({{]", src)),
        set(re.findall(rf"(?<![\w'])({MOD})\.([a-z_][\w']*)", src)),
        set(re.findall(r"(?<![\w'.])([a-z_][\w']*)", src)),
    )
    for p, src in text.items()
}


def reads(p, m, name):
    local, opened, qualified, words = facts[p]
    names = {m} | known.get(m, set()) | local.get(m, set())
    return any((n, name) in qualified for n in names) or (
        bool(names & opened) and name in words
    )


for mli in (p for p in files if p.suffix == ".mli" and p.parts[0] == "lib"):
    others = [p for p in files if p not in (mli, mli.with_suffix(".ml"))]
    path = []
    for line in text[mli].splitlines():
        if m := re.match(rf"\s*module\s+({MOD})\s*:\s*sig\b", line):
            path = path + [m.group(1)]
        elif re.match(r"\s*end\b", line) and path:
            path = path[:-1]
        elif m := re.match(r"\s*val\s+([a-z_][\w']*)", line):
            owner = path[-1] if path else mli.stem.capitalize()
            if not any(reads(p, owner, m.group(1)) for p in others):
                print(f"{mli}:" + ".".join(path + [m.group(1)]))
EOF
)
unexpected=$(comm -23 <(echo "$unread" | sort -u) <(echo "$allowed" | sort))
if [ -n "$unexpected" ]; then
  echo "exported vals nothing outside their module reads:" >&2
  echo "$unexpected" >&2
  exit 1
fi

echo "== smoke: fig6 metrics + trace =="
$DUNE exec bin/portals_repro.exe -- \
  fig6 --metrics=json --trace-out "$OUT/fig6.trace.json"
python3 -c "import json; json.load(open('$OUT/fig6.trace.json'))"

echo "== smoke: rel_loss_sweep at a fixed seed =="
$DUNE exec bin/portals_repro.exe -- \
  rel-loss-sweep --metrics=json --seed 42 \
  | tee "$OUT/rel_loss_sweep.out"
grep -q 'rel.retransmits' "$OUT/rel_loss_sweep.out"
grep -q 'fabric.drops_injected' "$OUT/rel_loss_sweep.out"
# Every experiment takes --trace-out; one without spans writes an empty
# trace, which must still be valid JSON.
$DUNE exec bin/portals_repro.exe -- \
  rel-loss-sweep --trace-out "$OUT/rel_loss_sweep.trace.json" > /dev/null
python3 -c "import json; json.load(open('$OUT/rel_loss_sweep.trace.json'))"

echo "== smoke: crash campaign (one mid-run restart, fixed seed) =="
# Both backends through the identical crash + restart schedule; the run
# must terminate (no deadlock) and print one row each.
$DUNE exec bin/portals_repro.exe -- \
  crash-restart --seed 42 | tee "$OUT/crash_restart.out"
grep -q '^portals ' "$OUT/crash_restart.out"
grep -q '^gm ' "$OUT/crash_restart.out"
# The campaign drives Scheduler.kill_domain, so its whole table is pinned
# byte for byte: a change to how blocked fibers are killed or woken that
# moves any row fails here.
check_sha "$OUT/crash_restart.out" \
  f1c566739fc4aecdae813c4d18e5133634839eee684b7a9d8e23a6d95a8e5f70 \
  "crash-restart --seed 42"
# The same schedule on a lossy, flapping wire: crash recovery must
# compose with the wire fault models.
$DUNE exec bin/portals_repro.exe -- \
  crash-restart --seed 42 --fault "bernoulli:0.02+flap:400:40" \
  | tee "$OUT/crash_restart_flap.out"
check_sha "$OUT/crash_restart_flap.out" \
  8029f622e5ead0675bc62bfb184157459e62adc919fb14ad24a0be3282becdf3 \
  "crash-restart --seed 42 --fault bernoulli:0.02+flap:400:40"

echo "== smoke: topology congestion sweep (4x4 torus, fixed seed) =="
# Both traffic patterns over the shared-link torus; the per-link
# queue-depth instruments must reach the metrics registry.
$DUNE exec bin/portals_repro.exe -- \
  congestion --nodes 16 --topologies torus2d:4x4 --seed 7 --metrics \
  | tee "$OUT/congestion.out"
grep -q '^torus2d:4x4 *nearest-neighbor' "$OUT/congestion.out"
grep -q '^torus2d:4x4 *all-to-all' "$OUT/congestion.out"
grep -q 'link.queue_depth' "$OUT/congestion.out"
# Every routed shape, pinned byte for byte: the table and every per-link
# metric (its label, its place in the snapshot and its queue depth) show
# the link ids, names and routes the topology and router compute.
$DUNE exec bin/portals_repro.exe -- \
  congestion --nodes 16 --topologies torus2d:4x4,torus3d:2x2x4,fattree:4,ring \
  --seed 7 --metrics > "$OUT/congestion_routed.out"
check_sha "$OUT/congestion_routed.out" \
  417520797a6752d31ab89cf57d82f4116a81bcc763cbbd3cfc95b022e4a1ad31 \
  "congestion --nodes 16 --topologies torus2d:4x4,torus3d:2x2x4,fattree:4,ring"
# Multi-hop routing composes with wire loss, the reliability shim and a
# bounded hop queue: the fig6 sweep must still terminate and report.
$DUNE exec bin/portals_repro.exe -- \
  fig6 --topology ring --queue-limit 4 --loss 0.02 --seed 42 \
  | tee "$OUT/fig6_ring_lossy.out"
grep -q 'Portals3.0-MCP' "$OUT/fig6_ring_lossy.out"

echo "== smoke: cross-stack benchmark matrix (2 transports x 2 axes) =="
# One host-progress stack and one offload stack through the same two
# axes at a fixed seed; rows must appear for both.
$DUNE exec bin/portals_repro.exe -- \
  matrix --quick --seed 42 --transports portals,ibverbs \
  --axes latency,overlap | tee "$OUT/matrix.out"
grep -q '^portals ' "$OUT/matrix.out"
grep -q '^ibverbs ' "$OUT/matrix.out"
# A malformed --transports list must die with a clean usage error.
if $DUNE exec bin/portals_repro.exe -- matrix --transports bogus \
    2>"$OUT/matrix.err"; then
  echo "matrix accepted a bogus transport list" >&2
  exit 1
fi
grep -q 'unknown transport' "$OUT/matrix.err"

echo "== smoke: one-sided RMA workloads (4x4 torus + lossy wire) =="
# The 16-rank window workloads pinned onto a shared-link torus at a
# fixed seed: the halo result must be byte-identical to the send/recv
# variant and the hash table's occupancy counter must agree with its
# filled slots.
$DUNE exec bin/portals_repro.exe -- \
  rma --quick --seed 7 --workloads halo,hashtable \
  --topology torus2d:4x4 | tee "$OUT/rma.out"
grep -q 'byte-identical' "$OUT/rma.out"
grep -q 'occupancy' "$OUT/rma.out"
# This clean multi-hop run carries CAS, fetch-add and get through the
# target NI's request path, so its table is pinned byte for byte, and
# two domains must print the same bytes.
check_sha "$OUT/rma.out" \
  ca9d159ff5548dbdb493769c733587f9d9de4052a5a9bec4ab5b865abae40966 \
  "rma --quick --seed 7 --workloads halo,hashtable --topology torus2d:4x4"
$DUNE exec bin/portals_repro.exe -- \
  rma --quick --seed 7 --workloads halo,hashtable \
  --topology torus2d:4x4 --domains 2 > "$OUT/rma.d2.out"
cmp "$OUT/rma.out" "$OUT/rma.d2.out"
# The atomics must stay exactly-once over a lossy wire with the
# reliability shim attached.
$DUNE exec bin/portals_repro.exe -- \
  rma --quick --seed 42 --workloads latency,passive --loss 0.05 \
  | tee "$OUT/rma_lossy.out"
grep -q '^passive ' "$OUT/rma_lossy.out"
# --loss P is sugar for the spec bernoulli:P: the run is pinned, and the
# spellings must print the same bytes.
check_sha "$OUT/rma_lossy.out" \
  47f571b9c0c670df6f7c6186098a575c21e2f2430f3e3d7fdeadf63151bdff10 \
  "rma --quick --seed 42 --workloads latency,passive --loss 0.05"
$DUNE exec bin/portals_repro.exe -- \
  rma --quick --seed 42 --workloads latency,passive \
  --fault bernoulli:0.05 > "$OUT/rma_lossy_spec.out"
cmp "$OUT/rma_lossy.out" "$OUT/rma_lossy_spec.out"
# A malformed --workloads list must die with a clean usage error.
if $DUNE exec bin/portals_repro.exe -- rma --workloads bogus \
    2>"$OUT/rma.err"; then
  echo "rma accepted a bogus workload list" >&2
  exit 1
fi
grep -q 'unknown workload' "$OUT/rma.err"

echo "== smoke: chaos campaign (fixed seed, zero violations) =="
# One cell per fault axis plus the mixed cell, invariants checked after
# every cell; the report artifact is what CI uploads.
$DUNE exec bin/portals_repro.exe -- \
  chaos --quick --seed 0 --json "$OUT/chaos.json" | tee "$OUT/chaos.out"
grep -q 'total violations: 0' "$OUT/chaos.out"
python3 -c "import json; json.load(open('$OUT/chaos.json'))"

echo "== smoke: full chaos grid at seeds 0-49 (zero violations) =="
# All 32 cells of the corruption x delay x partition x crash x loss grid,
# at fifty seeds: corruption holes show at some seeds only (damaged shim
# frames once surfaced at 54 of seeds 0-99). About 0.07 s a seed, so the
# loop calls the built executable instead of dune exec.
$DUNE build bin/portals_repro.exe
for seed in $(seq 0 49); do
  if ! _build/default/bin/portals_repro.exe chaos --seed "$seed" \
      >"$OUT/chaos_full.out" \
      || ! grep -q '^total violations: 0$' "$OUT/chaos_full.out"; then
    echo "full chaos grid violated at --seed $seed:" >&2
    grep -i 'violat' "$OUT/chaos_full.out" >&2 || true
    exit 1
  fi
done
# Each cell's worlds are built from the scenarios it is written out as;
# the whole report at seed 0 is pinned byte for byte.
_build/default/bin/portals_repro.exe chaos --seed 0 > "$OUT/chaos_full.s0.out"
check_sha "$OUT/chaos_full.s0.out" \
  6df806996ae04289127e78c317e941dd9f03067a3daa9da7465d658e55b4e47e \
  "chaos --seed 0"
# Corruption + a scheduled cut + a crash composed on a routed 4x4 torus:
# per-hop corruption under the checksummed encoding, a mid-run
# partition, and a node restart must still leave both traffic patterns
# reporting (the reliability shim recovers everything recoverable).
$DUNE exec bin/portals_repro.exe -- \
  congestion --nodes 16 --topologies torus2d:4x4 --seed 7 \
  --fault "corrupt:0.01+partition:0.1|2.3@400:900" --crash "5@300:700" \
  | tee "$OUT/chaos_torus.out"
grep -q '^torus2d:4x4 *nearest-neighbor' "$OUT/chaos_torus.out"
grep -q '^torus2d:4x4 *all-to-all' "$OUT/chaos_torus.out"
# A malformed fault spec must die with a clean usage error naming the
# offending component, never be clamped into something runnable.
for bad in "corrupt:2" "delay:10:20" "partition:0|1@50:20"; do
  if $DUNE exec bin/portals_repro.exe -- congestion --fault "$bad" \
      2>"$OUT/chaos_spec.err"; then
    echo "accepted malformed fault spec: $bad" >&2
    exit 1
  fi
  grep -q 'bad fault spec' "$OUT/chaos_spec.err"
done

echo "== smoke: NIC-offloaded collectives (4x4 torus, fixed seed) =="
# The triggered-chain engine must agree with the host-driven reference
# byte for byte on a routed torus, and the quick latency table — busy
# host cells included — must terminate and show both engines.
$DUNE exec bin/portals_repro.exe -- \
  coll --check --seed 7 | tee "$OUT/coll_check.out"
grep -q 'host and nic agree' "$OUT/coll_check.out"
$DUNE exec bin/portals_repro.exe -- \
  coll --quick --seed 7 | tee "$OUT/coll.out"
grep -q '^torus2d .* busy  nic' "$OUT/coll.out"
grep -q '^torus2d .* busy  host' "$OUT/coll.out"
# Simulated latencies are deterministic: the table is pinned byte for
# byte, so any drift in either engine's timing fails here. A change that
# means to move them updates the digest and says why.
check_sha "$OUT/coll.out" \
  dde717895ef0aeb1373f32210aaae170ffc8196c930af08b9166314c2da39f43 \
  "coll --quick --seed 7"
# All four stacks share one MPI engine (Mpi_core): GM and ibverbs match
# in the library (Mpi_libmatch), Portals and the RTS/CTS stack in the NI.
# Each pair is pinned over every matrix axis the same way, so a change to
# the shared engine that moves any stack's timing fails here.
$DUNE exec bin/portals_repro.exe -- \
  matrix --quick --seed 42 --transports gm,ibverbs | tee "$OUT/matrix_lib.out"
check_sha "$OUT/matrix_lib.out" \
  b226f3fea0dc865ae1b2a766b2a96b3419ed898bd54f03f1d4a6ad95ba4aa886 \
  "matrix --quick --seed 42 --transports gm,ibverbs"
$DUNE exec bin/portals_repro.exe -- \
  matrix --quick --seed 42 --transports portals,rtscts \
  | tee "$OUT/matrix_ni.out"
check_sha "$OUT/matrix_ni.out" \
  17300485881a4aacfa7b6c1da05d67c497dc88e332a1734014db21a34dfbf182 \
  "matrix --quick --seed 42 --transports portals,rtscts"
# The S2 scaling sweep must run under either engine; a bogus engine name
# must die with a clean usage error.
$DUNE exec bin/portals_repro.exe -- \
  collectives --collectives nic --nodes 2,4,8 | tee "$OUT/coll_s2.out"
grep -q '^8 ' "$OUT/coll_s2.out"
if $DUNE exec bin/portals_repro.exe -- coll --collectives bogus \
    2>"$OUT/coll.err"; then
  echo "coll accepted a bogus collectives engine" >&2
  exit 1
fi
grep -q 'unknown collectives engine' "$OUT/coll.err"

echo "== smoke: parallel determinism (--domains 1 vs 4, fixed seeds) =="
# The parallel engine's contract: same seed, same world => byte-identical
# output at any domain count. The headline figure, the chaos quick grid
# (faults, partitions, crashes and RMA included) and the PAR delivery
# digest must all match the sequential reference exactly.
$DUNE exec bin/portals_repro.exe -- fig6 --seed 42 > "$OUT/fig6.d1.out"
$DUNE exec bin/portals_repro.exe -- fig6 --seed 42 --domains 4 \
  > "$OUT/fig6.d4.out"
diff "$OUT/fig6.d1.out" "$OUT/fig6.d4.out"
# The merged metrics snapshot must not depend on the domain count
# either: per-node gauges come from their owner shard, per-replica
# totals are summed. sched.heap_peak is the one per-shard engine fact
# (documented at Runtime.metrics_snapshot in lib/runtime/world.mli), so
# it is left out by name.
$DUNE exec bin/portals_repro.exe -- fig6 --seed 42 --metrics=json \
  | grep -v '"name":"sched.heap_peak"' > "$OUT/fig6.metrics.d1.out"
$DUNE exec bin/portals_repro.exe -- fig6 --seed 42 --domains 4 --metrics=json \
  | grep -v '"name":"sched.heap_peak"' > "$OUT/fig6.metrics.d4.out"
diff "$OUT/fig6.metrics.d1.out" "$OUT/fig6.metrics.d4.out"
# So must the trace: every shard records its own nodes' spans, and the
# merged trace orders them the same way at any domain count.
for d in 1 2 4; do
  $DUNE exec bin/portals_repro.exe -- fig6 --seed 42 --domains $d \
    --trace-out "$OUT/fig6.trace.d$d.json" > /dev/null
done
cmp "$OUT/fig6.trace.d1.json" "$OUT/fig6.trace.d2.json"
cmp "$OUT/fig6.trace.d1.json" "$OUT/fig6.trace.d4.json"
$DUNE exec bin/portals_repro.exe -- chaos --quick --seed 0 \
  > "$OUT/chaos.d1.out"
$DUNE exec bin/portals_repro.exe -- chaos --quick --seed 0 --domains 4 \
  > "$OUT/chaos.d4.out"
diff "$OUT/chaos.d1.out" "$OUT/chaos.d4.out"
$DUNE exec bin/portals_repro.exe -- par --check --domains 4 --seed 7 \
  | tee "$OUT/par.out"
grep -q 'domains=1 and domains=4 agree' "$OUT/par.out"
# Both sides of those diffs run the same event queue, so a change that
# reorders events everywhere moves them together and passes. The outputs
# are therefore also pinned to their known values: simultaneous events
# must still fire in (time, insertion) order.
check_sha "$OUT/fig6.d1.out" \
  cbbb37d5642f3bb40a5dca0cd121bff5af138432226b6089f41cebfd9e855520 \
  "fig6 --seed 42"
check_sha "$OUT/chaos.d1.out" \
  bd93d54b6c40287841d8d9fcbefef29e2b6653008503f5dc126e4583d2fa3c8d \
  "chaos --quick --seed 0"
par_line='  PAR nodes=256 steps=8 delivered=8192 digest=020618001e15c26c sim_us=401.4'
if [ "$(grep '^  PAR ' "$OUT/par.out" | sort -u)" != "$par_line" ]; then
  echo "par --check --domains 4 --seed 7 PAR line drifted:" >&2
  grep '^  PAR ' "$OUT/par.out" >&2
  exit 1
fi

echo "== smoke: the all report (fixed seed) =="
# Every registry entry with a section, in registry order: the whole
# report is pinned byte for byte.
$DUNE exec bin/portals_repro.exe -- all --seed 0 > "$OUT/all.out"
check_sha "$OUT/all.out" \
  1db9b73fc53d43e40dcbf4d77dfd166264b0b228e70dde6f30a2a96178575912 \
  "all --seed 0"

echo "== smoke: EXPERIMENTS.md blocks match the commands that print them =="
# Each result in EXPERIMENTS.md is a block spliced from the subcommand
# named above it; any difference between a block and what its command
# prints fails here (make doc-blocks rewrites them).
$DUNE build bin/portals_repro.exe
python3 scripts/doc_blocks.py
# The check bites: a copy with one digit changed inside every block
# must fail it with exit 1 and a diff for each block, not pass or die on
# usage (exit 2).
python3 - EXPERIMENTS.md > "$OUT/experiments_mutated.md" <<'EOF'
import re, sys

lines = open(sys.argv[1]).read().splitlines(keepends=True)
bump = lambda m: str((int(m.group()) + 1) % 10)
for n, line in enumerate(lines):
    if line.startswith("<!-- portals_repro "):
        i = n + 2
        while not re.search(r"[0-9]", lines[i]):
            i += 1
        lines[i] = re.sub(r"[0-9]", bump, lines[i], count=1)
sys.stdout.writelines(lines)
EOF
status=0
python3 scripts/doc_blocks.py "$OUT/experiments_mutated.md" \
  > "$OUT/doc_blocks.diff" 2>&1 || status=$?
if [ "$status" -ne 1 ] \
    || ! grep -qE ': ([0-9]+) of \1 blocks differ' "$OUT/doc_blocks.diff"; then
  echo "doc_blocks.py missed a changed digit (exit $status, want 1):" >&2
  tail -n 1 "$OUT/doc_blocks.diff" >&2
  exit 1
fi

echo "== smoke: bench records match the baseline's sim fields exactly =="
# sim_events, fibers and sim_time_us are deterministic, so every record
# must match bench/baseline.json exactly, on any compiler. A drift here
# is a behaviour change (or a determinism bug), never noise.
$DUNE exec bin/portals_repro.exe -- \
  bench --json "$OUT/bench.json" --baseline bench/baseline.json \
  > "$OUT/bench.out"
# A doctored baseline must fail the gate (exit 1) and name the record:
# one with a changed sim_events, one with a record deleted.
sed '/"id": "F5"/s/"sim_events": [0-9]*/"sim_events": 1/' \
  bench/baseline.json > "$OUT/baseline_events.json"
sed '/"id": "CH.mix"/d' bench/baseline.json > "$OUT/baseline_missing.json"
for doctored in events:F5 missing:CH.mix; do
  file="$OUT/baseline_${doctored%%:*}.json"
  status=0
  $DUNE exec bin/portals_repro.exe -- bench --baseline "$file" \
    > /dev/null 2> "$OUT/bench_gate.err" || status=$?
  if [ "$status" -ne 1 ]; then
    echo "bench gate exited $status against $file (want 1)" >&2
    exit 1
  fi
  grep -qF "DRIFT ${doctored#*:}" "$OUT/bench_gate.err"
done
# A baseline the reader cannot read is a usage failure: exit 2.
head -c 200 bench/baseline.json > "$OUT/baseline_truncated.json"
status=0
$DUNE exec bin/portals_repro.exe -- \
  bench --baseline "$OUT/baseline_truncated.json" 2> /dev/null || status=$?
if [ "$status" -ne 2 ]; then
  echo "bench gate exited $status on a truncated baseline (want 2)" >&2
  exit 1
fi

echo "== smoke: examples print their pinned bytes =="
# Every example is a deterministic simulation; each one's stdout is
# pinned byte for byte.
while read -r example digest; do
  $DUNE exec "examples/$example.exe" < /dev/null > "$OUT/example_$example.out"
  check_sha "$OUT/example_$example.out" "$digest" "examples/$example"
done <<'PINS'
quickstart ee7c8326a0e55894cdd2d58d729e5db0a774d48de9120150d57b71f4acf0e261
halo_exchange 4e9de439e27a484045a5d11e614b2d667a7b7e5dbf79c8f2748b4ae2ae1b8bed
halo_exchange_rma c856e854578b2859db6680ada960fd6716e320faae8f2d109db4e0e15da5e980
io_server 647257c5673b86bf98b2aa5a51bc03cd6d53e7a12cda7680b7d7466c31f7d234
shmem_counters 58ada5ad4e05da2dbf8e16479bff775f4c5205b36a3ef7035a7431ee9e4e9a95
PINS

echo "== smoke: help pages render without markup errors =="
# cmdliner reports a bad escape in a doc string as a "cmdliner error"
# line on stderr and prints the page anyway, so only a grep catches it.
for cmd in par chaos fig6 bench; do
  $DUNE exec bin/portals_repro.exe -- "$cmd" --help=plain \
    > "$OUT/$cmd.help" 2>&1
  if grep -q 'cmdliner error' "$OUT/$cmd.help"; then
    grep 'cmdliner error' "$OUT/$cmd.help" >&2
    exit 1
  fi
done

echo "== smoke: ok =="
