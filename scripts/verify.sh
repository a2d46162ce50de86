#!/usr/bin/env bash
# Tier-1 verification: build, test, and re-run every experiment, fully
# offline. This is the command the CI gate runs; it must succeed in a
# network-isolated container (the workspace has no registry
# dependencies — see tests/no_registry_deps.rs).
#
# Usage: scripts/verify.sh
#   SL_THREADS=N   bound the worker count of the parallel sweeps
#
# Besides the fault-free tier-1 run, this script drills the
# fault-tolerant execution layer: the test suite and experiment sweeps
# must stay green under a deterministic seeded fault drill
# (SL_FAULT_RATE/SL_FAULT_SEED), degrading gracefully instead of
# aborting, and the parallel experiment tables must be byte-identical
# at any worker count.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline

echo "== tests (offline) =="
# Every workspace package (root Cargo.toml `default-members`), including
# the engine-vs-oracle differential suite tests/inclusion_engines.rs.
cargo test -q --offline

echo "== experiments E1-E11 =="
cargo build --release --offline --workspace --bins
for exp in e1_rem_linear e2_figure1 e3_figure2 e4_decomposition \
           e5_buchi_decomposition e6_rem_branching e7_impossibility \
           e8_rabin e9_extremal e10_closure_ablation; do
  echo "-- $exp"
  "./target/release/$exp"
done

echo "== inclusion: E11 smoke (on-the-fly engine vs rank oracle) =="
# E11 smoke: few samples, short warmup; the binary itself fails if the
# engine and the oracle disagree or the engine loses its >=5x headroom.
incl_tmp="$(mktemp -d)"
echo "-- e11_inclusion_engines (smoke)"
SL_BENCH_SAMPLES=5 SL_BENCH_WARMUP_MS=10 SL_BENCH_JSON_DIR="$incl_tmp" \
  ./target/release/e11_inclusion_engines
# The JSON artifact must exist, parse as the flat BENCH shape, and show
# the on-the-fly engine (cold quotient cache per pass) no worse than 2x
# the rank-based median anywhere.
python3 - "$incl_tmp/BENCH_incl.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["suite"] == "incl", doc
records = {r["name"]: r for r in doc["records"]}
for name, r in records.items():
    assert r["median_ns"] > 0 and r["samples"] > 0, (name, r)
for suite in ("incl", "univ"):
    fly = records[f"{suite}/onthefly/corpus"]["median_ns"]
    rank = records[f"{suite}/rank_uncached/corpus"]["median_ns"]
    assert fly <= 2 * rank, f"{suite}: onthefly {fly}ns loses >2x to rank {rank}ns"
print(f"BENCH_incl.json ok: incl speedup "
      f"{records['incl/rank_uncached/corpus']['median_ns'] / records['incl/onthefly/corpus']['median_ns']:.1f}x, "
      f"univ speedup "
      f"{records['univ/rank_uncached/corpus']['median_ns'] / records['univ/onthefly/corpus']['median_ns']:.1f}x")
PY
rm -rf "$incl_tmp"

echo "== service: golden transcript, fault drill, E12 smoke =="
# The daemon must reproduce the golden transcript byte-for-byte at any
# worker count: intake, cache probes, and commits are sequential; only
# the batch fan-out is parallel, and its results are committed in item
# order. `diff -u` fails on any byte difference and prints the drifted
# line (a `stats` counter that moved shows up in full).
svc_tmp="$(mktemp -d)"
for t in 1 2 8; do
  echo "-- sld golden transcript (SL_THREADS=$t)"
  SL_THREADS=$t ./target/release/sld --stdin < scripts/service_session.jsonl \
    > "$svc_tmp/session_t$t.out"
  diff -u scripts/service_session.golden "$svc_tmp/session_t$t.out"
done
# Under the seeded fault drill the daemon degrades per-request — typed
# error responses, never a dead process: exit 0 and one response line
# per request line.
echo "-- sld fault drill (SL_FAULT_RATE=0.05, seeded)"
SL_FAULT_RATE=0.05 SL_FAULT_SEED=2003 ./target/release/sld --stdin \
  < scripts/service_session.jsonl > "$svc_tmp/session_drill.out"
req_lines="$(grep -c . scripts/service_session.jsonl)"
drill_lines="$(grep -c . "$svc_tmp/session_drill.out")"
if [ "$req_lines" != "$drill_lines" ]; then
  echo "sld fault drill dropped responses: $drill_lines/$req_lines" >&2
  exit 1
fi
echo "sld drill: $drill_lines/$req_lines responses, exit 0"
# E12 smoke: the binary fails itself if any scripted response errors,
# the cache is not transparent, or cache hits lose to recomputation.
echo "-- e12_service_throughput (smoke)"
SL_BENCH_SAMPLES=5 SL_BENCH_WARMUP_MS=10 SL_BENCH_JSON_DIR="$svc_tmp" \
  ./target/release/e12_service_throughput
python3 - "$svc_tmp/BENCH_svc.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["suite"] == "svc", doc
records = {r["name"]: r for r in doc["records"]}
for name in ("svc/define/hoa", "svc/include/cold", "svc/include/warm",
             "svc/batch/fanout", "svc/mc/clients1", "svc/mc/clients2",
             "svc/mc/clients4", "svc/mc/clients8"):
    r = records[name]
    assert r["median_ns"] > 0 and r["samples"] > 0, (name, r)
cold = records["svc/include/cold"]["median_ns"]
warm = records["svc/include/warm"]["median_ns"]
assert warm < cold, f"cache hits ({warm}ns) must beat recomputation ({cold}ns)"
# The multi-client saturation gate: 8 concurrent clients must deliver
# at least 3x the aggregate throughput of 1 (shared sharded caches +
# singleflight dedup the cold compute across connections, so this
# holds even on one core). Aggregate rps_n = n * reqs / t_n, so the
# bar rps_8 >= 3 * rps_1 is exactly 8 * t_1 >= 3 * t_8.
mc1 = records["svc/mc/clients1"]["median_ns"]
mc8 = records["svc/mc/clients8"]["median_ns"]
assert 8 * mc1 >= 3 * mc8, \
    f"8-client aggregate throughput only {8 * mc1 / mc8:.1f}x of 1-client (need >=3x)"
queries = 28  # the e12 query script: 24 inclusion pairs + 4 universality probes
print(f"BENCH_svc.json ok: cache-hit speedup {cold / warm:.1f}x, "
      f"warm {queries / (warm / 1e9):,.0f} requests/sec, "
      f"multi-client scaling {8 * mc1 / mc8:.1f}x at 8 clients")
PY
rm -rf "$svc_tmp"

echo "== concurrency: multi-client transcripts, stress, SIGKILL drill =="
# Every connection's transcript must be byte-identical to a solo run
# of the same script no matter how many clients share the daemon —
# at both worker counts, since the batch fan-out rides the same pool.
for t in 1 8; do
  echo "-- multi-client stress (release, SL_THREADS=$t)"
  SL_THREADS=$t cargo test -q --offline --release --test concurrency
done
# SIGKILL the real binary with three live connections mid-flight: the
# interleaved journal must recover and keep every acknowledged
# mutation, and each client's received stream must be a byte-prefix
# of its solo twin.
echo "-- concurrent SIGKILL drill (release)"
cargo test -q --offline --release -p sl-service --test concurrent_crash

echo "== monitor: compiled fast path golden + E13 smoke =="
# monitor-step sessions on safety targets ride the compiled dense-table
# fleet; the golden transcript pins the wire behavior (verdict streams,
# sticky unknown, atomic budget rejection, target-mismatch errors) at
# any worker count.
mon_tmp="$(mktemp -d)"
for t in 1 8; do
  echo "-- sld monitor transcript (SL_THREADS=$t)"
  SL_THREADS=$t ./target/release/sld --stdin < scripts/monitor_session.jsonl \
    > "$mon_tmp/monitor_t$t.out"
  diff -u scripts/monitor_session.golden "$mon_tmp/monitor_t$t.out"
done
# E13 smoke: the binary fails itself if the three steppers disagree on
# any verdict, the fleet diverges from lone monitors, or the compiled
# table loses its >=10x headroom over the NFA-set baseline.
echo "-- e13_monitor_throughput (smoke)"
SL_BENCH_SAMPLES=5 SL_BENCH_WARMUP_MS=10 SL_BENCH_JSON_DIR="$mon_tmp" \
  ./target/release/e13_monitor_throughput
python3 - "$mon_tmp/BENCH_monitor.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["suite"] == "monitor", doc
records = {r["name"]: r for r in doc["records"]}
for name in ("monitor/nfa_set/safety", "monitor/subset/safety",
             "monitor/compiled/safety", "monitor/fleet/batch"):
    r = records[name]
    assert r["median_ns"] > 0 and r["samples"] > 0, (name, r)
nfa = records["monitor/nfa_set/safety"]["median_ns"]
compiled = records["monitor/compiled/safety"]["median_ns"]
ratio = nfa / compiled
assert ratio >= 10, f"compiled path only {ratio:.1f}x over the NFA-set baseline"
steps = 10_000  # the e13 trace length
print(f"BENCH_monitor.json ok: compiled {ratio:.1f}x over nfa_set, "
      f"{steps / (compiled / 1e9):,.0f} steps/sec")
PY
rm -rf "$mon_tmp"

echo "== conformance: corpus replay + differential fuzz + sabotage drill =="
# The conformance fuzzer cross-checks every engine against the paper's
# theorems: corpus replay first (regressions stay fixed forever), then a
# fixed-seed fuzz run of >=1000 cases per oracle under a wall-clock
# budget, gated on the JSON stats artifact.
conf_tmp="$(mktemp -d)"
echo "-- corpus replay (scripts/conform_corpus.jsonl)"
./target/release/slfuzz --corpus scripts/conform_corpus.jsonl --corpus-only
echo "-- fixed-seed fuzz (seed 2003, 1000 cases/oracle)"
./target/release/slfuzz --seed 2003 --cases 1000 --max-seconds 420 \
  --corpus scripts/conform_corpus.jsonl \
  --stable --stats-dir "$conf_tmp"
python3 - "$conf_tmp/BENCH_conform.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["suite"] == "conform" and doc["seed"] == 2003, doc
assert not doc["truncated"], "fuzz run blew its 420s wall-clock budget"
for o in doc["oracles"]:
    run = o["cases"]
    assert run >= 1000, f"{o['name']}: only {run} cases"
    assert o["passed"] + o["accepted_budget"] == run, o
    assert o["failures"] == 0, f"{o['name']}: {o['failures']} failures"
    # Budget-exhaustion acceptances must stay a sliver, not a loophole.
    acc = o["accepted_budget"]
    assert acc <= run // 10, f"{o['name']}: {acc} accepted"
assert doc["findings"] == [], doc["findings"]
names = sorted(o["name"] for o in doc["oracles"])
assert names == ["compiled", "crash", "hoa", "incl", "incl3", "lattice", "monitor",
                 "pdr", "session"], names
print(f"BENCH_conform.json ok: {sum(o['cases'] for o in doc['oracles'])} "
      f"cases across {len(names)} oracles, 0 findings")
PY
# The --stable artifact must be byte-identical run-to-run and at any
# thread count (the session oracle pins its own SL_THREADS internally).
echo "-- determinism (seed 2003 at SL_THREADS=1,8)"
for t in 1 8; do
  SL_THREADS=$t ./target/release/slfuzz --seed 2003 --cases 200 \
    --stable --stats "$conf_tmp/det_t$t.json" > /dev/null
done
cmp "$conf_tmp/det_t1.json" "$conf_tmp/det_t8.json"
echo "conform artifact byte-identical at SL_THREADS=1,8"
# Sabotage drill: with the on-the-fly search's antichain subsumption
# deliberately broken, the incl oracle (engine vs rank) must catch the
# bug (exit 1) and shrink it to <=8 states.
echo "-- sabotage drill (antichain-subsumption)"
if ./target/release/slfuzz --seed 2003 --cases 200 --oracle incl \
     --sabotage antichain-subsumption --stable \
     --stats "$conf_tmp/sabotage.json" > /dev/null 2>&1; then
  echo "sabotage drill NOT caught: slfuzz exited 0 with a broken engine" >&2
  exit 1
fi
python3 - "$conf_tmp/sabotage.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
findings = doc["findings"]
assert findings, "sabotage run produced no findings"
smallest = min(f["weight"] for f in findings)
assert smallest <= 8, f"smallest shrunk reproducer weight {smallest} > 8"
print(f"sabotage drill ok: {len(findings)} findings, "
      f"smallest shrunk reproducer weight {smallest}")
PY
rm -rf "$conf_tmp"

echo "== scale: quotient-session golden, E16 scaling gate, dirty-SCC drill =="
scale_tmp="$(mktemp -d)"
# The redefine-heavy session golden pins the quotient cache's wire
# behavior (hits, invalidations, dirty/clean SCC counters in stats)
# at any worker count.
for t in 1 8; do
  echo "-- sld quotient-session transcript (SL_THREADS=$t)"
  SL_THREADS=$t ./target/release/sld --stdin < scripts/quotient_session.jsonl \
    > "$scale_tmp/quotient_t$t.out"
  diff -u scripts/quotient_session.golden "$scale_tmp/quotient_t$t.out"
done
# E16: the scale sweep. The binary fails itself if the engine misses the
# known verdict on any padded pair, an advance diverges from a scratch
# quotient, or the lazy series outgrows its scaling bound; the JSON gate
# re-checks the medians independently.
echo "-- e16_scale (scaling + redefine-reuse gate)"
SL_BENCH_SAMPLES=3 SL_BENCH_WARMUP_MS=10 SL_BENCH_JSON_DIR="$scale_tmp" \
  ./target/release/e16_scale
python3 - "$scale_tmp/BENCH_scale.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["suite"] == "scale", doc
records = {r["name"]: r for r in doc["records"]}
for name, r in records.items():
    assert r["median_ns"] > 0 and r["samples"] > 0, (name, r)
# The scaling bars: under 100x per decade on the structured series rules
# out cubic-per-pass growth (1000x per decade of raw states), though not
# quadratic growth with a fixed cost; under 100x across the random
# series' two decades also rules out quadratic growth (10000x).
med = lambda name: records[name]["median_ns"]
struct_growth = med("incl/lazy/struct/10000") / med("incl/lazy/struct/1000")
rand_growth = med("incl/lazy/rand/100000") / med("incl/lazy/rand/1000")
assert struct_growth < 100, f"structured series grew {struct_growth:.0f}x over one decade"
assert rand_growth < 100, f"random series grew {rand_growth:.0f}x over two decades"
# The quotient-reuse bar on the redefine-heavy session.
scratch = records["redefine/scratch/chain1000"]["median_ns"]
incr = records["redefine/incremental/chain1000"]["median_ns"]
assert incr < scratch, f"incremental ({incr}ns) loses to scratch ({scratch}ns)"
print(f"BENCH_scale.json ok: lazy growth {struct_growth:.1f}x per decade (struct), "
      f"{rand_growth:.1f}x over two decades (rand), redefine reuse {scratch / incr:.1f}x")
PY
# Sabotage drill: with per-SCC dirty tracking deliberately broken the
# incl3 oracle's incremental-vs-scratch drill must catch the
# stale-quotient bug (exit 1) and shrink the reproducer.
echo "-- sabotage drill (dirty-scc-invalidation)"
if ./target/release/slfuzz --seed 2003 --cases 200 --oracle incl3 \
     --sabotage dirty-scc-invalidation --stable \
     --stats "$scale_tmp/sabotage_scc.json" > /dev/null 2>&1; then
  echo "sabotage drill NOT caught: slfuzz exited 0 with broken dirty tracking" >&2
  exit 1
fi
python3 - "$scale_tmp/sabotage_scc.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
findings = doc["findings"]
assert findings, "dirty-scc sabotage run produced no findings"
smallest = min(f["weight"] for f in findings)
assert smallest <= 8, f"smallest shrunk reproducer weight {smallest} > 8"
print(f"dirty-scc sabotage drill ok: {len(findings)} findings, "
      f"smallest shrunk reproducer weight {smallest}")
PY
rm -rf "$scale_tmp"

echo "== pdr: check golden, E15 gate, pdr-oracle fuzz, sabotage drill =="
pdr_tmp="$(mktemp -d)"
# The check-verb golden transcript must be byte-identical at any worker
# count: check is a pure query, cached and unjournaled, so the wire
# behavior cannot depend on the pool.
for t in 1 8; do
  echo "-- sld check transcript (SL_THREADS=$t)"
  SL_THREADS=$t ./target/release/sld --stdin < scripts/check_session.jsonl \
    > "$pdr_tmp/check_t$t.out"
  diff -u scripts/check_session.golden "$pdr_tmp/check_t$t.out"
done
# E15 smoke: the binary fails itself if PDR and deepening BMC disagree
# on any sweep size, a certificate fails replay, or PDR loses the
# 12-bit point; the JSON gate re-checks the medians independently.
echo "-- e15_pdr (smoke)"
SL_BENCH_SAMPLES=5 SL_BENCH_WARMUP_MS=10 SL_BENCH_JSON_DIR="$pdr_tmp" \
  ./target/release/e15_pdr
python3 - "$pdr_tmp/BENCH_pdr.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["suite"] == "pdr", doc
records = {r["name"]: r for r in doc["records"]}
for name, r in records.items():
    assert r["median_ns"] > 0 and r["samples"] > 0, (name, r)
sizes = sorted(int(n.rsplit("/", 1)[1]) for n in records
               if n.startswith("pdr/fenced/"))
big = [n for n in sizes if n >= 1 << 12]
assert big, f"sweep never reached the 12-bit point: {sizes}"
for n in big:
    pdr = records[f"pdr/fenced/{n}"]["median_ns"]
    bmc = records[f"bmc/fenced/{n}"]["median_ns"]
    assert pdr < bmc, f"PDR ({pdr}ns) loses to deepening BMC ({bmc}ns) at n={n}"
top = max(big)
speedup = records[f"bmc/fenced/{top}"]["median_ns"] / records[f"pdr/fenced/{top}"]["median_ns"]
print(f"BENCH_pdr.json ok: PDR beats deepening BMC {speedup:.0f}x at n={top}")
PY
# The pdr oracle re-runs isolated so a PDR regression is named as such:
# corpus replay plus a fixed-seed differential sweep against the
# independent BMC reference.
echo "-- pdr-oracle corpus + fixed-seed sweep (1000 cases)"
./target/release/slfuzz --seed 2003 --cases 1000 --oracle pdr \
  --corpus scripts/conform_corpus.jsonl
# Sabotage drill: with the relative-induction check deliberately broken
# the fuzzer must catch the bug (exit 1) and shrink the reproducer.
echo "-- sabotage drill (pdr-relative-induction)"
if ./target/release/slfuzz --seed 2003 --cases 200 --oracle pdr \
     --sabotage pdr-relative-induction --stable \
     --stats "$pdr_tmp/sabotage_pdr.json" > /dev/null 2>&1; then
  echo "sabotage drill NOT caught: slfuzz exited 0 with broken relative induction" >&2
  exit 1
fi
python3 - "$pdr_tmp/sabotage_pdr.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
findings = doc["findings"]
assert findings, "pdr sabotage run produced no findings"
smallest = min(f["weight"] for f in findings)
assert smallest <= 10, f"smallest shrunk reproducer weight {smallest} > 10"
print(f"pdr sabotage drill ok: {len(findings)} findings, "
      f"smallest shrunk reproducer weight {smallest}")
PY
rm -rf "$pdr_tmp"

echo "== persist: crash drill, recovery corpus, E14 smoke =="
# The acceptance drill for the durability layer: a 200+-request seeded
# session, killed at every journal record boundary and once more
# mid-record (journal truncated), must recover byte-identically to an
# uninterrupted twin — at both worker counts, since recovery rebuilds
# the batch fan-out.
for t in 1 8; do
  echo "-- crash drill (SL_THREADS=$t)"
  SL_THREADS=$t cargo test -q --offline --release --test crash_recovery
done
# Shrunk recovery reproducers replay with the rest of the corpus above;
# this re-run isolates the crash oracle so a persistence regression is
# named as such.
echo "-- crash-oracle corpus + fixed-seed sweep"
./target/release/slfuzz --seed 2003 --cases 200 --oracle crash \
  --corpus scripts/conform_corpus.jsonl
# E14 smoke: the binary fails itself if a recovered daemon diverges
# from its twin or snapshots stop bounding the replay.
persist_tmp="$(mktemp -d)"
echo "-- e14_crash_recovery (smoke)"
SL_BENCH_SAMPLES=5 SL_BENCH_WARMUP_MS=10 SL_BENCH_JSON_DIR="$persist_tmp" \
  ./target/release/e14_crash_recovery
python3 - "$persist_tmp/BENCH_persist.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["suite"] == "persist", doc
records = {r["name"]: r for r in doc["records"]}
for name in ("persist/recover/journal_only", "persist/recover/snap64",
             "persist/recover/snap512"):
    r = records[name]
    assert r["median_ns"] > 0 and r["samples"] > 0, (name, r)
full = records["persist/recover/journal_only"]["median_ns"]
snap = records["persist/recover/snap64"]["median_ns"]
assert snap <= full, f"snapshot recovery ({snap}ns) slower than full replay ({full}ns)"
replayed = 1200  # e14 journals 1200 requests under interval 0
print(f"BENCH_persist.json ok: snapshot recovery {full / snap:.1f}x faster, "
      f"journal replay {replayed / (full / 1e9):,.0f} records/sec")
PY
rm -rf "$persist_tmp"

echo "== fault-injection smoke (SL_FAULT_RATE=0.05, seeded) =="
# The same tier-1 suite and sweeps must pass *via degradation* while a
# deterministic fault plan poisons the instrumented sites.
SL_FAULT_RATE=0.05 SL_FAULT_SEED=2003 cargo test -q --offline
for exp in e4_decomposition e9_extremal e10_closure_ablation; do
  echo "-- $exp (fault drill)"
  SL_FAULT_RATE=0.05 SL_FAULT_SEED=2003 "./target/release/$exp"
done

echo "== thread-count determinism (E4 at SL_THREADS=1,2,8) =="
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
for t in 1 2 8; do
  SL_THREADS=$t ./target/release/e4_decomposition > "$tmpdir/e4_t$t.txt"
done
cmp "$tmpdir/e4_t1.txt" "$tmpdir/e4_t2.txt"
cmp "$tmpdir/e4_t1.txt" "$tmpdir/e4_t8.txt"
echo "E4 output byte-identical at SL_THREADS=1,2,8"

echo "verify.sh: all green"
