#!/bin/sh
# Tier-1 gate plus a service smoke test: build, run the full test
# suite, then drive `sfc batch` over the example programs twice with a
# shared cache directory — the warm pass must hit on every job.
set -eu
cd "$(dirname "$0")"

dune build
dune runtest

SFC=_build/default/bin/sfc.exe

# Static-analysis gate: every example program must check clean, and the
# racy in-place Gauss-Seidel fixture must fail under --werror.
for f in examples/*.f90; do
  if ! "$SFC" check "$f"; then
    echo "ci: sfc check flagged $f, expected it to be clean"
    exit 1
  fi
done
if "$SFC" check test/fixtures/gauss_seidel_inplace.f90 --werror \
    >/dev/null 2>&1; then
  echo "ci: sfc check --werror accepted the racy fixture"
  exit 1
fi
# Footprint lints: --json must be well-formed (diagnostics + summary
# keys) on every example, with zero dead-write false positives; the
# dead-write fixture must be flagged (both lints) and rejected under
# --werror.
for f in examples/*.f90; do
  json_out=$("$SFC" check "$f" --json)
  if ! printf '%s\n' "$json_out" | grep -q '"diagnostics"' \
      || ! printf '%s\n' "$json_out" | grep -q '"summary"'; then
    echo "ci: sfc check --json on $f missing diagnostics/summary"
    printf '%s\n' "$json_out"
    exit 1
  fi
  if printf '%s\n' "$json_out" | grep -q 'dead-write'; then
    echo "ci: dead-write false positive on clean example $f"
    printf '%s\n' "$json_out"
    exit 1
  fi
done
dead_out=$("$SFC" check test/fixtures/dead_write.f90 2>&1)
if ! printf '%s\n' "$dead_out" | grep -q 'dead-write' \
    || ! printf '%s\n' "$dead_out" | grep -q 'unread-field'; then
  echo "ci: dead-write fixture not flagged"
  printf '%s\n' "$dead_out"
  exit 1
fi
if "$SFC" check test/fixtures/dead_write.f90 --werror >/dev/null 2>&1; then
  echo "ci: sfc check --werror accepted the dead-write fixture"
  exit 1
fi
echo "check smoke: examples clean (no dead-write FPs), racy and dead-write fixtures rejected under --werror"

CACHE=$(mktemp -d)
JOBS=$(mktemp)
trap 'rm -rf "$CACHE" "$JOBS"' EXIT

for f in examples/*.f90; do
  for target in serial openmp gpu-initial gpu-optimised; do
    printf '{"src": "%s", "target": "%s", "action": "run"}\n' "$f" "$target"
    printf '{"src": "%s", "target": "%s", "action": "compile"}\n' "$f" "$target"
  done
done >"$JOBS"

njobs=$(wc -l <"$JOBS")

cold_out=$("$SFC" batch "$JOBS" --workers 2 --cache-dir "$CACHE")
cold_hits=$(printf '%s\n' "$cold_out" | grep -c '"cache":"hit"' || true)
warm_out=$("$SFC" batch "$JOBS" --workers 2 --cache-dir "$CACHE")
warm_hits=$(printf '%s\n' "$warm_out" | grep -c '"cache":"hit"' || true)
errors=$(printf '%s\n%s\n' "$cold_out" "$warm_out" \
  | grep -c '"status":"error"' || true)

echo "batch smoke: $njobs jobs, cold hits=$cold_hits, warm hits=$warm_hits"
[ "$errors" -eq 0 ] || { echo "ci: batch jobs failed"; exit 1; }
[ "$warm_hits" -ge "$cold_hits" ] || {
  echo "ci: warm run reused fewer cache entries than cold"
  exit 1
}
[ "$warm_hits" -eq "$njobs" ] || {
  echo "ci: warm run should hit the cache on every job"
  exit 1
}

# Execution-engine smoke: the kernels bench compares interp/closure/
# vector/native on identical artifacts, requires bitwise-identical
# grids, vector >= closure and native >= vector (when a toolchain is
# present), and exits nonzero on any violation.
ROOT=$(pwd)
BENCHDIR=$(mktemp -d)
if ! (cd "$BENCHDIR" && "$ROOT/_build/default/bench/main.exe" \
    --kernels-only --quick); then
  echo "ci: kernels bench failed (engine mismatch or a tier slower than the one below)"
  rm -rf "$BENCHDIR"
  exit 1
fi
echo "bench smoke: kernels bench gates passed"
rm -rf "$BENCHDIR"

# Native JIT smoke: a cold run must compile plugins (reporting their
# cold build time) with grid checksums identical to the vector engine;
# a warm re-run over the same cache directory must Dynlink the cached
# plugins without invoking the compiler — zero .cmxs newer than the
# marker — and report the cache hit. Skipped with a visible notice when
# the container has no ocamlopt toolchain.
NCACHE=$(mktemp -d)
cold_out=$("$SFC" run examples/laplace.f90 --exec-engine native \
  --cache-dir "$NCACHE" --stats 2>&1 >/dev/null)
native_ok=0
if printf '%s\n' "$cold_out" | grep -q 'native unavailable'; then
  echo "native smoke: SKIPPED (no ocamlopt toolchain in this environment)"
else
  native_ok=1
  vec_grids=$("$SFC" run examples/laplace.f90 --exec-engine vector \
    --stats 2>&1 >/dev/null | grep '^grid')
  if ! printf '%s\n' "$cold_out" | grep -q 'cold build'; then
    echo "ci: native cold run did not report a cold build"
    printf '%s\n' "$cold_out"
    exit 1
  fi
  if [ "$vec_grids" != "$(printf '%s\n' "$cold_out" | grep '^grid')" ]; then
    echo "ci: native cold checksums differ from vector"
    printf 'vector:\n%s\nnative:\n%s\n' "$vec_grids" "$cold_out"
    exit 1
  fi
  marker="$NCACHE/.ci-marker"
  touch "$marker"
  warm_out=$("$SFC" run examples/laplace.f90 --exec-engine native \
    --cache-dir "$NCACHE" --stats 2>&1 >/dev/null)
  if ! printf '%s\n' "$warm_out" | grep -q 'warm cache hit'; then
    echo "ci: native warm run did not hit the artifact cache"
    printf '%s\n' "$warm_out"
    exit 1
  fi
  if [ "$vec_grids" != "$(printf '%s\n' "$warm_out" | grep '^grid')" ]; then
    echo "ci: native warm checksums differ from vector"
    exit 1
  fi
  recompiled=$(find "$NCACHE" -name '*.cmxs' -newer "$marker" | wc -l)
  if [ "$recompiled" -ne 0 ]; then
    echo "ci: warm native run recompiled $recompiled plugin(s)"
    exit 1
  fi
  echo "native smoke: cold build + warm cache hit, checksums match vector, 0 recompiles"

  # Scheduling smoke: laplace's sweep/copy pair must fuse (the --stats
  # detail names the shift) and its innermost loops must unroll; the
  # checksums above already matched the vector engine.
  if ! printf '%s\n' "$cold_out" | grep -q 'fused 2 nests (shift d=1)'; then
    echo "ci: native --stats does not report the fused sweep/copy pair"
    printf '%s\n' "$cold_out"
    exit 1
  fi
  if ! printf '%s\n' "$cold_out" | grep -q 'x4-unrolled'; then
    echo "ci: native --stats does not report the unrolled schedule"
    printf '%s\n' "$cold_out"
    exit 1
  fi
  echo "native scheduling smoke: shift-fused, x4-unrolled pair reported, bitwise vs vector"
fi
rm -rf "$NCACHE"

# Distributed-backend smoke: the dist target must reproduce the serial
# grid checksums exactly, a rank count the grid cannot host must fail
# with the located decomposition diagnostic.
serial_grids=$("$SFC" run examples/laplace.f90 --stats 2>&1 >/dev/null \
  | grep '^grid')
dist_grids=$("$SFC" run examples/laplace.f90 --target dist --ranks 4 \
  --stats 2>&1 >/dev/null | grep '^grid')
if [ "$serial_grids" != "$dist_grids" ]; then
  echo "ci: dist checksums differ from serial"
  printf 'serial:\n%s\ndist:\n%s\n' "$serial_grids" "$dist_grids"
  exit 1
fi
if "$SFC" run examples/laplace.f90 --target dist --ranks 1000 \
    >/dev/null 2>&1; then
  echo "ci: 1000 ranks on a 12^3 grid should be rejected"
  exit 1
fi
if ! "$SFC" run examples/laplace.f90 --target dist --ranks 1000 2>&1 \
    | grep -q 'error\[decomp\]'; then
  echo "ci: degenerate decomposition missing the located diagnostic"
  exit 1
fi
echo "dist smoke: 4-rank run matches serial, degenerate ranks rejected"

# Superstep fusion + footprint staling: examples/residual.f90 re-reads
# u at offsets and writes it back only along the global j = k = 1 edge —
# a plane the affine write footprint proves is never a mirrored block
# boundary — so every superstep after the first finds u's halos fresh
# and fuses the exchange away. The 4-rank traffic is pinned: 8 coalesced
# messages (7 kB; the unfused schedule paid 24 messages, 21 kB), 2 fused
# stages and 3 stales avoided, with grid checksums identical to serial.
# One per-rank runner per stage puts 8 of its 9 per-rank nests on the
# vector engine (the in-place probe nest runs through the closure).
res_serial=$("$SFC" run examples/residual.f90 --stats 2>&1 >/dev/null \
  | grep '^grid')
res_dist=$("$SFC" run examples/residual.f90 --target dist --ranks 4 \
  --stats 2>&1 >/dev/null)
if [ "$res_serial" != "$(printf '%s\n' "$res_dist" | grep '^grid')" ]; then
  echo "ci: residual dist checksums differ from serial"
  printf 'serial:\n%s\ndist:\n%s\n' "$res_serial" "$res_dist"
  exit 1
fi
for want in '8 msgs, 7 kB' '2 fused stages' '3 halo stale(s) avoided' \
    'vector engine on 8/9 per-rank nests'; do
  if ! printf '%s\n' "$res_dist" | grep -qF "$want"; then
    echo "ci: residual dist --stats missing '$want'"
    printf '%s\n' "$res_dist"
    exit 1
  fi
done
echo "dist fusion smoke: residual at 4 ranks moves 8 msgs / 7 kB, 2 fused stages, 3 stales avoided, 8/9 vector nests, bitwise vs serial"

# Dist on the native engine: a rank-uniform stage runs one plugin shared
# by all ranks, every other stage per-rank vector plans. Both examples
# at 4 ranks must reproduce the serial checksums. Laplace's sweep/copy
# stage is rank-uniform (one plugin), residual's stages are not (its
# edge probe runs on one rank only). The run's shutdown publishes the
# plugin, so a warm rerun over the same cache directory compiles
# nothing. Skipped without a toolchain (notice printed above).
if [ "$native_ok" = 1 ]; then
  DCACHE=$(mktemp -d)
  for ex in laplace residual; do
    ser=$("$SFC" run "examples/$ex.f90" --stats 2>&1 >/dev/null | grep '^grid')
    nat=$("$SFC" run "examples/$ex.f90" --target dist --ranks 4 \
      --exec-engine native --cache-dir "$DCACHE" --stats 2>&1 >/dev/null)
    if [ "$ser" != "$(printf '%s\n' "$nat" | grep '^grid')" ]; then
      echo "ci: $ex dist native checksums differ from serial"
      printf 'serial:\n%s\ndist native:\n%s\n' "$ser" "$nat"
      exit 1
    fi
    if ! printf '%s\n' "$nat" | grep -q '^dist: per-rank engine by stage'; then
      echo "ci: $ex dist native --stats missing the per-stage engine line"
      printf '%s\n' "$nat"
      exit 1
    fi
  done
  marker="$DCACHE/.ci-marker"
  touch "$marker"
  lap=$("$SFC" run examples/laplace.f90 --target dist --ranks 4 \
    --exec-engine native --cache-dir "$DCACHE" --stats 2>&1 >/dev/null)
  if ! printf '%s\n' "$lap" | grep -qF '1 native on 1 plugin(s) shared by all 4 ranks'; then
    echo "ci: laplace dist native did not share one stage plugin"
    printf '%s\n' "$lap"
    exit 1
  fi
  recompiled=$(find "$DCACHE" -name '*.cmxs' -newer "$marker" | wc -l)
  if [ "$recompiled" -ne 0 ]; then
    echo "ci: warm dist native run recompiled $recompiled plugin(s)"
    exit 1
  fi
  rm -rf "$DCACHE"
  echo "dist native smoke: laplace + residual at 4 ranks bitwise vs serial, one shared laplace stage plugin, 0 warm recompiles"
fi

# Concurrent-compile smoke: compiles on several worker domains share one
# process-wide IR id counter. Many distinct copies of one PW program,
# compiled uncached on two workers, must answer exactly like one worker.
CBDIR=$(mktemp -d)
printf '{"name": "pw", "gen": "pw_advection", "dims": [16, 16, 16], "niter": 4}\n' \
  >"$CBDIR/spec.jsonl"
_build/default/perfbench/fscbench.exe render --specs "$CBDIR/spec.jsonl" \
  --out "$CBDIR" >/dev/null
ncopies=120
i=1
while [ "$i" -le "$ncopies" ]; do
  { cat "$CBDIR/pw.f90"; echo "! copy $i"; } >"$CBDIR/pw_$i.f90"
  printf '{"src": "%s/pw_%d.f90", "target": "serial"}\n' "$CBDIR" "$i"
  i=$((i + 1))
done >"$CBDIR/jobs.jsonl"
job_results() {
  "$SFC" batch "$CBDIR/jobs.jsonl" --no-cache --workers "$1" \
    | sed 's/"compile_ms":[^,]*,"run_ms":[^,]*,//' | sort
}
one=$(job_results 1)
two=$(job_results 2)
oks=$(printf '%s\n' "$two" | grep -c '"status":"ok"' || true)
if [ "$oks" -ne "$ncopies" ] || [ "$one" != "$two" ]; then
  echo "ci: concurrent batch ($oks/$ncopies ok) differs from --workers 1"
  printf '%s\n' "$one" >"$CBDIR/one.txt"
  printf '%s\n' "$two" >"$CBDIR/two.txt"
  diff "$CBDIR/one.txt" "$CBDIR/two.txt" | head -20
  rm -rf "$CBDIR"
  exit 1
fi
rm -rf "$CBDIR"
echo "concurrent batch smoke: $ncopies PW copies on 2 workers match 1 worker exactly"

# The dist bench gates itself (strong-scaling halo traffic present, the
# vector engine used, the 8-rank point within the stated factor of the
# Net_model projection) and exits nonzero on any violation.
DISTDIR=$(mktemp -d)
if ! (cd "$DISTDIR" && "$ROOT/_build/default/bench/main.exe" \
    --dist --quick); then
  echo "ci: dist bench failed its own validation gate"
  rm -rf "$DISTDIR"
  exit 1
fi
echo "dist bench smoke: dist bench gates passed"
rm -rf "$DISTDIR"

# Serve smoke: a live `sfc serve` instance must answer three concurrent
# clients with checksums identical to a serial in-process batch, report
# every client identity in its metrics JSON, and shut down cleanly on
# request.
SRVDIR=$(mktemp -d)
SOCK="$SRVDIR/sfc.sock"
for f in examples/*.f90; do
  for target in serial openmp; do
    printf '{"src": "%s", "target": "%s", "action": "run"}\n' "$f" "$target"
  done
done >"$SRVDIR/jobs.jsonl"
srv_njobs=$(wc -l <"$SRVDIR/jobs.jsonl")
serial_sums=$("$SFC" batch "$SRVDIR/jobs.jsonl" --workers 1 --no-cache \
  | grep -o '"checksums":{[^}]*}' | sort)

"$SFC" serve --socket "$SOCK" --workers 2 --handlers 4 --quota 32 \
  --cache-dir "$SRVDIR/cache" --cache-mb 64 2>"$SRVDIR/serve.log" &
SRVPID=$!
i=0
while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
if [ ! -S "$SOCK" ]; then
  echo "ci: serve socket never appeared"
  kill "$SRVPID" 2>/dev/null || true
  exit 1
fi

for cl in a b c; do
  "$SFC" batch "$SRVDIR/jobs.jsonl" --socket "$SOCK" --client "$cl" \
    >"$SRVDIR/out.$cl" &
  eval "PID_$cl=\$!"
done
wait "$PID_a" "$PID_b" "$PID_c"
for cl in a b c; do
  oks=$(grep -c '"status":"ok"' "$SRVDIR/out.$cl" || true)
  if [ "$oks" -ne "$srv_njobs" ]; then
    echo "ci: concurrent client $cl: $oks/$srv_njobs jobs ok"
    cat "$SRVDIR/out.$cl"
    kill "$SRVPID" 2>/dev/null || true
    exit 1
  fi
  sums=$(grep -o '"checksums":{[^}]*}' "$SRVDIR/out.$cl" | sort)
  if [ "$sums" != "$serial_sums" ]; then
    echo "ci: concurrent client $cl checksums differ from serial batch"
    kill "$SRVPID" 2>/dev/null || true
    exit 1
  fi
done

printf '{"action": "metrics"}\n' >"$SRVDIR/metrics.jsonl"
metrics=$("$SFC" batch "$SRVDIR/metrics.jsonl" --socket "$SOCK")
for key in '"scheduler"' '"queue_depth"' '"cache"' '"counters"' \
    '"a":{"weight"' '"b":{"weight"' '"c":{"weight"'; do
  if ! printf '%s\n' "$metrics" | grep -q "$key"; then
    echo "ci: serve metrics JSON missing $key"
    printf '%s\n' "$metrics"
    kill "$SRVPID" 2>/dev/null || true
    exit 1
  fi
done

printf '{"action": "shutdown"}\n' >"$SRVDIR/shutdown.jsonl"
"$SFC" batch "$SRVDIR/shutdown.jsonl" --socket "$SOCK" >/dev/null
wait "$SRVPID"
echo "serve smoke: 3 concurrent clients x $srv_njobs jobs match serial, metrics well-formed, clean shutdown"
rm -rf "$SRVDIR"

echo "ci: OK"
