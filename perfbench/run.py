#!/usr/bin/env python3
"""The repository benchmark: cold-start, steady-solve and serve-mix.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-start --seed 1 --seconds 20 --trace 0

It builds `sfc` and the in-process probe `fscbench` with dune, runs the
workload for --seconds (longer when a named percentile still lacks
samples), checks every output against the Flang-only interpreter and
prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer ledger with --trace 1. The lines before it are a readable
report with the fingerprint and each workload's own named metrics.
See perfbench/README.md for what each workload and metric means.

    python3 perfbench/run.py --regen-refs   # rewrite data/steady_refs.json
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as M  # noqa: E402

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
REFS = os.path.join(BENCH_DIR, "data", "steady_refs.json")
BUILD = os.path.join(ROOT, "_build", "default")
SFC = os.path.join(BUILD, "bin", "sfc.exe")
PROBE = os.path.join(BUILD, "perfbench", "fscbench.exe")
WORKLOADS = ("cold-start", "steady-solve", "serve-mix")
NPROC = len(os.sched_getaffinity(0))

# Every run prints every end-to-end metric (--trace 0) or every per-layer
# metric (--trace 1), whether or not its workload exercises that layer.
# BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
)

CASES = ("gs", "laplace", "pw")
TARGETS = ("serial", "pool", "dist")
SERVE_TARGET_KEYS = ("serial", "openmp", "gpu", "dist")
COUNTERS = ("codegen.native_runs", "codegen.fallback_runs",
            "pool.parallel_for", "pool.steals", "pool.team_barriers",
            "dmp.msgs", "dmp.bytes", "dmp.fused")

PER_LAYER = (
    [("trace_overhead_ms", "ms"), ("unattributed_ms", "ms"),
     ("fail_frac", "ratio"),
     # cold-start
     ("cold_ms_p50", "ms"), ("cold_ms_p90", "ms"),
     ("warm_ms_p50", "ms"), ("warm_ms_p90", "ms"),
     ("cc.miss_ms", "ms"), ("cc.hit_ms", "ms"),
     ("native.create_ms", "ms"), ("native.build_ms", "ms"),
     ("native.builds", "count"), ("native.nest_share", "ratio"),
     ("link_ms", "ms"), ("run_ms", "ms"), ("shutdown_ms", "ms"),
     ("warm.link_ms", "ms"), ("warm.run_ms", "ms"),
     ("warm.shutdown_ms", "ms"), ("warm.unattributed_ms", "ms"),
     # steady-solve
     ("serial_mcells_s", "MCells/s"), ("pool_mcells_s", "MCells/s"),
     ("dist_mcells_s", "MCells/s"),
     ("round_ms_p50", "ms"), ("round_ms_p90", "ms"),
     ("kernel_ms", "ms"), ("host_ms", "ms"),
     ("codegen.native_runs", "count"), ("codegen.fallback_runs", "count"),
     ("pool.parallel_for", "count"), ("pool.steals", "count"),
     ("pool.team_barriers", "count"),
     ("dmp.msgs", "count"), ("dmp.bytes", "bytes"), ("dmp.fused", "count"),
     ("gc.minor_words", "words"), ("gc.major_collections", "count")]
    + [("%s.%s.mcells_s" % (c, t), "MCells/s") for c in CASES for t in TARGETS]
    + [("%s.%s.gbytes_s.computed" % (c, t), "GB/s")
       for c in CASES for t in TARGETS]
)

# serve-mix prints these on top of PER_LAYER. It is not in BENCHMARK.json
# yet: on the current tree its reference check fails intermittently (a
# concurrent-compile miscompile, see README.md), and a gated workload must
# not fail.
SERVE_LAYER = (
    [("jobs_per_s", "1/s"), ("job_ms_p50", "ms"), ("job_ms_p99", "ms"),
       ("server.queue_wait_ms", "ms"),
       ("server.compile_ms.hit", "ms"), ("server.compile_ms.miss", "ms")]
    + [("server.run_ms.%s" % t, "ms") for t in SERVE_TARGET_KEYS]
    + [("cache.hit_ratio", "ratio"), ("server.rejected", "count"),
       ("server.shed", "count"), ("server.max_queue_depth", "count"),
       ("server.unattributed_ms", "ms")]
)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class Refused(Exception):
    """The benchmark cannot report (not a checkout, no toolchain)."""


# ---------------------------------------------------------------------------
# Processes

def child_env(work):
    env = dict(os.environ)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["XDG_CACHE_HOME"] = os.path.join(work, "xdg")
    env["DUNE_CACHE"] = "disabled"
    return env


def spawn(argv, work, env, tag):
    """Run argv to completion with its output in files under work.
    Returns (wall ms, exit code, peak RSS in kB, stdout, stderr)."""
    out_path = os.path.join(work, tag + ".out")
    err_path = os.path.join(work, tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                             stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        wall_ms = (time.perf_counter() - t0) * 1000.0
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return wall_ms, p.returncode, usage.ru_maxrss, stdout, stderr


def probe(args, work, env, tag="probe"):
    """Run fscbench; return its JSON lines, raising on failure."""
    _, code, _, out, err = spawn([PROBE] + args, work, env, tag)
    if code != 0:
        raise RuntimeError("fscbench %s failed (%d): %s"
                           % (args[0], code, err.strip()[-500:]))
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def check_checkout():
    for need in ("dune-project", os.path.join("lib", "driver"),
                 os.path.join("bin", "sfc.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise Refused("not a checkout of the compiler (%s missing); run "
                          "from the repository root" % need)


def build(env):
    t0 = time.perf_counter()
    r = subprocess.run(["dune", "build", "--root", ".", "./bin/sfc.exe",
                        "./perfbench/fscbench.exe"],
                       cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                       stdin=subprocess.DEVNULL)
    if r.returncode != 0:
        raise Refused("dune build failed (%d)" % r.returncode)
    log("build ok in %.1f s" % (time.perf_counter() - t0))


def preflight(work, env):
    """The native toolchain must work: cold-start and steady-solve are
    about the native tier, and a silent vector fallback would report a
    different system."""
    tc = probe(["toolchain", "--work", os.path.join(work, "toolchain")],
               work, env, "toolchain")[0]
    if tc["error"] is not None:
        raise Refused("native toolchain unavailable: %s" % tc["error"])
    return tc


def cache_size(level):
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index%d/size"
                  % level) as f:
            return f.read().strip()
    except OSError:
        return None


def fingerprint(seed, env, tc):
    try:
        ocamlopt = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                                  capture_output=True, text=True, env=env,
                                  stdin=subprocess.DEVNULL).stdout.strip()
    except OSError:
        ocamlopt = None
    return {"nproc": NPROC, "l2": cache_size(2), "l3": cache_size(3),
            "ocaml": tc.get("ocaml"), "ocamlopt": ocamlopt, "seed": seed,
            "loadavg_before": os.getloadavg()}


def references(files, work, env):
    """Flang-only checksums per program file, from NPROC probe processes
    (the interpreter is slow; this runs outside every timed region)."""
    procs = []
    for k in range(NPROC):
        part = files[k::NPROC]
        if part:
            out = open(os.path.join(work, "ref-%d.out" % k), "w+")
            procs.append((out, subprocess.Popen(
                [PROBE, "ref"] + part, stdout=out, stderr=subprocess.DEVNULL,
                env=env, stdin=subprocess.DEVNULL)))
    codes = [p.wait() for _, p in procs]
    refs = {}
    for (out, _), code in zip(procs, codes):
        out.seek(0)
        text = out.read()
        out.close()
        if code != 0:
            raise RuntimeError("fscbench ref failed (%d)" % code)
        for line in text.splitlines():
            r = json.loads(line)
            refs[r["file"]] = {k: float.fromhex(v)
                               for k, v in r["checksums"].items()}
    return refs


def render(specs, out_dir, work, env, tag="render"):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(work, tag + ".jsonl")
    with open(path, "w") as f:
        for s in specs:
            f.write(json.dumps(s) + "\n")
    probe(["render", "--specs", path, "--out", out_dir], work, env, tag)
    return [os.path.join(out_dir, s["name"] + ".f90") for s in specs]


# ---------------------------------------------------------------------------
# Results

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def op(self, ok, why=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[why] = self.reasons.get(why, 0) + 1
            if self.reasons[why] <= 3:
                log("failed: %s" % why)


def med(xs):
    return M.median(xs) if xs else 0.0


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def timing(values):
    """A timing as the report states it: the sample count, the median and
    the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "p50": med(values)}
    p = M.tail_percentile(len(values))
    if p is not None and p > 50:
        out["p%g" % p] = M.percentile(values, p)
    return out


def need(label, values, p):
    """The named percentile p of values, demanding the percentile rule."""
    if len(values) < M.min_samples(p):
        raise RuntimeError("%s: %d samples cannot support p%g"
                           % (label, len(values), p))
    return M.percentile(values, p)


# ---------------------------------------------------------------------------
# cold-start

# a run outlasts --seconds only to complete a named percentile, and by at
# most this factor
CAP = 3
COLD_CHUNK = 40
COLD_SETUPS = 5


def cold_check(stderr, expect, ref):
    """Self-check and reference check of one `sfc run --stats` process.
    Returns None or the violation."""
    lines = stderr.splitlines()
    if expect == "cold":
        if "compile: cache miss" not in lines:
            return "cold run did not miss the compile cache"
        if not any("(cold build" in l for l in lines):
            return "cold run built no plugin"
    else:
        if "compile: cache hit" not in lines:
            return "warm rerun did not hit the compile cache"
        kern = [l for l in lines if l.startswith("  _stencil_kernel")]
        if any("cold build" in l for l in kern):
            return "warm rerun rebuilt a plugin"
        if not kern or not all("warm cache hit" in l for l in kern):
            return "warm rerun did not load cached plugins"
    got = {}
    for l in lines:
        parts = l.split()
        if len(parts) == 4 and parts[0] == "grid" and parts[2] == "checksum":
            got[parts[1]] = parts[3]
    want = {k: "%.6f" % v for k, v in ref.items()}
    if got != want:
        return "checksum mismatch against the Flang-only reference"
    return None


class ColdStream:
    """The seeded program stream, rendered and referenced in chunks
    outside the clock."""

    def __init__(self, seed, work, env):
        self.seed, self.work, self.env = seed, work, env
        self.queue = []
        self.drawn = 0

    def next(self):
        if not self.queue:
            specs = M.program_specs(self.seed, COLD_CHUNK, start=self.drawn)
            files = render(specs, os.path.join(self.work, "src"), self.work,
                           self.env)
            refs = references(files, self.work, self.env)
            self.queue = [(f, refs[f]) for f in files]
            self.drawn += len(specs)
        return self.queue.pop(0)


def cold_setup(seed, work, env):
    """cold-start set-up: the toolchain preflight, rendering the first chunk
    of the program stream, and one cold `sfc run` of its first program on
    an empty cache, which proves the whole native path works and warms the
    page cache for the binaries the loop executes. References are computed
    apart."""
    t0 = time.perf_counter()
    tc = preflight(work, env)
    files = render(M.program_specs(seed, COLD_CHUNK),
                   os.path.join(work, "setup-src"), work, env, "setup")
    cache = os.path.join(work, "setup-cache")
    _, code, _, _, err = spawn([SFC, "run", files[0], "--exec-engine",
                                "native", "--cache-dir", cache], work, env,
                               "setup-sfc")
    shutil.rmtree(cache, ignore_errors=True)
    if code != 0:
        raise RuntimeError("set-up `sfc run` failed (%d): %s"
                           % (code, err.strip()[-300:]))
    return time.perf_counter() - t0, tc


def cold_untraced(stream, seconds, cap, work, env, tally, min_ops):
    cold, warm, rss = [], [], 0
    spent, n = 0.0, 0
    while (spent < seconds or n < min_ops) and spent < cap:
        src, ref = stream.next()
        cache = os.path.join(work, "cache-%d" % n)
        for expect in ("cold", "warm"):
            ms, code, kb, _, err = spawn(
                [SFC, "run", src, "--exec-engine", "native", "--cache-dir",
                 cache, "--stats"], work, env, "sfc")
            spent += ms / 1000.0
            rss = max(rss, kb)
            why = ("sfc exited %d" % code) if code != 0 \
                else cold_check(err, expect, ref)
            tally.op(why is None, why)
            (cold if expect == "cold" else warm).append(ms)
        shutil.rmtree(cache, ignore_errors=True)
        n += 1
    return cold, warm, rss, spent


def cold_traced(stream, seconds, work, env, tally):
    """The CLI's call sequence in a fresh probe process per operation, so
    a warm Dynlink really loads from disk."""
    recs = {"cold": [], "warm": []}
    spent, n = 0.0, 0
    while spent < seconds or n < 20:
        src, ref = stream.next()
        cache = os.path.join(work, "tcache-%d" % n)
        for expect in ("cold", "warm"):
            ms, code, _, out, err = spawn(
                [PROBE, "cli-op", "--src", src, "--cache-dir", cache,
                 "--expect", expect], work, env, "cliop")
            spent += ms / 1000.0
            if code != 0:
                tally.op(False, "cli-op exited %d: %s" % (code, err[-200:]))
                continue
            r = json.loads(out.splitlines()[-1])
            got = {k: float.fromhex(v) for k, v in r["checksums"].items()}
            why = r["violation"]
            if why is None and got != ref:
                why = "checksum mismatch against the Flang-only reference"
            tally.op(why is None, why)
            r["wall_ms"] = ms
            layers = (r["native_create_ms"] + r["cc_ms"] + r["link_ms"]
                      + r["run_ms"] + r["shutdown_ms"])
            r["unattributed_ms"] = ms - layers
            recs[expect].append(r)
        shutil.rmtree(cache, ignore_errors=True)
        n += 1
    return recs


def cold_start(args, work, env, tally, report):
    setups = []
    for _ in range(COLD_SETUPS):
        s, tc = cold_setup(args.seed, work, env)
        setups.append(s)
    report["fingerprint"] = fingerprint(args.seed, env, tc)
    stream = ColdStream(args.seed, work, env)
    min_ops = M.min_samples(90)
    cap = CAP * args.seconds
    if not args.trace:
        cold, warm, rss, spent = cold_untraced(stream, args.seconds, cap,
                                               work, env, tally, min_ops)
        report["named"] = {
            "cold_ms_p50": med(cold), "cold_ms_p90": need("cold", cold, 90),
            "warm_ms_p50": med(warm), "warm_ms_p90": need("warm", warm, 90),
            "programs": len(cold)}
        report["timings"] = {"cold_ms": timing(cold), "warm_ms": timing(warm)}
        return {"setup_s": med(setups), "peak_rss_mb": rss / 1024.0,
                "op_ms_p50": med(cold), "ops_per_s": len(cold) / spent}
    cold, warm, _, _ = cold_untraced(stream, args.seconds / 3.0, cap, work,
                                     env, tally, min_ops)
    recs = cold_traced(stream, args.seconds * 2 / 3.0, work, env, tally)
    c, w = recs["cold"], recs["warm"]

    def m(rs, key):
        return med([r[key] for r in rs])
    nests = sum(r["total_nests"] for r in c + w)
    layers = {
        "trace_overhead_ms": m(c, "wall_ms") - med(cold),
        "unattributed_ms": m(c, "unattributed_ms"),
        "cold_ms_p50": med(cold), "cold_ms_p90": need("cold", cold, 90),
        "warm_ms_p50": med(warm), "warm_ms_p90": need("warm", warm, 90),
        "cc.miss_ms": m(c, "cc_ms"), "cc.hit_ms": m(w, "cc_ms"),
        "native.create_ms": m(w, "native_create_ms"),
        "native.build_ms": m(c, "build_ms"),
        "native.builds": mean([r["builds"] for r in c]),
        "native.nest_share": (sum(r["native_nests"] for r in c + w) / nests
                              if nests else 0.0),
        "link_ms": m(c, "link_ms"), "run_ms": m(c, "run_ms"),
        "shutdown_ms": m(c, "shutdown_ms"), "kernel_ms": m(c, "kernel_ms"),
        "host_ms": med([r["run_ms"] - r["kernel_ms"] for r in c]),
        "gc.minor_words": mean([r["gc.minor_words"] for r in c]),
        "gc.major_collections": mean([r["gc.major_collections"] for r in c]),
        "warm.link_ms": m(w, "link_ms"), "warm.run_ms": m(w, "run_ms"),
        "warm.shutdown_ms": m(w, "shutdown_ms"),
        "warm.unattributed_ms": m(w, "unattributed_ms"),
    }
    for k in COUNTERS:
        layers[k] = mean([r["counters"][k] for r in c])
    report["named"] = {"traced_cold_wall_ms_p50": m(c, "wall_ms"),
                       "traced_warm_wall_ms_p50": m(w, "wall_ms"),
                       "create_share_of_warm": (layers["native.create_ms"]
                                                / m(w, "wall_ms"))}
    return layers


# ---------------------------------------------------------------------------
# steady-solve

# Independent processes per run, so no single process's allocation and
# memory-placement history sets a run's figures; each one's set-up is also
# a sample of setup_s.
STEADY_PROCS = 4


def steady_solve(args, work, env, tally, report):
    tc = preflight(work, env)
    report["fingerprint"] = fingerprint(args.seed, env, tc)
    setups, solves, violations, kb = [], [], [], 0
    for k in range(STEADY_PROCS):
        argv = [PROBE, "steady", "--work", os.path.join(work, "run-%d" % k),
                "--refs", REFS, "--seconds", str(args.seconds / STEADY_PROCS),
                "--seed", str(args.seed * STEADY_PROCS + k), "--min-rounds",
                str(-(-M.min_samples(90) // STEADY_PROCS))]
        if args.trace:
            argv.append("--trace")
        _, code, rss, out, err = spawn(argv, work, env, "steady")
        if code != 0:
            raise RuntimeError("steady probe failed (%d): %s"
                               % (code, err.strip()[-500:]))
        res = json.loads(out.splitlines()[-1])
        kb = max(kb, rss)
        setups.append(res["setup_s"])
        violations += res["violations"]
        for sv in res["solves"]:
            sv["round"] = (k, sv["round"])
            solves.append(sv)
    progs = {p["case"]: p for p in res["programs"]}
    for v in violations:
        tally.op(False, "self-check: " + v)
    for s in solves:
        tally.op(s["ok"], "checksum mismatch against the Flang-only "
                 "reference (%s.%s)" % (s["case"], s["target"]))

    def rate(ss, fn):
        t = sum(s["ms"] for s in ss)
        return sum(fn(progs[s["case"]]) for s in ss) / (t / 1000.0) if t else 0

    def mcells(ss):
        return rate(ss, lambda p: M.cells(p["gen"], p["dims"], p["niter"])) \
            / 1e6

    plain = [s for s in solves if not s["traced"]]
    named = {"%s_mcells_s" % t: mcells([s for s in plain if s["target"] == t])
             for t in TARGETS}
    rounds = {}
    for s in plain:
        rounds[s["round"]] = rounds.get(s["round"], 0.0) + s["ms"]
    rounds = list(rounds.values())
    named["round_ms_p50"] = med(rounds)
    named["round_ms_p90"] = need("round", rounds, 90)
    report["named"] = dict(named, solves=len(plain))
    report["timings"] = {"round_ms": timing(rounds)}
    if not args.trace:
        return {"setup_s": med(setups), "peak_rss_mb": kb / 1024.0,
                "op_ms_p50": med(rounds),
                "ops_per_s": len(rounds) / (sum(rounds) / 1000.0)}
    traced = [s for s in solves if s["traced"]]
    layers = dict(named)
    for c in CASES:
        for t in TARGETS:
            ss = [s for s in plain if s["case"] == c and s["target"] == t]
            layers["%s.%s.mcells_s" % (c, t)] = mcells(ss)
            layers["%s.%s.gbytes_s.computed" % (c, t)] = rate(
                ss, lambda p: M.computed_bytes(p["gen"], p["dims"],
                                               p["niter"])) / 1e9
    layers["trace_overhead_ms"] = (med([s["ms"] for s in traced])
                                   - med([s["ms"] for s in plain]))
    layers["kernel_ms"] = med([s["kernel_ms"] for s in traced])
    layers["host_ms"] = med([s["ms"] - s["kernel_ms"] for s in traced])
    layers["unattributed_ms"] = mean([s["ms"] - s["main_ms"] for s in traced])
    for k in COUNTERS:
        layers[k] = mean([s["counters"][k] for s in traced])
    setup = res["setup_layers"]
    for k in ("native.create_ms", "cc.miss_ms", "cc.hit_ms", "link_ms",
              "shutdown_ms", "native.build_ms", "native.builds"):
        layers[k] = setup[k]
    layers["run_ms"] = med([s["ms"] for s in plain])
    layers["native.nest_share"] = (setup["native_nests"] / setup["total_nests"]
                                   if setup["total_nests"] else 0.0)
    for k in ("gc.minor_words", "gc.major_collections"):
        layers[k] = mean([s[k] for s in traced])
    return layers


# ---------------------------------------------------------------------------
# serve-mix

SERVE_BASES = 6
SERVE_JOBS = 12000


def connect(path, timeout=30.0):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    s.connect(path)
    return s


def exchange(path, lines):
    """One connection: send the lines, half-close, and return each reply
    line with the time it arrived (seconds after the send began)."""
    t0 = time.perf_counter()
    s = connect(path)
    try:
        s.sendall(("\n".join(lines) + "\n").encode())
        s.shutdown(socket.SHUT_WR)
        buf, replies = b"", []
        while True:
            data = s.recv(1 << 16)
            if not data:
                break
            buf += data
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                replies.append((time.perf_counter() - t0, line.decode()))
        return replies
    finally:
        s.close()


class Server:
    def __init__(self, work, env, tag):
        self.dir = os.path.join(work, tag)
        os.makedirs(self.dir, exist_ok=True)
        # relative to the shared working directory: a Unix socket path
        # must stay short wherever the checkout lives
        self.sock = os.path.relpath(os.path.join(self.dir, "s.sock"))
        self.err = open(os.path.join(self.dir, "serve.err"), "wb")
        self.p = subprocess.Popen(
            [SFC, "serve", "--socket", self.sock, "--workers", str(NPROC),
             "--handlers", str(NPROC), "--cache-dir",
             os.path.join(self.dir, "cache")],
            stdout=subprocess.DEVNULL, stderr=self.err, env=env,
            stdin=subprocess.DEVNULL)

    def wait_accepting(self, budget_s=60.0):
        t_end = time.perf_counter() + budget_s
        while time.perf_counter() < t_end:
            if self.p.poll() is not None:
                raise RuntimeError("sfc serve exited %d" % self.p.returncode)
            try:
                connect(self.sock, 1.0).close()
                return
            except OSError:
                time.sleep(0.002)
        raise RuntimeError("sfc serve did not accept within %gs" % budget_s)

    def metrics(self):
        return json.loads(exchange(self.sock, ['{"action": "metrics"}'])[0][1])

    def peak_rss_kb(self):
        with open("/proc/%d/status" % self.p.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        if self.p.poll() is None:
            try:
                exchange(self.sock, ['{"action": "shutdown"}'])
                self.p.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.p.kill()
                self.p.wait()
        self.err.close()


def serve_reply_ok(job, reply, refs):
    """Check one reply; returns None or the failure."""
    _, base, _, action, _ = job
    try:
        r = json.loads(reply)
    except ValueError:
        return "unparsable reply"
    if r.get("status") != "ok":
        return "status %s: %s" % (r.get("status"),
                                   r.get("error", r.get("reason", "")))
    if action == "compile":
        return None if r.get("kernels", 0) > 0 else "compile gave no kernels"
    got = {k: float(v) for k, v in r.get("checksums", {}).items()}
    if got != refs[base]:
        log("mismatch: %s job on %s (%s): got %s, want %s"
            % (r.get("target"), base, "fresh" if job[2] else "cached",
               r.get("checksums"), {k: repr(v) for k, v in refs[base].items()}))
        return "checksum mismatch against the Flang-only reference"
    return None


def serve_setup(work, env, tag, bases, refs, tally):
    """Server start until the socket accepts, plus warming every base
    program on every target (so base jobs read the cache). The warm-up
    replies are outputs too: each is checked like a job."""
    t0 = time.perf_counter()
    srv = Server(work, env, tag)
    try:
        srv.wait_accepting()
        warm = [(json.dumps({"source": src, "target": t, "client": "warm"}),
                 name, False, "run", t)
                for name, src in bases for t, _ in M.SERVE_TARGETS]
        replies = exchange(srv.sock, [j[0] for j in warm])
    except BaseException:
        srv.stop()
        raise
    elapsed = time.perf_counter() - t0
    for i, job in enumerate(warm):
        why = (serve_reply_ok(job, replies[i][1], refs) if i < len(replies)
               else "missing reply")
        tally.op(why is None, why)
    return elapsed, srv


def serve_clients(srv, streams, seconds, cap_s, min_jobs, refs, tally,
                  traced):
    """Closed loop: one thread per client, batches of BATCH jobs per
    connection. A traced pass appends a metrics line to every batch."""
    lock = threading.Lock()
    done = []  # (latency ms, job, reply dict)
    failures = []
    t_start = time.perf_counter()
    stop_at = t_start + seconds
    cap = t_start + cap_s

    def client(stream):
        k = 0
        while True:
            now = time.perf_counter()
            with lock:
                enough = len(done) >= min_jobs
            if (now >= cap or (now >= stop_at and enough)
                    or k + M.BATCH > len(stream)):
                return
            batch = stream[k:k + M.BATCH]
            k += M.BATCH
            lines = [j[0] for j in batch]
            if traced:
                lines.append('{"action": "metrics"}')
            try:
                replies = exchange(srv.sock, lines)
            except OSError as e:
                replies = []
                with lock:
                    failures.append("connection: %s" % e)
            with lock:
                for i, job in enumerate(batch):
                    if i >= len(replies):
                        failures.append("missing reply")
                        continue
                    t, line = replies[i]
                    why = serve_reply_ok(job, line, refs)
                    if why:
                        failures.append(why)
                    else:
                        done.append((t * 1000.0, job, json.loads(line)))

    threads = [threading.Thread(target=client, args=(s,)) for s in streams]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t_start
    for f in failures:
        tally.op(False, f)
    for _ in done:
        tally.op(True)
    return done, elapsed


def serve_mix(args, work, env, tally, report):
    specs = M.program_specs(args.seed, SERVE_BASES, prefix="b")
    files = render(specs, os.path.join(work, "src"), work, env)
    file_refs = references(files, work, env)
    bases = []
    refs = {}
    for s, f in zip(specs, files):
        with open(f) as fh:
            bases.append((s["name"], fh.read()))
        refs[s["name"]] = file_refs[f]
    tc = probe(["toolchain", "--work", os.path.join(work, "toolchain")],
               work, env, "toolchain")[0]
    report["fingerprint"] = fingerprint(args.seed, env, tc)
    setups = []
    for k in range(2):
        s, srv = serve_setup(work, env, "setup-%d" % k, bases, refs, tally)
        srv.stop()
        setups.append(s)
    s, srv = serve_setup(work, env, "server", bases, refs, tally)
    setups.append(s)
    try:
        # more jobs than a client can send within the cap, so fresh jobs
        # stay fresh
        streams = [M.serve_jobs(args.seed, "c%d" % c, SERVE_JOBS, bases)
                   for c in range(NPROC)]
        min_jobs = M.min_samples(99)
        cap = CAP * args.seconds
        before = srv.metrics()
        if not args.trace:
            done, elapsed = serve_clients(srv, streams, args.seconds, cap,
                                          min_jobs, refs, tally, False)
            lat = [d[0] for d in done]
            report["named"] = {"jobs_per_s": len(done) / elapsed,
                               "job_ms_p50": med(lat),
                               "job_ms_p99": need("job", lat, 99)}
            report["timings"] = {"job_ms": timing(lat)}
            return {"setup_s": med(setups),
                    "peak_rss_mb": srv.peak_rss_kb() / 1024.0,
                    "op_ms_p50": med(lat), "ops_per_s": len(done) / elapsed}
        plain, p_elapsed = serve_clients(srv, streams, args.seconds / 3.0,
                                         cap, min_jobs, refs, tally, False)
        mid = srv.metrics()
        done, _ = serve_clients(srv, streams, args.seconds * 2 / 3.0, cap,
                                0, refs, tally, True)
        after = srv.metrics()
    finally:
        srv.stop()
    lat_plain = [d[0] for d in plain]
    lat = [d[0] for d in done]
    sa, sm = after["scheduler"], mid["scheduler"]
    completed = sa["completed"] - before["scheduler"]["completed"]
    wait_ms = (sa["total_wait_ms"] - before["scheduler"]["total_wait_ms"]) \
        / max(1, completed)
    runs = [d for d in done + plain if d[1][3] == "run"]

    def by(pred, key):
        return med([d[2][key] for d in done + plain if pred(d)])
    layers = {
        "jobs_per_s": len(plain) / p_elapsed,
        "job_ms_p50": med(lat_plain),
        "job_ms_p99": need("job", lat_plain, 99),
        "trace_overhead_ms": med(lat) - med(lat_plain),
        "server.queue_wait_ms": wait_ms,
        "server.compile_ms.hit": by(lambda d: d[2]["cache"] == "hit",
                                    "compile_ms"),
        "server.compile_ms.miss": by(lambda d: d[2]["cache"] == "miss",
                                     "compile_ms"),
        "cache.hit_ratio": (sum(1 for d in done + plain
                                if d[2]["cache"] == "hit")
                            / max(1, len(done) + len(plain))),
        "server.rejected": sa["rejected"] - before["scheduler"]["rejected"],
        "server.shed": sa["shed"] - before["scheduler"]["shed"],
        "server.max_queue_depth": max(sa["max_queue_depth"],
                                      sm["max_queue_depth"]),
        "server.unattributed_ms": med(
            [d[0] - d[2]["compile_ms"] - d[2]["run_ms"] for d in done])
        - wait_ms,
    }
    layers["unattributed_ms"] = layers["server.unattributed_ms"]
    for key, prefix in (("serial", "serial"), ("openmp", "openmp"),
                        ("gpu", "gpu"), ("dist", "dist")):
        layers["server.run_ms.%s" % key] = med(
            [d[2]["run_ms"] for d in runs
             if d[2]["target"].startswith(prefix)])
    report["named"] = {k: layers[k] for k in
                       ("jobs_per_s", "job_ms_p50", "job_ms_p99")}
    return layers


# ---------------------------------------------------------------------------
# Main

def regen_refs(env):
    build(env)
    subprocess.run([PROBE, "steady-refs", "--out", REFS], check=True,
                   env=env)
    log("wrote %s" % REFS)


def main():
    # a terminated run still stops its children and removes its work dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-refs", action="store_true",
                    help="recompute data/steady_refs.json (slow: the "
                    "interpreter needs about a minute per case)")
    args = ap.parse_args()
    if not args.regen_refs and args.workload is None:
        ap.error("--workload is required")
    work = os.path.join(ROOT, ".perfbench-work",
                        "%s-%d" % (args.workload or "refs", os.getpid()))
    try:
        check_checkout()
        os.makedirs(work, exist_ok=True)
        env = child_env(work)
        if args.regen_refs:
            regen_refs(env)
            return 0
        build(env)
        tally = Tally()
        report = {"workload": args.workload}
        run = {"cold-start": cold_start, "steady-solve": steady_solve,
               "serve-mix": serve_mix}[args.workload]
        values = run(args, work, env, tally, report)
        report["fingerprint"]["loadavg_after"] = os.getloadavg()
    except Refused as e:
        log("refused: %s" % e)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    names = END_TO_END
    if args.trace:
        names = PER_LAYER + (SERVE_LAYER if args.workload == "serve-mix"
                             else [])
    out = {}
    for name, unit in names:
        assert M.valid_metric_name(name), name
        out[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
    if args.trace:
        out["fail_frac"]["value"] = tally.failed / max(1, tally.attempted)
    report["fail_frac"] = tally.failed / max(1, tally.attempted)
    report["failures"] = tally.reasons
    print("report: " + json.dumps(report, sort_keys=True))
    for name, unit in names:
        print("  %-32s %14.4f %s" % (name, out[name]["value"], unit))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": out}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
