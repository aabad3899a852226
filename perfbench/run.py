#!/usr/bin/env python3
"""Benchmark of the csrtl campaign stack (see perfbench/README.md).

Run from the root of a source checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py compare PARENT CHANGE

The first form builds `csrtl` and the in-process probe with dune, makes
the workload's inputs from the seed, builds reference reports with the
kernel engine, runs the workload and prints one JSON result as its last
line: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  The line before it, prefixed "perfbench-result", carries the
same metrics plus the run's metadata; `compare` reads logs of such lines
for a parent and a change and prints one row per workload and metric.
"""

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

CSRTL = os.path.join("_build", "default", "bin", "csrtl.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe.exe")
WORK = ".perfbench"
WORKLOADS = ("campaign-batched", "campaign-kernel", "campaign-iks", "serve-mix")
KINDS = ("cold", "warm", "replay")

# Work per run is fixed by the seed and --seconds, never by elapsed
# time: the counts below are for --seconds 10 and scale linearly.
BASE_SECONDS = 10.0


class BenchError(Exception):
    """A failure of the benchmark itself (build, daemon start-up): the
    run ends without a result line."""


# -- inputs ----------------------------------------------------------------


def lanes_model(name, lanes, steps, ops, rng):
    """`lanes` independent register pairs, each stepping its own unit for
    `steps` control steps (a chain is one lane).  Read at 2i+1, write at
    2i+2, so no transfer writes back in the final step and the paper's
    law is exactly 6 * csmax delta cycles."""
    out = [f"model {name}", f"csmax {2 * steps + 1}"]
    for lane in range(lanes):
        out.append(f"reg A{lane} init {rng.randint(1, 1 << 20)}")
        out.append(f"reg B{lane} init {rng.randint(1, 1 << 20)}")
        out.append(f"bus BA{lane} BB{lane}")
        out.append(f"unit U{lane} ops {ops[lane % len(ops)]} latency 1")
    for i in range(steps):
        read = 2 * i + 1
        for lane in range(lanes):
            dst = f"B{lane}" if i % 2 == 0 else f"A{lane}"
            out.append(f"transfer A{lane} BA{lane} B{lane} BB{lane} {read} "
                       f"U{lane} {read + 1} BA{lane} {dst}")
    return "\n".join(out) + "\n"


def law_cycles(text):
    """The paper's delta-cycle law for an .rtm model: 6 per control step,
    plus one when a transfer writes back in the last step."""
    csmax, trailing = 0, False
    for line in text.splitlines():
        f = line.split()
        if f and f[0] == "csmax":
            csmax = int(f[1])
    for line in text.splitlines():
        f = line.split()
        if f and f[0] == "transfer" and f[7] != "-" and int(f[7]) == csmax:
            trailing = True
    return 6 * csmax + (1 if trailing else 0)


def scaled(n, seconds):
    return max(1, int(round(n * seconds / BASE_SECONDS)))


# Campaign strata: (lanes, steps, unit ops, distinct models, campaigns
# at --seconds 10).  Sizes are fixed and the seed varies the contents.
# Neighbouring strata differ in cost by 1.5x or more, and the counts
# (20% / 60% / 20%, plus a few large models on top) put the p50 rank in
# the middle of the second stratum and the p90 rank in the middle of
# the third, with at least ten campaigns beyond it.
BATCHED_STRATA = [
    (1, 24, ("add",), 2, 26),
    (1, 32, ("add",), 3, 78),
    (1, 64, ("add",), 2, 26),
    (4, 40, ("add", "sub"), 1, 4),
]
KERNEL_STRATA = [
    (1, 12, ("add",), 2, 20),
    (1, 16, ("add",), 3, 60),
    (2, 12, ("add", "sub"), 2, 20),
    (1, 40, ("add",), 1, 2),
]
IKS_TARGETS = 3
IKS_ROUNDS = 5
IKS_LIMIT = 100
# serve-mix: one model shape (an 80-transfer adder chain, 161 control
# steps), so each request kind's latency is one cluster
SERVE_SHAPE = (1, 80)
SERVE_LIMIT = 200
SERVE_HOT = 12
SERVE_CAPACITY = 64  # csrtl serve's default tier capacity
SERVE_FILL = SERVE_CAPACITY - SERVE_HOT + 8
SERVE_REQUESTS = 240
SERVE_MIX = {"cold": 0.2, "warm": 0.3, "replay": 0.5}
SERVE_CONNECTIONS = 2


def strata_models(strata, seed_rng, tag):
    models = []
    for si, (lanes, steps, ops, distinct, _) in enumerate(strata):
        for d in range(distinct):
            name = f"{tag}{si}{d}_{lanes}x{steps}"
            rng = random.Random(seed_rng.getrandbits(64))
            models.append({"name": name, "stratum": si,
                           "text": lanes_model(name, lanes, steps, ops, rng)})
    return models


def strata_sequence(strata, models, seconds, rng):
    seq = []
    for si, (*_, distinct, runs) in enumerate(strata):
        mine = [m for m in models if m["stratum"] == si]
        for k in range(scaled(runs, seconds)):
            seq.append(mine[k % len(mine)]["name"])
    rng.shuffle(seq)
    return seq


def iks_models(rng):
    """Seeded reachable targets for a 2.0/1.5 arm: radius inside the
    annulus, angle in the first quadrant."""
    models = []
    for t in range(IKS_TARGETS):
        r = rng.uniform(0.9, 3.2)
        a = rng.uniform(0.1, 1.4)
        px, py = f"{r * math.cos(a):.4f}", f"{r * math.sin(a):.4f}"
        path = os.path.join(WORK, f"iks-{os.getpid()}-{t}.rtm")
        run_checked([PROBE, "iks-rtm", "2.0", "1.5", px, py, path])
        with open(path) as f:
            text = f.read()
        os.unlink(path)
        models.append({"name": f"iks{t}", "stratum": 0, "text": text,
                       "target": [px, py]})
    return models


def make_inputs(workload, seed, seconds):
    """Everything a run feeds the program, as a pure function of the
    workload, the seed and --seconds."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "campaign-batched":
        models = strata_models(BATCHED_STRATA, rng, "b")
        seq = strata_sequence(BATCHED_STRATA, models, seconds, rng)
        return {"models": models, "sequence": seq,
                "args": ["--jobs", "0", "--table"]}
    if workload == "campaign-kernel":
        models = strata_models(KERNEL_STRATA, rng, "k")
        seq = strata_sequence(KERNEL_STRATA, models, seconds, rng)
        return {"models": models, "sequence": seq,
                "args": ["--engine", "kernel", "--table"]}
    if workload == "campaign-iks":
        models = iks_models(rng)
        seq = []
        for _ in range(scaled(IKS_ROUNDS, seconds)):
            seq += [m["name"] for m in models]
        return {"models": models, "sequence": seq,
                "args": ["--limit", str(IKS_LIMIT), "--table"]}
    # serve-mix: one model shape, so each kind's latency is one cluster
    lanes, steps = SERVE_SHAPE
    n = scaled(SERVE_REQUESTS, seconds)
    counts = {k: int(round(n * f)) for k, f in SERVE_MIX.items()}
    counts["replay"] = n - counts["cold"] - counts["warm"]

    def model(name):
        return {"name": name,
                "text": lanes_model(name, lanes, steps, ("add",),
                                    random.Random(rng.getrandbits(64)))}

    fill = [model(f"f{i}") for i in range(SERVE_FILL)]
    hot = [model(f"h{i}") for i in range(SERVE_HOT)]
    cold = [model(f"c{i}") for i in range(counts["cold"])]
    kinds = [k for k in KINDS for _ in range(counts[k])]
    rng.shuffle(kinds)
    seq, ci = [], 0
    for k in kinds:
        if k == "cold":
            seq.append((k, cold[ci]["name"]))
            ci += 1
        else:
            seq.append((k, rng.choice(hot)["name"]))
    return {"models": fill + hot + cold, "fill": [m["name"] for m in fill],
            "hot": [m["name"] for m in hot], "sequence": seq}


def inputs_digest(inp):
    return hashlib.sha256(json.dumps(inp, sort_keys=True).encode()).hexdigest()


# -- processes ---------------------------------------------------------------


def run_checked(args, **kw):
    r = subprocess.run(args, capture_output=True, **kw)
    if r.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {r.returncode}: "
                         f"{r.stderr.decode(errors='replace')[-2000:]}")
    return r.stdout


def timed_child(args):
    """Run one child to completion: (wall seconds, exit code, stdout
    bytes, its own peak RSS in MB from wait4's rusage)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(args, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, out, ru.ru_maxrss / 1024.0


def build():
    if not os.path.exists("dune-project"):
        raise BenchError("not the root of a csrtl checkout (no dune-project)")
    r = subprocess.run(["dune", "build", "--root", ".", "./bin/csrtl.exe",
                        "./perfbench/probe.exe"], capture_output=True)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stderr.decode(errors="replace"))


def references(names, models, paths, limit, failures):
    """Reference digests from the kernel engine (the paper's VHDL
    delta-cycle semantics): each report's sha256 and summary counts,
    plus the law check on each model.  Built afresh in every run, so a
    run's shape never depends on what earlier runs left behind.  One
    domain per campaign and one campaign per core: on small models the
    kernel engine's domain pool costs more than it gains."""
    flags = ["--engine", "kernel", "--jobs", "1", "--table"]
    if limit is not None:
        flags += ["--limit", str(limit)]
    names = list(names)
    with concurrent.futures.ThreadPoolExecutor(
            len(os.sched_getaffinity(0))) as pool:
        outs = list(pool.map(
            lambda n: run_checked([CSRTL, "inject", paths[n]] + flags),
            names))
    refs = {}
    for name, out in zip(names, outs):
        refs[name] = {"sha256": sha(out), "summary": summary_counts(out)}
        check_law(paths[name], models[name]["text"], failures)
        if not summary_sane(refs[name]["summary"]):
            failures.append(f"{name}: reference report is not clean")
    return refs


def sha(data):
    return hashlib.sha256(data).hexdigest()


def summary_counts(report):
    """The class counts, agreement and law line of a report's summary."""
    lines = report.decode(errors="replace").splitlines()[-5:]
    out = {}
    try:
        total = int(lines[0].rsplit("(", 1)[1].split()[0])
        for part in lines[1].split("|"):
            k, v = part.split()
            out[k] = int(v)
        agree, of = lines[3].split(":")[1].strip().split("/")
        out["total"] = total
        out["disagreements"] = int(of) - int(agree)
        out["law_held"] = lines[4].endswith(": held")
    except (IndexError, ValueError):
        return None
    return out


def summary_sane(s):
    return (s is not None and s["disagreements"] == 0 and s["law_held"]
            and s["crashed"] == 0 and s["hung"] == 0)


def check_law(model_path, text, failures):
    """`csrtl sim` must run exactly the paper's delta-cycle count."""
    out = run_checked([CSRTL, "sim", model_path]).decode()
    want = law_cycles(text)
    for line in out.splitlines():
        if line.startswith("simulation cycles:"):
            got = line.split()[2]
            expect = line.split("expected ")[1].rstrip(")")
            if int(got) != want or int(expect) != want:
                failures.append(f"{model_path}: {got} delta cycles, "
                                f"law says {want}")
            return
    failures.append(f"{model_path}: no cycle count from csrtl sim")


# -- statistics ----------------------------------------------------------------


def quantile(xs, q):
    """statistics.quantiles' default (exclusive) method at one cut."""
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    cuts = statistics.quantiles(xs, n=100)
    return cuts[int(round(q * 100)) - 1]


def drift(xs):
    """Median of the second half of a timed phase over the first half's."""
    h = len(xs) // 2
    if h == 0:
        return 1.0
    return statistics.median(xs[h:]) / statistics.median(xs[:h])


# Stratum medians moving by more than this between the halves of one
# run mean the run was not in a steady state.  On a shared 2-core host
# the machine's own speed moved by up to x1.6 between halves.
DRIFT_LIMIT = 2.0

# Timed segments per run (see campaign_workload).
SEGMENTS = 4

# Set-up passes: setup_s is their median, so one slow pass on the
# shared host does not move it.
SETUP_PASSES = 3


def spread_over(items, k):
    """`items` dealt round-robin into k groups."""
    return [items[i::k] for i in range(k)]


# -- offline campaign workloads --------------------------------------------------


def campaign_workload(workload, inp, run_dir, trace, failures, meta):
    limit = IKS_LIMIT if workload == "campaign-iks" else None
    models = {m["name"]: m for m in inp["models"]}
    paths = {}
    for name, m in models.items():
        paths[name] = os.path.join(run_dir, name + ".rtm")
        with open(paths[name], "w") as f:
            f.write(m["text"])

    if trace:
        refs = references(models, models, paths, limit, failures)
        return campaign_trace(workload, inp, run_dir, paths, refs, limit,
                              failures, meta)

    def one(name):
        wall, rc, out, rss = timed_child(
            [CSRTL, "inject", paths[name]] + inp["args"])
        return wall, (name, rc, sha(out)), rss

    # set-up: a warm-up campaign per model, SETUP_PASSES times
    passes, outputs = [], []
    for _ in range(SETUP_PASSES):
        passes.append(0.0)
        for name in models:
            wall, out, _ = one(name)
            passes[-1] += wall
            outputs.append(out)
    setup = statistics.median(passes)

    # the timed sequence runs in SEGMENTS parts, each after a share of
    # the reference building, so one run samples the host at several
    # moments instead of one window, every part in the same conditions
    walls, rss, timed, refs = [], [], 0.0, {}
    by_stratum, by_model = {}, {}
    seq = inp["sequence"]
    groups = spread_over(sorted(models), SEGMENTS)
    t_ref = 0.0
    for i in range(SEGMENTS):
        t = time.perf_counter()
        refs.update(references(groups[i], models, paths, limit, failures))
        t_ref += time.perf_counter() - t
        part = seq[i * len(seq) // SEGMENTS:(i + 1) * len(seq) // SEGMENTS]
        t0 = time.perf_counter()
        for name in part:
            wall, out, peak = one(name)
            walls.append(wall)
            outputs.append(out)
            rss.append(peak)
            by_stratum.setdefault(models[name]["stratum"], []).append(wall)
            by_model.setdefault(name, []).append(wall)
        timed += time.perf_counter() - t0
    meta["timed_s"] = timed
    meta["reference_s"] = t_ref
    oks = []
    for name, rc, digest in outputs:
        ok = rc == 0 and digest == refs[name]["sha256"]
        if not ok:
            failures.append(f"{name}: report differs from the reference"
                            if rc == 0 else f"{name}: exit {rc}")
        oks.append(ok)
    oks = oks[SETUP_PASSES * len(models):]
    faults = sum(refs[name]["summary"]["total"] for name in inp["sequence"])

    drifts = {str(s): drift(v) for s, v in by_stratum.items()}
    meta["drift"] = drifts
    meta["stratum_p50_ms"] = {str(s): statistics.median(v) * 1000
                              for s, v in sorted(by_stratum.items())}
    meta["model_ms"] = {n: [round(w * 1000, 1) for w in v]
                        for n, v in sorted(by_model.items())}
    for s, d in drifts.items():
        if not (1 / DRIFT_LIMIT <= d <= DRIFT_LIMIT):
            failures.append(f"stratum {s} drifted x{d:.2f} within the run")

    ms = [w * 1000 for w in walls]
    p50, p90 = statistics.median(ms), quantile(ms, 0.9)
    n = len(ms)
    meta["samples"] = {"campaign_p50_ms": n, "campaign_p90_ms": n,
                       "beyond_p90": sum(1 for x in ms if x > p90)}
    # offline every campaign is cold (a fresh process, nothing cached):
    # the per-kind and request metrics are the campaign ones, so every
    # workload prints every end-to-end metric
    metrics = {
        "setup_s": (setup, "s"),
        "faults_per_s": (faults / timed, "1/s"),
        "requests_per_s": (n / timed, "1/s"),
        "campaign_p50_ms": (p50, "ms"),
        "campaign_p90_ms": (p90, "ms"),
        "cold_p50_ms": (p50, "ms"),
        "warm_p50_ms": (p50, "ms"),
        "replay_p50_ms": (p50, "ms"),
        "request_p90_ms": (p90, "ms"),
        "peak_rss_mb": (max(rss), "MB"),
        "ok_frac": (sum(oks) / n, "ratio"),
    }
    return metrics, n, n - sum(oks)


def probe_trace(run_dir, names, paths, engine, jobs, limit, artifact):
    events = os.path.join(run_dir, "probe-events.json")
    summary = os.path.join(run_dir, "probe-summary.json")
    args = [PROBE, "trace", "--engine", engine, "--jobs", str(jobs),
            "--events", events, "--summary", summary]
    if limit is not None:
        args += ["--limit", str(limit)]
    if artifact:
        args.append("--artifact")
    run_checked(args + [paths[n] for n in names])
    with open(events) as f:
        ev = json.load(f)
    with open(summary) as f:
        sm = json.load(f)
    for e in ev:
        e["args"]["model"] = os.path.basename(e["args"]["model"])
    return ev, sm


def layer_ms(sm, name):
    layer = sm["layers"].get(name)
    if not layer or not layer["count"]:
        return 0.0
    return layer["self_ms"] / layer["count"]


def per_layer_from_probe(sm):
    faults_ms = layer_ms(sm, "campaign.faults")
    faults_s = sm["layers"].get("campaign.faults", {}).get("total_ms", 0) / 1e3
    return {
        "rtm.parse_ms": (layer_ms(sm, "rtm.parse"), "ms"),
        "batch.plan_ms": (layer_ms(sm, "batch.plan"), "ms"),
        "fault.enumerate_ms": (layer_ms(sm, "fault.enumerate"), "ms"),
        "campaign.prepare_ms": (layer_ms(sm, "campaign.prepare"), "ms"),
        "campaign.faults_ms": (faults_ms, "ms"),
        "campaign.render_ms": (layer_ms(sm, "campaign.render"), "ms"),
        "campaign.self_ms": (layer_ms(sm, "campaign"), "ms"),
        "gc.top_heap_mb": (sm["top_heap_mb"], "MB"),
        "gc.minor_words_per_fault": (sm["minor_words_per_fault"],
                                     "words/fault"),
        "batch.retire_ratio": (sm["retired_early"] / sm["batched"]
                               if sm["batched"] else 0.0, "ratio"),
        "campaign.batched": (sm["batched"], "count"),
        "campaign.kernel_path": (sm["kernel_path"], "count"),
        "campaign.retired_early": (sm["retired_early"], "count"),
        "kernel.delta_cycles": (sm["delta_cycles"], "count"),
        "kernel.delta_cycles_per_s": (sm["delta_cycles"] / faults_s
                                      if faults_s else 0.0, "1/s"),
        "kernel.law_violations": (sm["law_violations"], "count"),
        "campaign.disagreements": (sm["disagreements"], "count"),
        "frame.report_bytes": (sm["report_bytes"] / max(1, len(sm["reports"])),
                               "bytes"),
        "frame.decode_ms": (layer_ms(sm, "frame.decode"), "ms"),
        "artifact.bytes": (sm["artifact_bytes"] / max(1, len(sm["reports"])),
                           "bytes"),
        "artifact.to_string_ms": (layer_ms(sm, "artifact.to_string"), "ms"),
        "artifact.of_string_ms": (layer_ms(sm, "artifact.of_string"), "ms"),
        "bench.trace_overhead_frac": (sm["trace_overhead_frac"], "ratio"),
    }


def check_probe(sm, names, refs, failures):
    for f in sm["failures"]:
        failures.append("probe: " + f)
    ok = 0
    for name, text in zip(names, sm["reports"]):
        if sha(text.encode()) == refs[name]["sha256"]:
            ok += 1
        else:
            failures.append(f"{name}: in-process report differs from the "
                            "reference")
    if sm["law_violations"] or sm["disagreements"]:
        failures.append(f"probe: {sm['law_violations']} law violations, "
                        f"{sm['disagreements']} disagreements")
    return ok


def campaign_trace(workload, inp, run_dir, paths, refs, limit, failures,
                   meta):
    engine = "kernel" if workload == "campaign-kernel" else "auto"
    jobs = 0 if workload == "campaign-batched" else 1
    names = [m["name"] for m in inp["models"]]
    ev, sm = probe_trace(run_dir, names, paths, engine, jobs, limit, False)
    ok = check_probe(sm, names, refs, failures)
    metrics = per_layer_from_probe(sm)
    metrics.update(serve_layers_absent())
    meta["trace_events"] = ev
    meta["layers"] = sm["layers"]
    return metrics, len(names), len(names) - ok


def serve_layers_absent():
    """The daemon's layers are not on an offline workload's path."""
    out = {}
    for k in KINDS:
        out[f"serve.started_ms.{k}"] = (0.0, "ms")
        out[f"serve.campaign_ms.{k}"] = (0.0, "ms")
    for t in ("model", "plan", "golden"):
        out[f"cache.{t}.hit_ratio"] = (0.0, "ratio")
    out.update({
        "cache.golden.evictions": (0, "count"),
        "daemon.rss_mb": (0.0, "MB"),
        "journal.entries_written": (0, "count"),
        "journal.bytes": (0, "bytes"),
        "admission.queued_frac": (0.0, "ratio"),
        "admission.wait_ms": (0.0, "ms"),
        "engine.crashes": (0, "count"),
        "engine.restarts": (0, "count"),
        "engine.refused": (0, "count"),
    })
    return out


# -- serve-mix --------------------------------------------------------------------


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.rf = self.sock.makefile("rb")

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def recv(self):
        line = self.rf.readline()
        if not line:
            raise BenchError("the daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.rf.close()
        self.sock.close()


def frame(op, **kw):
    return dict({"csrtl": "req", "v": 3, "op": op}, **kw)


def inject_frame(text, resume):
    return frame("inject", model=text, engine="auto", batch=32,
                 limit=SERVE_LIMIT, table=True, stream=False, resume=resume)


def request(conn, text, resume):
    """One inject round trip: timestamps (perf_counter) of send, Queued,
    Started and the terminal frame, plus the frames themselves."""
    t = {"send": time.perf_counter()}
    conn.send(inject_frame(text, resume))
    started = None
    while True:
        r = conn.recv()
        kind = r.get("resp")
        if kind == "queued":
            t["queued"] = time.perf_counter()
        elif kind == "start":
            t["started"] = time.perf_counter()
            started = r
        elif kind in ("report", "refused", "drained"):
            t["done"] = time.perf_counter()
            return t, started, r


def stats(conn):
    conn.send(frame("stats"))
    r = conn.recv()
    if r.get("resp") != "stats":
        raise BenchError(f"stats request answered with {r.get('resp')}")
    return r


def vm_kb(pid, field):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


SERVE_FLAGS = ["--quiet"]  # everything else at the CLI defaults


def start_daemon(run_dir):
    sock = os.path.join(run_dir, "d.sock")
    state = os.path.join(run_dir, "state")
    log = open(os.path.join(run_dir, "serve.log"), "wb")
    t0 = time.perf_counter()
    p = subprocess.Popen([CSRTL, "serve", "--socket", sock,
                          "--state-dir", state] + SERVE_FLAGS,
                         stdout=log, stderr=log)
    log.close()
    deadline = t0 + 30
    while True:
        if p.poll() is not None:
            raise BenchError(f"csrtl serve exited {p.returncode} at start-up")
        try:
            c = Conn(sock)
            c.send(frame("ping"))
            if c.recv().get("resp") == "pong":
                c.close()
                return p, sock, state, t0
            c.close()
        except OSError:
            pass
        if time.perf_counter() > deadline:
            raise BenchError("csrtl serve did not answer a ping in 30 s")
        time.sleep(0.005)


def stop_daemon(p, sock):
    if p.poll() is None:
        try:
            c = Conn(sock)
            c.send(frame("shutdown"))
            c.recv()
            c.close()
        except (OSError, BenchError, ValueError):
            pass
        try:
            p.wait(timeout=20)
        except subprocess.TimeoutExpired:
            p.terminate()
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()


def primed_daemon(run_dir, prime):
    """Start a daemon and send it the priming requests: (process,
    socket, state dir, seconds from start to the last report, priming
    results).  A daemon whose priming fails is stopped."""
    daemon, sock, state, t0 = start_daemon(run_dir)
    try:
        results = run_closed_loop(sock, prime)
    except BaseException:
        stop_daemon(daemon, sock)
        raise
    return daemon, sock, state, time.perf_counter() - t0, results


def run_closed_loop(sock, jobs):
    """Closed loop: SERVE_CONNECTIONS persistent connections, each sending
    the next request of `jobs` (a list of (text, resume)) only after its
    previous one completed.  Returns results in job order."""
    results = [None] * len(jobs)
    lock = threading.Lock()
    nxt = [0]
    errors = []

    def worker(tid):
        try:
            c = Conn(sock)
            while True:
                with lock:
                    i = nxt[0]
                    nxt[0] += 1
                if i >= len(jobs):
                    break
                text, resume = jobs[i]
                t, started, r = request(c, text, resume)
                results[i] = (tid, t, started, r)
            c.close()
        except Exception as e:  # surfaced below, after every thread ends
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(SERVE_CONNECTIONS)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise BenchError(f"load generator failed: {errors[0]!r}")
    return results


def serve_workload(inp, run_dir, trace, failures, meta):
    models = {m["name"]: m for m in inp["models"]}
    checked = set(inp["hot"]) | {n for k, n in inp["sequence"] if k == "cold"}
    refs = {}
    paths = {}
    for name, m in models.items():
        paths[name] = os.path.join(run_dir, name + ".rtm")
        with open(paths[name], "w") as f:
            f.write(m["text"])

    def verify(name, kind, r):
        if r.get("resp") != "report" or r.get("status") != 0 \
                or r.get("code") != 0:
            failures.append(f"{name} ({kind}): {r.get('resp')} "
                            f"status {r.get('status')}")
            return False
        text = r["text"].encode()
        if name in refs:
            if sha(text) != refs[name]["sha256"]:
                failures.append(f"{name} ({kind}): report differs from the "
                                "reference")
                return False
        elif not summary_sane(summary_counts(text)):
            failures.append(f"{name} ({kind}): report is not clean")
            return False
        total = summary_counts(text)["total"]
        if kind == "replay" and (r["reused"] != total or r["rerun"] != 0):
            failures.append(f"{name}: replay re-ran {r['rerun']} faults")
            return False
        if kind in ("warm", "cold") and r["rerun"] != total:
            failures.append(f"{name} ({kind}): ran {r['rerun']} of {total}")
            return False
        return True

    # set-up: start to first pong, then every tier filled past its
    # capacity (fill models first, the hot set last so it is resident
    # and journaled when timing starts).  Every pass but the last starts
    # from an empty state dir and stops its daemon; the last one's
    # daemon is timed.
    prime = [(models[n]["text"], False) for n in inp["fill"] + inp["hot"]]
    setups, primed = [], []
    for _ in range(SETUP_PASSES - 1):
        daemon, sock, state, secs, out = primed_daemon(run_dir, prime)
        stop_daemon(daemon, sock)
        if daemon.returncode != 0:
            failures.append(f"csrtl serve exited {daemon.returncode}")
        shutil.rmtree(state)
        setups.append(secs)
        primed.append(out)
    daemon, sock, state, secs, out = primed_daemon(run_dir, prime)
    setups.append(secs)
    primed.append(out)
    setup = statistics.median(setups)
    try:
        ctl = Conn(sock)
        before = stats(ctl)
        for tier in ("model", "plan", "golden"):
            if before[f"{tier}_entries"] != before[f"{tier}_capacity"] \
                    or before[f"{tier}_evictions"] < 1:
                failures.append(f"{tier} tier not at capacity after set-up")

        # timed in SEGMENTS parts, each after a share of the reference
        # building (the daemon idles meanwhile), as offline
        jobs = [(models[n]["text"], k != "warm") for k, n in inp["sequence"]]
        groups = spread_over(sorted(checked), SEGMENTS)
        results, timed, t_ref = [], 0.0, 0.0
        for i in range(SEGMENTS):
            t = time.perf_counter()
            refs.update(references(groups[i], models, paths, SERVE_LIMIT,
                                   failures))
            t_ref += time.perf_counter() - t
            part = jobs[i * len(jobs) // SEGMENTS:
                        (i + 1) * len(jobs) // SEGMENTS]
            t = time.perf_counter()
            results += run_closed_loop(sock, part)
            timed += time.perf_counter() - t
        meta["timed_s"] = timed
        meta["reference_s"] = t_ref
        after = stats(ctl)
        ctl.close()
        hwm_mb = vm_kb(daemon.pid, "VmHWM") / 1024.0
        rss_mb = vm_kb(daemon.pid, "VmRSS") / 1024.0
    finally:
        stop_daemon(daemon, sock)
    if daemon.returncode != 0:
        failures.append(f"csrtl serve exited {daemon.returncode}")

    for out in primed:
        for name, (_, _, _, r) in zip(inp["fill"] + inp["hot"], out):
            verify(name, "cold", r)

    lat = {k: [] for k in KINDS}
    to_start = {k: [] for k in KINDS}
    in_campaign = {k: [] for k in KINDS}
    all_ms, oks, faults, rerun, queued, waits = [], [], 0, 0, 0, []
    events = []
    # trace timestamps in epoch microseconds, as the probe's
    epoch = time.time() - time.perf_counter()
    for (kind, name), (tid, t, _, r) in zip(inp["sequence"], results):
        ok = verify(name, kind, r)
        oks.append(ok)
        ms = (t["done"] - t["send"]) * 1000
        all_ms.append(ms)
        lat[kind].append(ms)
        if ok:
            faults += summary_counts(r["text"].encode())["total"]
            rerun += r["rerun"]
        if "started" in t:
            to_start[kind].append((t["started"] - t["send"]) * 1000)
            in_campaign[kind].append((t["done"] - t["started"]) * 1000)
        if "queued" in t:
            queued += 1
            waits.append((t.get("started", t["done"]) - t["queued"]) * 1000)
        base = (epoch + t["send"]) * 1e6
        events.append({"name": f"request.{kind}", "cat": "serve", "ph": "X",
                       "ts": base, "dur": ms * 1000, "pid": 2, "tid": tid,
                       "args": {"model": name}})
        if "started" in t:
            events.append({"name": "serve.started", "cat": "serve",
                           "ph": "X", "ts": base,
                           "dur": (t["started"] - t["send"]) * 1e6,
                           "pid": 2, "tid": tid, "args": {"model": name}})
            events.append({"name": "serve.campaign", "cat": "serve",
                           "ph": "X", "ts": (epoch + t["started"]) * 1e6,
                           "dur": (t["done"] - t["started"]) * 1e6,
                           "pid": 2, "tid": tid, "args": {"model": name}})

    drifts = {k: drift(v) for k, v in lat.items()}
    meta["drift"] = drifts
    for k, d in drifts.items():
        if not (1 / DRIFT_LIMIT <= d <= DRIFT_LIMIT):
            failures.append(f"{k} requests drifted x{d:.2f} within the run")
    for key in ("crashes", "restarts", "refused"):
        if after[key] != before[key]:
            failures.append(f"daemon {key} rose by "
                            f"{after[key] - before[key]}")

    n = len(all_ms)
    p50 = {k: statistics.median(v) for k, v in lat.items()}
    p90 = quantile(all_ms, 0.9)
    meta["samples"] = {f"{k}_p50_ms": len(v) for k, v in lat.items()}
    meta["samples"].update({"request_p90_ms": n,
                            "beyond_p90": sum(1 for x in all_ms if x > p90)})
    meta["daemon"] = {"flags": SERVE_FLAGS, "state_dir": state,
                      "socket": sock, "tmpfs": None}
    if trace:
        names = sorted(n for k, n in inp["sequence"] if k == "cold")
        ev, sm = probe_trace(run_dir, names, paths, "auto", 0, SERVE_LIMIT,
                             True)
        check_probe(sm, names, refs, failures)
        metrics = per_layer_from_probe(sm)

        def ratio(tier):
            h = after[f"{tier}_hits"] - before[f"{tier}_hits"]
            m = after[f"{tier}_misses"] - before[f"{tier}_misses"]
            return h / (h + m) if h + m else 0.0

        for k in KINDS:
            metrics[f"serve.started_ms.{k}"] = (
                statistics.median(to_start[k]) if to_start[k] else 0.0, "ms")
            metrics[f"serve.campaign_ms.{k}"] = (
                statistics.median(in_campaign[k]) if in_campaign[k] else 0.0,
                "ms")
        for tier in ("model", "plan", "golden"):
            metrics[f"cache.{tier}.hit_ratio"] = (ratio(tier), "ratio")
        metrics.update({
            "cache.golden.evictions": (after["golden_evictions"]
                                       - before["golden_evictions"], "count"),
            "daemon.rss_mb": (rss_mb, "MB"),
            "journal.entries_written": (rerun, "count"),
            "journal.bytes": (dir_bytes(state), "bytes"),
            "admission.queued_frac": (queued / n, "ratio"),
            "admission.wait_ms": (statistics.median(waits) if waits else 0.0,
                                  "ms"),
            "engine.crashes": (after["crashes"] - before["crashes"], "count"),
            "engine.restarts": (after["restarts"] - before["restarts"],
                                "count"),
            "engine.refused": (after["refused"] - before["refused"], "count"),
        })
        meta["trace_events"] = ev + events
        meta["layers"] = sm["layers"]
        return metrics, n, n - sum(oks)

    metrics = {
        "setup_s": (setup, "s"),
        "faults_per_s": (faults / timed, "1/s"),
        "requests_per_s": (n / timed, "1/s"),
        # a campaign on a model nothing has cached: the offline meaning
        "campaign_p50_ms": (p50["cold"], "ms"),
        "campaign_p90_ms": (p90, "ms"),
        "cold_p50_ms": (p50["cold"], "ms"),
        "warm_p50_ms": (p50["warm"], "ms"),
        "replay_p50_ms": (p50["replay"], "ms"),
        "request_p90_ms": (p90, "ms"),
        "peak_rss_mb": (hwm_mb, "MB"),
        "ok_frac": (sum(oks) / n, "ratio"),
    }
    return metrics, n, n - sum(oks)


# -- metadata ------------------------------------------------------------------------


def git_revision(out):
    """HEAD, when the checkout itself is a git work tree."""
    top = out(["git", "rev-parse", "--show-toplevel"])
    if top and os.path.realpath(top) == os.path.realpath("."):
        return out(["git", "rev-parse", "HEAD"])
    return None


def host_meta():
    def out(args):
        try:
            r = subprocess.run(args, capture_output=True, timeout=30)
            return r.stdout.decode().strip() if r.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    src = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for root, _, files in sorted(os.walk(top)):
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    src.update(name.encode())
                    with open(os.path.join(root, name), "rb") as f:
                        src.update(f.read())
    return {"nproc": os.cpu_count(),
            "ocaml": out(["ocamlfind", "ocamlopt", "-version"])
            or out(["ocamlopt", "-version"]),
            "git": git_revision(out),
            "source_sha256": src.hexdigest()}


def run(args):
    build()
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    failures = []
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": host_meta()}
    try:
        inp = make_inputs(args.workload, args.seed, args.seconds)
        # the same seed must give byte-identical inputs and a different
        # seed different ones
        again = make_inputs(args.workload, args.seed, args.seconds)
        other = make_inputs(args.workload, args.seed + 1, args.seconds)
        digest = inputs_digest(inp)
        meta["inputs_sha256"] = digest
        if inputs_digest(again) != digest:
            failures.append("the same seed gave different inputs")
        if inputs_digest(other) == digest:
            failures.append("a different seed gave the same inputs")
        if args.workload == "serve-mix":
            metrics, attempted, failed = serve_workload(
                inp, run_dir, args.trace, failures, meta)
        else:
            metrics, attempted, failed = campaign_workload(
                args.workload, inp, run_dir, args.trace, failures, meta)
        if args.trace:
            path = os.path.join(
                WORK, f"trace-{args.workload}-{args.seed}.json")
            with open(path, "w") as f:
                json.dump({"traceEvents": meta.pop("trace_events"),
                           "displayTimeUnit": "ms"}, f)
            meta["trace_file"] = path
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    out = {"correct": not failures and failed == 0,
           "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()}}
    meta["failures"] = failures[:50]
    for f in failures[:20]:
        print("FAIL " + f, file=sys.stderr)
    print("perfbench-result " + json.dumps(dict(meta, result=out)))
    print(json.dumps(out))


# -- compare ---------------------------------------------------------------------------


def load_results(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = []
    for name in files:
        with open(name) as f:
            for line in f:
                if line.startswith("perfbench-result "):
                    runs.append(json.loads(line[len("perfbench-result "):]))
    return runs


def compare(parent_path, change_path):
    """One row per workload and metric: quartiles and median of both
    sides, the share of pairs the change wins (runs paired by seed, else
    in order), whether the gap between the medians exceeds the parent's
    IQR, and a verdict by the rules of the choosing-metrics guide: a gain
    needs 9/10 wins and a gap beyond the parent's IQR; a median worse by
    more than the bound is a regression; a spread wider than the bound
    leaves the metric unresolved unless every change run beats every
    parent run."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent, change = load_results(parent_path), load_results(change_path)

    def values(runs, m):
        return {r["seed"]: r["result"]["metrics"][m]["value"] for r in runs
                if m in r["result"]["metrics"]}

    def quartiles(xs):
        return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3

    print(f"{'workload':<24} {'metric':<26} {'parent q1/med/q3':>26} "
          f"{'change q1/med/q3':>26} {'wins':>7} {'>IQR':>5}  verdict")
    keys = sorted({(r["workload"], r["trace"]) for r in parent + change})
    for wl, tr in keys:
        ps = [r for r in parent if (r["workload"], r["trace"]) == (wl, tr)]
        cs = [r for r in change if (r["workload"], r["trace"]) == (wl, tr)]
        for m in sorted({m for r in ps + cs for m in r["result"]["metrics"]}):
            pvals, cvals = values(ps, m), values(cs, m)
            if not pvals or not cvals:
                continue
            pv, cv = list(pvals.values()), list(cvals.values())
            pairs = [(pvals[s], cvals[s]) for s in cvals if s in pvals] \
                or list(zip(pv, cv))
            sign = 1 if better[m] == "higher" else -1
            wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
            pq, cq = quartiles(pv), quartiles(cv)
            pmed, cmed = statistics.median(pv), statistics.median(cv)
            exceeds = abs(cmed - pmed) > pq[2] - pq[0]
            bound = bounds.get(m)
            if wins >= 0.9 * len(pairs) and exceeds and sign * (cmed - pmed) > 0:
                verdict = "gain"
            elif bound is None:
                verdict = "-"
            elif sign * (cmed - pmed) < -bound * abs(pmed):
                verdict = "regression"
            elif (pq[2] - pq[0]) > bound * abs(pmed) and not (
                    min(sign * c for c in cv) > max(sign * p for p in pv)):
                verdict = "unresolved"
            else:
                verdict = "within bound"
            fmt = (lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}")
            label = wl + (" (trace)" if tr else "")
            print(f"{label:<24} {m:<26} {fmt(pq):>26} {fmt(cq):>26} "
                  f"{f'{wins}/{len(pairs)}':>7} {'yes' if exceeds else 'no':>5}"
                  f"  {verdict}")


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        compare(sys.argv[2], sys.argv[3])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=BASE_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a SIGTERM still runs the finally blocks that stop the daemon
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
