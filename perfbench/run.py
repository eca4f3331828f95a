#!/usr/bin/env python3
"""The segram benchmark: four workloads, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: map-short-bgzf, map-long, store-evolve (see
perfbench/README.md for what each measures and why).

The script builds the program under test (`segram`, from the repository's
own workspace) and the benchmark harness (`perfbench/`, a package of its
own) into $CARGO_TARGET_DIR (default `.bench_build`), generates the
workload's inputs from --seed, runs the workload for --seconds, checks the
outputs, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Any failed correctness check prints the result with "correct": false and
exits 1; a build or set-up failure exits 2 without a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(HERE, "workloads.json")) as _f:
    CONFIG = json.load(_f)

END_TO_END = [
    "reads_per_s", "setup_s", "peak_rss_mb", "correct_frac", "ok_frac",
    "interactive_p50_ms", "interactive_p90_ms", "slo_met_frac", "bulk_p50_ms",
    "update_p50_ms", "reload_p50_ms",
]
UNITS = {
    "reads_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "correct_frac": "frac",
    "ok_frac": "frac", "slo_met_frac": "frac",
}
PER_LAYER = [
    ("io.inflate_ms", "ms"), ("io.inflate_mb_per_s", "MB/s"), ("io.decode_ms", "ms"),
    ("io.render_ms", "ms"), ("io.write_ms", "ms"),
    ("index.seed_ms", "ms"), ("index.minimizers_per_read", "count"),
    ("index.seed_locations_per_read", "count"), ("index.regions_per_read", "count"),
    ("align.ms", "ms"), ("align.busy_frac", "frac"), ("align.calls_per_read", "count"),
    ("align.ns_per_call", "ns"), ("align.cells", "count"), ("align.ns_per_cell", "ns"),
    ("align.err_frac", "frac"), ("align.useful_frac", "frac"), ("align.x_modeled", "x"),
    ("align.x_graph_dp", "x"),
    ("pipeline.self_ms", "ms"), ("pipeline.retry_frac", "frac"),
    ("engine.worker_busy_frac", "frac"), ("engine.batches", "count"),
    ("engine.producer_wait_ms", "ms"), ("engine.worker_wait_ms", "ms"),
    ("engine.writer_wait_ms", "ms"), ("engine.read_ms_p50", "ms"), ("engine.read_ms_p99", "ms"),
    ("serve.connect_ms", "ms"), ("serve.ttfb_ms", "ms"), ("serve.queue_delay_p50_us", "us"),
    ("serve.queue_delay_p99_us", "us"), ("serve.busy_replies", "count"),
    ("serve.generator_late_ms", "ms"),
    ("store.build_ms", "ms"), ("store.update_ms", "ms"), ("store.write_ms", "ms"),
    ("store.read_ms", "ms"), ("store.reextract_frac", "frac"), ("store.file_mb", "MB"),
    ("shard.delta_swap_ms", "ms"), ("shard.rebuild_ms", "ms"), ("shard.dirty_frac", "frac"),
    ("shard.delta_route_frac", "frac"),
    ("trace.overhead_frac", "frac"), ("trace.self_sum_gap", "frac"),
]

# Tolerance of the span ledger: per-layer self times must add up to the
# mapper spans' busy time within this share, and that busy time must agree
# with the program's own stage times (`MapStats`) within the second.
SELF_SUM_TOLERANCE = 0.01
PROGRAM_GAP_TOLERANCE = 0.05
# Timeouts keep every child bounded; a run must end within 180 s.
STEP_TIMEOUT = 150


class Failure(Exception):
    """A set-up step failed: the run cannot produce a result."""


class Bench:
    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.seconds = args.seconds
        self.target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.segram = os.path.join(self.target, "release", "segram")
        self.harness = os.path.join(self.target, "release", "segram-perfbench")
        self.work = os.path.join(
            self.target, "perfbench-work", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
        self.children = []
        self.checks = []  # (name, passed, detail)

    # -- processes ---------------------------------------------------------

    def path(self, name):
        return os.path.join(self.work, name)

    def run(self, cmd, name="step"):
        """Runs a child to completion; returns (wall_s, max_rss_mb, stdout)."""
        out_path = self.path(f"{name}.stdout")
        err_path = self.path(f"{name}.stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.work)
            self.children.append(proc)
            deadline = started + STEP_TIMEOUT
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.children.remove(proc)
        with open(out_path, "rb") as f:
            stdout = f.read().decode(errors="replace")
        if proc.returncode != 0:
            with open(err_path, "rb") as f:
                detail = f.read().decode(errors="replace").strip()[-400:]
            raise Failure(f"{' '.join(cmd[:3])} exited {proc.returncode}: {detail}")
        return wall, usage.ru_maxrss / 1024.0, stdout

    def harness_json(self, *args):
        _, _, out = self.run([self.harness, *map(str, args)], name="harness")
        return json.loads(out.strip().splitlines()[-1])

    def check(self, name, passed, detail=""):
        self.checks.append((name, bool(passed), detail))
        if not passed:
            print(f"check failed: {name} {detail}", file=sys.stderr)

    def stop_children(self):
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        self.children = []

    # -- digests -----------------------------------------------------------

    def digest_check(self, key, data):
        """Output digest must be identical across runs of one seed: the
        first run of a (program build, workload, seed, item) records it,
        every later one compares."""
        build = self.binary_id()
        store = os.path.join(self.target, "perfbench-digests", build, self.args.workload,
                             str(self.seed))
        os.makedirs(store, exist_ok=True)
        digest = hashlib.sha256(data).hexdigest()
        path = os.path.join(store, key)
        if os.path.exists(path):
            with open(path) as f:
                recorded = f.read().strip()
            self.check(f"digest {key}", recorded == digest, f"{recorded} != {digest}")
        else:
            with open(path, "w") as f:
                f.write(digest)

    def binary_id(self):
        """Names the program build, the harness build and the workload
        constants: a digest is only comparable across identical ones."""
        if not hasattr(self, "_binary_id"):
            h = hashlib.sha256()
            for path in (self.segram, self.harness, os.path.join(HERE, "workloads.json")):
                with open(path, "rb") as f:
                    h.update(f.read())
            self._binary_id = h.hexdigest()[:16]
        return self._binary_id


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "segram-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if proc.returncode != 0:
            raise Failure(f"build failed: {' '.join(cmd)}")


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    """Nearest-rank quantile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, int(-(-q * len(ordered) // 1))))
    return ordered[rank - 1]


def read_fastq(path):
    with open(path) as f:
        lines = f.read().splitlines()
    return ["\n".join(lines[i:i + 4]) + "\n" for i in range(0, len(lines), 4)]


def sam_records(text):
    return [line for line in text.splitlines(keepends=True) if not line.startswith("@")]


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# -- map workloads ----------------------------------------------------------

def map_workload(b, kind):
    cfg = CONFIG[kind]
    short = kind == "map-short-bgzf"
    b.harness_json("gen-ref", "--len", cfg["ref_len"], "--ref-seed", cfg["ref_seed"],
                   "--out-prefix", b.path("ref"))
    open(b.path("empty.fq"), "w").close()
    preset = cfg["preset"]
    fmt = cfg["format"]
    store = b.path("ref.sgi")
    source = ["--graph", b.path("ref.gfa")] if short else ["--index", store]
    flags = ["--threads", "2", "--preset", preset, "--format", fmt]
    if cfg["both_strands"]:
        flags.append("--both-strands")

    # Set-up: a store build, then a map over no reads (process start,
    # graph or store load, index build for --graph). It is repeated at the
    # start and between chunks, so a short slow spell of the machine moves
    # only some repetitions and not the median.
    loads, setups, rss = [], [], []

    def setup_rep():
        build_s, peak, _ = b.run([b.segram, "index", "build", "--reference", b.path("ref.fa"),
                                  "--vcf", b.path("ref.vcf"), "--preset", preset,
                                  "--output", store], name="build")
        rss.append(peak)
        wall, peak, _ = b.run([b.segram, "map", *source, "--reads", b.path("empty.fq"), *flags,
                               "--output", b.path("empty.out")], name="load")
        loads.append(wall)
        rss.append(peak)
        setups.append(wall + (0 if short else build_s))

    for _ in range(CONFIG["setup_reps"]):
        setup_rep()

    # One round maps the workload's fixed read panel, one `segram map` per
    # chunk; rounds repeat the same files, so every repeat must give the
    # same bytes.
    chunks = []
    for c in range(cfg["round_reads"] // cfg["chunk_reads"]):
        fq = b.path(f"chunk{c:03d}.fq")
        b.harness_json("gen-reads", "--index", store, "--count", cfg["chunk_reads"],
                       "--first", c * cfg["chunk_reads"], "--len", cfg["read_len"],
                       "--error", cfg["error"], "--reverse-frac", cfg["reverse_frac"],
                       "--seed", b.seed, "--name-prefix", f"s{b.seed}r", "--out", fq)
        reads_in = fq
        if short:
            reads_in = fq + ".gz"
            b.run([b.segram, "bgzip", "--input", fq, "--output", reads_in], name="bgzip")
        chunks.append((fq, reads_in))
    trace = b.args.trace == 1
    budget = b.seconds / 2 if trace else b.seconds
    chunk_walls, chunk_reads, chunk_ok, outputs = [], [], [], []
    reads_total = correct = records_ok = 0
    first_round = {}
    measured = 0.0
    rounds = 0
    # Another round starts only while a whole round still fits in the
    # budget; the first round always runs.
    while (rounds == 0 or measured * (1 + 1 / rounds) <= budget) and \
            rounds < cfg["max_rounds"]:
        for c, (fq, reads_in) in enumerate(chunks):
            out = b.path(f"chunk{c:03d}.{fmt}")
            wall, peak, _ = b.run([b.segram, "map", *source, "--reads", reads_in, *flags,
                                   "--output", out], name="map")
            rss.append(peak)
            measured += wall
            for _ in range(CONFIG["setup_reps"]):
                setup_rep()
            with open(out, "rb") as f:
                data = f.read()
            if rounds == 0:
                first_round[c] = data
                b.digest_check(f"chunk{c:03d}", data)
                truth = b.harness_json("truth", "--index", store, "--reads", fq, "--doc", out,
                                       "--tolerance", cfg["tolerance"])
                correct += truth["correct"]
                n = truth["reads"]
                records = len(sam_records(data.decode())) if fmt == "sam" else n
                chunk_reads.append(n)
                chunk_ok.append(min(records, n))
                outputs.append(out)
            else:
                b.check(f"round {rounds} chunk {c} repeats round 0", data == first_round[c])
            reads_total += chunk_reads[c]
            records_ok += chunk_ok[c]
            chunk_walls.append(wall)
        rounds += 1
    inputs = [reads_in for _, reads_in in chunks]
    panel_reads = sum(chunk_reads)
    per_round = len(chunks)
    round_walls = [sum(chunk_walls[r * per_round:(r + 1) * per_round]) for r in range(rounds)]

    load_s = median(loads)
    map_s = sum(chunk_walls) - len(chunk_walls) * load_s
    metrics = {
        "reads_per_s": reads_total / max(map_s, 1e-9),
        "setup_s": median(setups),
        "peak_rss_mb": max(rss),
        "correct_frac": correct / max(panel_reads, 1),
        "ok_frac": records_ok / max(reads_total, 1),
        # A batch user waits for the whole panel: one round of `segram map`.
        "interactive_p50_ms": quantile(round_walls, 0.5) * 1e3,
        "interactive_p90_ms": quantile(round_walls, 0.9) * 1e3,
        "slo_met_frac": sum(w <= cfg["chunk_limit_s"] for w in chunk_walls) / len(chunk_walls),
        "bulk_p50_ms": quantile(round_walls, 0.5) / panel_reads * 1e3,
        # A batch user's update and reload is one `segram map` process
        # over a chunk: its latency, and its latency per read.
        "update_p50_ms": quantile(chunk_walls, 0.5) * 1e3,
        "reload_p50_ms": quantile([w / n for w, n in zip(chunk_walls, chunk_reads * rounds)],
                                  0.5) * 1e3,
    }
    attempted, failed = reads_total, reads_total - records_ok
    if not trace:
        return metrics, attempted, failed

    # Traced run over the same chunks: same bytes, per-layer metrics.
    trace_dir = b.path("trace")
    os.makedirs(trace_dir, exist_ok=True)
    layers = b.harness_json("trace-map", *source, "--preset", preset,
                            "--both-strands", int(cfg["both_strands"]), "--format", fmt,
                            "--threads", 2, "--reads", ",".join(inputs), "--out-dir", trace_dir,
                            "--dp-pairs", cfg["dp_pairs"],
                            "--spans-out", os.path.join(trace_dir, "spans.tsv"))
    for cli_out, traced_out in zip(outputs, layers["outputs"]):
        with open(cli_out, "rb") as f1, open(traced_out, "rb") as f2:
            b.check(f"traced bytes {os.path.basename(cli_out)}", f1.read() == f2.read())
    check_layers(b, layers)
    layers["trace.overhead_frac"] = 1 - layers["reads_per_s"] / metrics["reads_per_s"]
    return layers, attempted, failed


def check_layers(b, layers):
    b.check("span self times sum to mapper busy time",
            layers["trace.self_sum_gap"] <= SELF_SUM_TOLERANCE, str(layers["trace.self_sum_gap"]))
    b.check("mapper spans match the program's stage times",
            layers["trace.program_gap"] <= PROGRAM_GAP_TOLERANCE, str(layers["trace.program_gap"]))
    b.check("BitAlign distance equals graph_dp_distance on the sample",
            layers["align.dp_mismatches"] == 0 and layers["align.dp_pairs"] > 0,
            f'{layers["align.dp_mismatches"]} of {layers["align.dp_pairs"]}')


# -- the daemon -------------------------------------------------------------

class Daemon:
    def __init__(self, b, args):
        self.b = b
        self.log = open(b.path("serve.stderr"), "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen([b.segram, "serve", *args, "--addr", "127.0.0.1:0",
                                      "--quiet"], stdout=subprocess.PIPE, stderr=self.log,
                                     cwd=b.work)
        b.children.append(self.proc)
        ready, _, _ = select.select([self.proc.stdout], [], [], STEP_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("listening on "):
            raise Failure(f"segram serve did not start: {line!r}")
        self.startup_s = time.perf_counter() - started
        host, port = line.split()[-1].rsplit(":", 1)
        self.addr = (host, int(port))

    def connect(self):
        sock = socket.create_connection(self.addr, timeout=STEP_TIMEOUT)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def command(self, line):
        """One control line (`RELOAD <path>`, `QUIT`); returns the reply."""
        with self.connect() as sock:
            sock.sendall(line.encode() + b"\n")
            return sock.makefile("rb").readline().decode().strip()

    def request(self, payload, header):
        """One MAP/2 request. Returns timings relative to the call, the
        status (`END`, `BUSY`, `ERR`), the document and the END fields."""
        t0 = time.perf_counter()
        sock = self.connect()
        t_conn = time.perf_counter()
        reply = {"start": t0, "connect": t_conn - t0, "doc": b"", "fields": {}}
        with sock:
            sock.sendall(f"MAP/2 {len(payload)} {header}\n".encode() + payload)
            t_sent = time.perf_counter()
            reader = sock.makefile("rb")
            status = reader.readline().decode().strip()
            reply["status"] = status.split(" ")[0] if status else "ERR"
            if status == "OK":
                chunks = []
                while True:
                    line = reader.readline().decode().strip()
                    if line.startswith("CHUNK "):
                        if not chunks:
                            reply["ttfb"] = time.perf_counter() - t_sent
                        chunks.append(reader.read(int(line.split()[1])))
                    else:
                        break
                reply["doc"] = b"".join(chunks)
                if line.startswith("END "):
                    reply["status"] = "END"
                    reply["fields"] = dict(kv.split("=", 1) for kv in line.split()[1:])
                else:
                    reply["status"] = "ERR"
        reply["done"] = time.perf_counter()
        return reply

    def quit(self):
        try:
            self.command("QUIT")
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.b.children.remove(self.proc)
        self.log.close()


def serve_layers(replies):
    done = [r for r in replies if r["status"] == "END"]
    return {
        "serve.connect_ms": median([r["connect"] * 1e3 for r in replies]),
        "serve.ttfb_ms": median([r["ttfb"] * 1e3 for r in done if "ttfb" in r]),
        "serve.queue_delay_p50_us": median([float(r["fields"]["p50us"]) for r in done]),
        "serve.queue_delay_p99_us": median([float(r["fields"]["p99us"]) for r in done]),
        "serve.busy_replies": sum(r["status"] == "BUSY" for r in replies),
        "serve.generator_late_ms": max([r.get("late", 0.0) * 1e3 for r in replies] + [0.0]),
    }


# -- store-evolve -----------------------------------------------------------

def store_workload(b):
    cfg = CONFIG["store-evolve"]
    short = CONFIG["map-short-bgzf"]
    windows = cfg["max_epochs"]
    deltas = b.harness_json("gen-store", "--len", cfg["ref_len"], "--ref-seed", cfg["ref_seed"],
                            "--seed", b.seed, "--windows", windows,
                            "--window-len", cfg["window_len"], "--dir", b.work)["deltas"]
    store = b.path("store.sgi")
    serve_args = ["--shards", str(cfg["shards"]), "--threads", "2", "--both-strands"]
    setups, rss = [], []

    def setup_rep(path):
        """Base build plus daemon start-up; returns the running daemon."""
        wall, peak, _ = b.run([b.segram, "index", "build", "--reference", b.path("ref.fa"),
                               "--vcf", b.path("base.vcf"), "--output", path], name="build")
        rss.append(peak)
        daemon = Daemon(b, ["--index", path, *serve_args])
        setups.append(wall + daemon.startup_s)
        return daemon

    for _ in range(cfg["setup_reps"] - 1):
        setup_rep(b.path("setup.sgi")).quit()
    daemon = setup_rep(store)
    shutil.copyfile(store, b.path("base.sgi"))

    # The timed loop: `index update` beside the live daemon, then RELOAD.
    trace = b.args.trace == 1
    updates, reloads, modes = [], [], []
    measured = 0.0
    epoch = 0
    while (measured < b.seconds or epoch == 0) and epoch < windows:
        wall, peak, _ = b.run([b.segram, "index", "update", "--index", store,
                               "--vcf", b.path(f"delta_{epoch:03d}.vcf"), "--output", store],
                              name="update")
        rss.append(peak)
        started = time.perf_counter()
        reply = daemon.command(f"RELOAD {store}")
        reload_s = time.perf_counter() - started
        b.check(f"epoch {epoch} RELOADED", reply.startswith("RELOADED "), reply)
        modes.append("mode=delta" in reply)
        updates.append(wall)
        reloads.append(reload_s)
        measured += wall + reload_s
        epoch += 1

    # Outside the timed part: the evolved store must equal a scratch build
    # over the same variants, and a probe must map as the scratch store does.
    merged = b.path("merged.vcf")
    with open(b.path("base.vcf")) as f:
        lines = f.read().splitlines(keepends=True)
    header = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    for e in range(epoch):
        with open(b.path(f"delta_{e:03d}.vcf")) as f:
            body += [l for l in f if not l.startswith("#")]
    body.sort(key=lambda l: int(l.split("\t")[1]))
    with open(merged, "w") as f:
        f.write("".join(header + body))
    scratch = b.path("scratch.sgi")
    b.run([b.segram, "index", "build", "--reference", b.path("ref.fa"), "--vcf", merged,
           "--output", scratch], name="scratch")
    evolved_id = b.harness_json("identity", "--index", store)
    scratch_id = b.harness_json("identity", "--index", scratch)
    b.check("evolved store identity equals scratch build",
            evolved_id["identity"] == scratch_id["identity"],
            f'{evolved_id["identity"]} vs {scratch_id["identity"]}')
    b.check("evolved store epoch", evolved_id["epoch"] == epoch, str(evolved_id["epoch"]))

    probe_fq = b.path("probe.fq")
    b.harness_json("gen-reads", "--index", store, "--count", cfg["probe_reads"], "--first", 0,
                   "--len", short["read_len"], "--error", short["error"],
                   "--reverse-frac", short["reverse_frac"], "--seed", b.seed,
                   "--name-prefix", f"s{b.seed}p", "--out", probe_fq)
    probes = read_fastq(probe_fq)
    limit = cfg["limit_ms"]
    reply = daemon.request("".join(probes).encode(),
                           f"fmt=sam prio=interactive deadline-ms={limit}")
    rss.append(vm_hwm_mb(daemon.proc.pid))
    daemon.quit()
    for _ in range(cfg["setup_reps"] - 1):
        setup_rep(b.path("setup.sgi")).quit()
    oneshot = b.path("probe.sam")
    b.run([b.segram, "map", "--index", scratch, "--reads", probe_fq, "--threads", "2",
           "--both-strands", "--output", oneshot], name="probe")
    with open(oneshot) as f:
        expected_text = f.read()
    got = reply["doc"].decode() if reply["status"] == "END" else ""
    b.check("probe reply equals scratch-store map", got == expected_text)
    # The probe maps against the evolved store, so it depends on how many
    # epochs this run applied.
    b.digest_check(f"probe-epoch{epoch}", expected_text.encode())
    same = sum(a == e for a, e in zip(sam_records(got), sam_records(expected_text)))

    ok_epochs = sum(1 for name, passed, _ in b.checks if name.endswith("RELOADED") and passed)
    epoch_s = [u + r for u, r in zip(updates, reloads)]
    metrics = {
        # Store throughput: delta variants applied per second of epochs.
        "reads_per_s": sum(deltas[:epoch]) / sum(epoch_s),
        "setup_s": median(setups),
        "peak_rss_mb": max(rss),
        "correct_frac": same / len(probes),
        "ok_frac": ok_epochs / epoch,
        # The serving side's latency-critical operation is the reload.
        "interactive_p50_ms": quantile(reloads, 0.5) * 1e3,
        "interactive_p90_ms": quantile(reloads, 0.9) * 1e3,
        "slo_met_frac": sum(x * 1e3 <= limit for x in epoch_s) / epoch,
        "bulk_p50_ms": median(epoch_s) * 1e3,
        "update_p50_ms": median(updates) * 1e3,
        "reload_p50_ms": median(reloads) * 1e3,
    }
    attempted, failed = epoch, epoch - ok_epochs
    if not trace:
        return metrics, attempted, failed

    layers = b.harness_json("trace-store", "--dir", b.work, "--base", b.path("base.sgi"),
                            "--epochs", min(epoch, cfg["trace_epochs"]),
                            "--shards", cfg["shards"])
    trace_dir = b.path("trace")
    os.makedirs(trace_dir, exist_ok=True)
    mapped = b.harness_json("trace-map", "--index", scratch, "--preset", "short",
                            "--both-strands", 1, "--format", "sam", "--threads", 2,
                            "--reads", probe_fq, "--out-dir", trace_dir,
                            "--dp-pairs", short["dp_pairs"])
    with open(mapped["outputs"][0]) as f:
        b.check("traced bytes equal one-shot map", f.read() == expected_text)
    check_layers(b, mapped)
    # The store layer's numbers come from trace-store, the rest from the
    # traced probe map.
    mapped.pop("store.read_ms", None)
    layers.update({k: v for k, v in mapped.items() if k not in layers})
    # Untraced side: the daemon's probe request over an already loaded store.
    untraced = len(probes) / (reply["done"] - reply["start"])
    layers["trace.overhead_frac"] = 1 - mapped["reads_per_s"] / untraced
    layers.update(serve_layers([reply]))
    layers["shard.delta_route_frac"] = sum(modes) / len(modes)
    return layers, attempted, failed


WORKLOADS = {
    "map-short-bgzf": lambda b: map_workload(b, "map-short-bgzf"),
    "map-long": lambda b: map_workload(b, "map-long"),
    "store-evolve": store_workload,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    b = Bench(args)
    # A terminated run still stops its children (the `finally` below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    try:
        build(b.target)
        shutil.rmtree(b.work, ignore_errors=True)
        os.makedirs(b.work)
        metrics, attempted, failed = WORKLOADS[args.workload](b)
    except (Failure, OSError, subprocess.SubprocessError, ValueError, KeyError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        sys.exit(2)
    finally:
        b.stop_children()
        shutil.rmtree(b.work, ignore_errors=True)

    names = [(n, UNITS.get(n, "ms")) for n in END_TO_END] if args.trace == 0 else PER_LAYER
    correct = all(passed for _, passed, _ in b.checks)
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in names},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
