"""convrec benchmark: seeded workloads driven through the package's public calls.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing; every time is
scaled to the speed of a fixed reference kernel sampled around it (see
reference.py). ``--trace 1`` runs the workload once untraced and once traced,
checks that both produce byte-identical outputs, and reports per-layer metrics
from the traced run.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before numpy loads, here and in every child process:
# one thread gave the steadiest training times on a 2-vCPU machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import sys

sys.dont_write_bytecode = True  # leave no caches in the checkout

import argparse
import hashlib
import json
import math
import platform
import shutil
import statistics
import subprocess
import threading
import time
from pathlib import Path

from reference import Helper
from tracer import LAYERS, family, summarize
from workloads import (KS, RECOMMEND_K, SESSION_TURNS, WORKLOADS, count_lines, generate,
                       session_turns)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

BUDGET_S = 170.0            # every run ends well inside the 180 s limit
SETUP_REPS = 3             # before the first repetition, then
SETUP_REPS_BETWEEN = 2     # after each repetition
MAX_TRAIN_REPS = 50
MIN_TIMED_TURNS = 200       # so that at least 10 turns lie beyond p95
TRACE_SESSIONS = 11         # 11 sessions x 19 timed turns = 209 timed turns
EVAL_SPLITS = ("test", "valid", "train")

# Per-layer times reported as metrics: spans present on every workload.
# Spans that some workload never enters (retrieve on train-catalog; backward,
# adam_step, the loss and the training loop on recommend-session) are printed
# in the report instead, so no metric is a constant zero.
LAYER_TIMES = (
    "cli.load_bundle", "corpus.load_corpus", "corpus.derive_examples",
    "graphs.load_item_kg", "graphs.load_interaction_graph", "graphs.load_word_graph",
    "retrieval.load_index", "optim.load_checkpoint",
    "encoders.encode_items", "encoders.rgcn_forward.kg", "encoders.rgcn_forward.ig",
    "encoders.gcn_forward", "preference.build_user_representation",
    "recommender.score_all",
)
LAYER_CALLS = (
    "retrieval.retrieve", "encoders.encode_items", "autodiff.backward",
    "recommender.score_all", "preference.build_user_representation", "optim.adam_step",
)
REPORT_ONLY_TIMES = (
    ("retrieval.retrieve", "total_s"), ("retrieval.build_index", "total_s"),
    ("autodiff.backward", "total_s"), ("autodiff.neighbor_sum", "total_s"),
    ("optim.adam_step", "total_s"), ("recommender.rec_loss", "total_s"),
    ("recommender.batch_loss", "self_s"), ("recommender.evaluate", "total_s"),
    ("recommender.train", "self_s"),
)


def log(line: str = "") -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# run record


def run_record(workload: str, seed: int, sizes: dict) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "inputs": sizes,
    }


# ---------------------------------------------------------------------------
# checks


class Tally:
    """Attempted and failed operations: train runs, eval examples, recommend turns."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


def report_problems(report_json: str, split: str, examples: int, pairs: int) -> list[str]:
    report = json.loads(report_json)
    problems = []
    if report["split"] != split:
        problems.append(f"split {report['split']!r} != {split!r}")
    if report["examples"] != examples or report["pairs"] != pairs:
        problems.append(f"{split}: examples/pairs {report['examples']}/{report['pairs']} "
                        f"!= generated {examples}/{pairs}")
    recall = [report["recall"][k] for k in sorted(report["recall"], key=int)]
    mrr = [report["mrr"][k] for k in sorted(report["mrr"], key=int)]
    if any(not 0.0 <= v <= 1.0 for v in recall + mrr):
        problems.append(f"{split}: metric outside [0, 1]")
    if any(b < a for a, b in zip(recall, recall[1:])):
        problems.append(f"{split}: recall decreases in k")
    return problems


def check_train_rep(rep: dict, inputs, tally: Tally, reference: list[str] | None) -> None:
    """Counts one train run plus its eval examples as attempted, and the failed ones.

    ``reference`` holds the reports another run of the same work produced;
    any difference fails the train run.
    """
    eval_total = sum(inputs.examples[s] for s in EVAL_SPLITS)
    if "error" in rep:
        tally.add(1 + eval_total, 1 + eval_total, rep["error"].strip().splitlines()[-1])
        return
    problems = []
    if reference is not None and outputs_of(rep) != reference:
        problems.append("reports differ from another run of the same work")
    losses = rep["losses"]
    if len(losses) != rep["epochs"] or any(
            not isinstance(x, float) or not math.isfinite(x) for x in losses):
        problems.append(f"epoch losses not finite: {losses}")
    if inputs.examples["valid"] and len(rep["valid_reports"]) != rep["epochs"]:
        problems.append("missing per-epoch validation reports")
    for report in rep["valid_reports"]:
        problems += report_problems(report, "valid", inputs.examples["valid"],
                                    inputs.pairs["valid"])
    tally.add(1, int(bool(problems)), "; ".join(problems))
    for split in EVAL_SPLITS:
        found = report_problems(rep["eval"][split]["report"], split,
                                inputs.examples[split], inputs.pairs[split])
        n = inputs.examples[split]
        tally.add(n, n if found else 0, "; ".join(found))


def outputs_of(rep: dict) -> list[str]:
    return rep["valid_reports"] + [rep["eval"][s]["report"] for s in EVAL_SPLITS]


def turn_problems(lines: list[str], mentioned: set[str], items: set[str]) -> list[str]:
    if len(lines) != RECOMMEND_K:
        return [f"{len(lines)} ranked lines, expected {RECOMMEND_K}"]
    problems, last = [], 1.0
    for expected_rank, line in enumerate(lines, start=1):
        fields = line.split("\t")
        if len(fields) != 4:
            return [f"malformed line {line!r}"]
        rank, token, _name, prob = fields
        try:
            p = float(prob)
        except ValueError:
            return [f"bad probability {prob!r}"]
        if rank != str(expected_rank):
            problems.append(f"rank {rank} at position {expected_rank}")
        if not 0.0 <= p <= 1.0 or p > last:
            problems.append(f"probability {prob} out of range or increasing")
        if token in mentioned:
            problems.append(f"mentioned item {token} recommended")
        if token not in items:
            problems.append(f"{token} is not an item")
        last = p
    return problems


# ---------------------------------------------------------------------------
# child processes


class Runner:
    def __init__(self, work: Path, deadline: float, env: dict) -> None:
        self.work = work
        self.deadline = deadline
        self.env = env
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.n = 0

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def run(self, args: list[str], pass_fds: tuple[int, ...] = ()) -> int:
        self.n += 1
        log_path = self.logs / f"{self.n:03d}.log"
        with open(log_path, "w", encoding="utf-8") as out:
            try:
                return subprocess.run([sys.executable, *args], cwd=self.work, env=self.env,
                                      stdout=out, stderr=subprocess.STDOUT, pass_fds=pass_fds,
                                      timeout=self.remaining()).returncode
            except subprocess.TimeoutExpired:
                return -1

    def log_tail(self) -> str:
        path = self.logs / f"{self.n:03d}.log"
        lines = path.read_text("utf-8", errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    def cli(self, stats: str, spans: str, *args: str) -> list[str]:
        return [str(BENCH_DIR / "cli_launcher.py"), str(SRC), stats, spans, *args]


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(summary: dict, overhead: float) -> dict:
    metrics = {f"{layer}.self_s": (summary["layer_self_s"][layer], "s") for layer in LAYERS}
    metrics["other_s"] = (summary["other_s"], "s")
    metrics["traced_wall_s"] = (summary["wall_s"], "s")
    for name in LAYER_TIMES:
        metrics[f"{name}.s"] = (family(summary, name), "s")
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (summary["calls"].get(name, 0), "count")
    # Counts, not shares: a share is undefined where its call count is 0, and
    # the report prints the shares where they are defined.
    for key, count in summary["retrieve"].items():
        metrics[f"retrieval.retrieve.{key}"] = (count, "count")
    metrics["optim.adam_step.clipped"] = (summary["adam_clipped"], "count")
    metrics["trace_overhead"] = (overhead, "ratio")
    return metrics


def absent_spans(summary: dict) -> list[str]:
    """Reported names the traced package no longer defines (removed by a refactor)."""
    names = {name for name, _ in REPORT_ONLY_TIMES} | set(LAYER_CALLS) | {
        name.removesuffix(".kg").removesuffix(".ig") for name in LAYER_TIMES}
    return sorted(names - set(summary["wrapped"]))


def print_layer_report(summary: dict) -> None:
    absent = absent_spans(summary)
    for name, field in REPORT_ONLY_TIMES:
        label = name + (".s" if field == "total_s" else ".self_s")
        if name in absent:
            log(f"  {label:<44} absent")
        else:
            log(f"  {label:<44} {family(summary, name, field):.4f} s "
                f"({summary['calls'].get(name, 0)} calls)")
    calls = summary["calls"].get("retrieval.retrieve", 0)
    r = summary["retrieve"]
    if calls:
        log(f"  retrieval.retrieve.repeat_share = {r['repeats'] / calls:.4f}; hit_share = "
            f"{r['hits'] / calls:.4f}; mean query length = {r['query_tokens'] / calls:.3f} "
            f"tokens ({calls} calls)")
    else:
        log("  retrieval.retrieve.repeat_share, hit_share, mean query length: n/a (0 calls)")
    steps = summary["calls"].get("optim.adam_step", 0)
    if steps:
        log(f"  optim.adam_step.clip_share = {summary['adam_clipped'] / steps:.4f} "
            f"({steps} steps)")
    else:
        log("  optim.adam_step.clip_share: n/a (0 steps)")
    total = sum(summary["layer_self_s"][layer] for layer in LAYERS) + summary["other_s"]
    log(f"  layer self times + other_s = {total:.4f} s; traced wall = {summary['wall_s']:.4f} s")
    if absent:
        log(f"  absent spans: {', '.join(absent)}")


def by_run(summary: dict, prefix: str, run: str) -> float:
    """Inclusive time of ``prefix`` (and its labelled variants) during one run id."""
    total = 0.0
    for key, value in summary["by_run_s"].items():
        name, _, run_id = key.rpartition("@")
        if run_id == run and (name == prefix or name.startswith(prefix + ".")):
            total += value
    return total


# ---------------------------------------------------------------------------
# training workloads


def run_train_worker(runner: Runner, workload, seed, seconds, inputs, trace, max_reps,
                     tally: Tally, name: str, helper: Helper | None = None):
    work = runner.work / name
    work.mkdir()
    spec = {
        "src": str(SRC),
        "work": str(work),
        "raw": {k: str(v) for k, v in inputs.paths.items()},
        "config": {**workload.config, "seed": seed},
        "ks": list(KS),
        "eval_splits": list(EVAL_SPLITS),
        "setup_reps": SETUP_REPS,
        "setup_reps_between": SETUP_REPS_BETWEEN,
        "seconds": seconds,
        "max_reps": max_reps,
        "trace": trace,
        "spans": str(work / "spans.json"),
        "reference_fds": helper.fds() if helper else None,
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), "utf-8")
    out = work / "result.json"
    code = runner.run([str(BENCH_DIR / "train_worker.py"), str(spec_path), str(out)],
                      helper.fds() if helper else ())
    if code != 0 or not out.exists():
        tally.add(1, 1, f"train worker exited with {code}: {runner.log_tail()}")
        return None, work
    result = json.loads(out.read_text("utf-8"))
    if result["errors"]:
        tally.add(1, 1, result["errors"][0].strip().splitlines()[-1])
    return result, work


def interaction_edges(work: Path) -> int:
    path = work / "bundle" / "interaction.tsv"
    return count_lines(path) if path.exists() else 0


def train_workload(workload, seed, seconds, trace, runner, inputs, tally, helper):
    if not trace:
        result, work = run_train_worker(runner, workload, seed, seconds, inputs, False,
                                        MAX_TRAIN_REPS, tally, "run", helper)
        if result is None:
            return None
        inputs.sizes["interaction_edges"] = interaction_edges(work)
        good = [rep for rep in result["reps"] if "error" not in rep]
        first = outputs_of(good[0]) if good else None
        for rep in result["reps"]:
            check_train_rep(rep, inputs, tally, first)
        if not good or not result["setup"]:
            return None
        # Totals over every repetition: measured, and at reference speed.
        trained = sum(r["epochs"] * r["train_examples"] for r in good)
        train_s = sum(r["train_s"] for r in good)
        train_norm = sum(r["train_norm_s"] for r in good)
        evals = [r["eval"][s] for r in good for s in EVAL_SPLITS]
        scored = sum(e["examples"] for e in evals)
        eval_s = sum(e["s"] for e in evals)
        eval_norm = sum(e["norm_s"] for e in evals)
        setup_norm = statistics.median(x["norm_s"] for x in result["setup"])
        test = json.loads(good[0]["eval"]["test"]["report"])
        log(f"  repetitions: {len(good)}; train_s per repetition, measured / at reference "
            "speed: " + ", ".join(f"{r['train_s']:.3f}/{r['train_norm_s']:.3f}" for r in good)
            + "; eval pass: " + ", ".join(
                f"{sum(r['eval'][s]['s'] for s in EVAL_SPLITS):.3f}/"
                f"{sum(r['eval'][s]['norm_s'] for s in EVAL_SPLITS):.3f}" for r in good)
            + "; setup_s: " + ", ".join(f"{x['s']:.3f}/{x['norm_s']:.3f}" for x in result["setup"]))
        log(f"  measured: train_examples_per_s = {trained / train_s:.3f} 1/s, "
            f"eval_examples_per_s = {scored / eval_s:.3f} 1/s, median setup_s = "
            f"{statistics.median(x['s'] for x in result['setup']):.4f} s")
        log(f"  at reference speed: train_examples_per_s = {trained / train_norm:.3f} 1/s, "
            f"eval_examples_per_s = {scored / eval_norm:.3f} 1/s, median setup_s = "
            f"{setup_norm:.4f} s")
        log(f"  guard events per train run = {good[0]['guard_events']}; "
            f"epoch losses = {good[0]['losses']}")
        log(f"  test recall@10 = {test['recall']['10']!r}; outputs sha256 = "
            f"{hashlib.sha256(''.join(first).encode()).hexdigest()[:16]}")
        return {
            "setup_s": (setup_norm, "s"),
            "throughput_per_s": (trained / train_norm, "1/s"),
            "score_ms": (1000.0 * eval_norm / scored, "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }

    plain, _ = run_train_worker(runner, workload, seed, seconds, inputs, False, 1, tally, "plain")
    traced, work = run_train_worker(runner, workload, seed, seconds, inputs, True, 1, tally,
                                    "traced")
    if plain is None or traced is None or not (work / "spans.json").exists():
        return None
    inputs.sizes["interaction_edges"] = interaction_edges(work)
    reps = plain["reps"] + traced["reps"]
    if len(reps) != 2 or any("error" in rep for rep in reps):
        for rep in reps:
            check_train_rep(rep, inputs, tally, None)
        return None
    check_train_rep(plain["reps"][0], inputs, tally, None)
    check_train_rep(traced["reps"][0], inputs, tally, outputs_of(plain["reps"][0]))
    summary = summarize([json.loads((work / "spans.json").read_text("utf-8"))])
    overhead = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    log(f"  untraced wall {plain['wall_s']:.3f} s (train {plain['reps'][0]['train_s']:.3f} s); "
        f"traced wall {traced['wall_s']:.3f} s (train {traced['reps'][0]['train_s']:.3f} s)")
    train_s = summary["total_s"].get("recommender.train", 0.0)
    if train_s:
        retrieve_s = by_run(summary, "retrieval.retrieve", "train")
        log(f"  retrieve share of train = {retrieve_s / train_s:.3f}")
        model_side = (by_run(summary, "autodiff.backward", "train")
                      + by_run(summary, "encoders.encode_items", "train")
                      + by_run(summary, "encoders.gcn_forward", "train"))
        log(f"  backward + encoders share of train = {model_side / train_s:.3f}")
    print_layer_report(summary)
    return layer_metrics(summary, overhead)


# ---------------------------------------------------------------------------
# recommend workload


def run_session(runner: Runner, cmd: list[str], turns: list[list[str]]) -> dict:
    """One closed-loop session: write a line, wait for the blank terminator."""
    started = time.perf_counter()
    with open(runner.logs / f"session-{runner.n:03d}.err", "w", encoding="utf-8") as err:
        runner.n += 1
        proc = subprocess.Popen([sys.executable, *cmd], cwd=runner.work, env=runner.env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                                text=True, bufsize=1)
        watchdog = threading.Timer(runner.remaining(), proc.kill)
        watchdog.start()
        answers: list[list[str]] = []
        latencies: list[float] = []
        try:
            for i, turn in enumerate(turns):
                t0 = time.perf_counter() if i else started
                proc.stdin.write(", ".join(turn) + "\n")
                proc.stdin.flush()
                lines = []
                while True:
                    line = proc.stdout.readline()
                    if not line:
                        raise EOFError("recommend process closed its output")
                    if line == "\n":
                        break
                    lines.append(line.rstrip("\n"))
                latencies.append(time.perf_counter() - t0)
                answers.append(lines)
            proc.stdin.close()
            code = proc.wait(timeout=runner.remaining())
        except (EOFError, OSError, subprocess.TimeoutExpired):
            code = -1
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    ended = time.perf_counter()
    return {"answers": answers, "latencies": latencies, "code": code,
            "started": started, "ended": ended, "wall_s": ended - started}


def check_session(session: dict, turns, items: set[str], tally: Tally,
                  reference: list[list[str]] | None) -> None:
    """Counts each turn; ``reference`` holds the untraced run's answers."""
    mentioned: set[str] = set()
    for i, turn in enumerate(turns):
        mentioned.update(turn)
        if i >= len(session["answers"]):
            tally.add(1, 1, f"session ended before turn {i} (exit {session['code']})")
            continue
        problems = turn_problems(session["answers"][i], mentioned, items)
        if reference is not None and (i >= len(reference) or reference[i] != session["answers"][i]):
            problems.append("traced answer differs from the untraced one")
        if i == len(turns) - 1 and session["code"] != 0:
            problems.append(f"recommend exited with {session['code']}")
        tally.add(1, int(bool(problems)), "; ".join(problems))


def recommend_workload(workload, seed, seconds, trace, runner, inputs, tally, helper):
    work = runner.work
    stats = str(work / "stats.json")
    steps = [
        ("ingest", "--corpus", str(inputs.paths["corpus"]), "--entities",
         str(inputs.paths["entities"]), "--kg", str(inputs.paths["kg"]), "--word-graph",
         str(inputs.paths["word_graph"]), "--out", "bundle"),
        ("train", "--bundle", "bundle", "--out", "run", "--seed", str(seed),
         *(arg for key, value in workload.config.items()
           for arg in (f"--{key.replace('_', '-')}", str(value)))),
    ]
    for step in steps:
        code = runner.run(runner.cli(stats, "-", *step))
        if code != 0:
            tally.add(1, 1, f"{step[0]} exited with {code}: {runner.log_tail()}")
            return None
    inputs.sizes["interaction_edges"] = interaction_edges(work)
    items = set(inputs.item_tokens)
    n_items = len(inputs.item_tokens)

    def session_cmd(spans: str) -> list[str]:
        return runner.cli(stats, spans, "recommend", "--bundle", "bundle", "--checkpoint",
                          "run/model.ckpt", "--k", str(RECOMMEND_K))

    def one(index: int, spans: str = "-", reference=None) -> dict:
        turns = session_turns(seed, index, n_items)
        Path(stats).unlink(missing_ok=True)
        session = run_session(runner, session_cmd(spans), turns)
        check_session(session, turns, items, tally, reference)
        if Path(stats).exists():
            session["rss"] = json.loads(Path(stats).read_text("utf-8"))["peak_rss_mb"]
        session["context"] = [len({m for t in turns[:i + 1] for m in t})
                              for i in range(len(session["answers"]))]
        return session

    if not trace:
        speed = helper.speed
        measure_start = time.perf_counter()
        sessions, last, timed, index = [], 0.0, 0, 0
        speed.sample()
        while (time.perf_counter() - measure_start + last / 2 <= seconds
               or timed < MIN_TIMED_TURNS) and runner.remaining() > 5.0:
            session = one(index)
            speed.sample()
            index += 1
            last = session["wall_s"]
            if not session["answers"] and not sessions:
                break  # the program cannot answer at all: stop, report the failure
            if session["answers"]:
                session["factor"] = speed.factor(session["started"], session["ended"])
                sessions.append(session)
                timed += len(session["latencies"]) - 1
        if not sessions:
            return None
        measured = [1000.0 * x for s in sessions for x in s["latencies"][1:]]
        latencies = [1000.0 * x * s["factor"] for s in sessions for x in s["latencies"][1:]]
        setups = [s["latencies"][0] * s["factor"] for s in sessions]
        rss = [s["rss"] for s in sessions if "rss" in s]
        if len(latencies) < 2 or not rss:
            return None
        p95 = statistics.quantiles(latencies, n=100, method="inclusive")[94]
        log(f"  sessions: {len(sessions)} of {SESSION_TURNS} turns; timed turns: "
            f"{len(latencies)} ({sum(1 for x in latencies if x > p95)} beyond p95)")
        log(f"  measured: recommend_p50_ms = {statistics.median(measured):.4f} ms; median "
            f"setup_s = {statistics.median(s['latencies'][0] for s in sessions):.4f} s")
        log(f"  at reference speed: recommend_p50_ms = {statistics.median(latencies):.4f} ms; "
            f"recommend_p95_ms = {p95:.4f} ms")
        contexts = [c for s in sessions for c in s["context"]]
        log(f"  mean session context size per turn = {statistics.fmean(contexts):.3f} entities")
        return {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_per_s": (1000.0 * len(latencies) / sum(latencies), "1/s"),
            "score_ms": (statistics.median(latencies), "ms"),
            "peak_rss_mb": (max(rss), "MB"),
        }

    plain = [one(i) for i in range(TRACE_SESSIONS)]
    spans_paths = [work / f"spans-{i:03d}.json" for i in range(TRACE_SESSIONS)]
    traced = [one(i, str(path), plain[i]["answers"]) for i, path in enumerate(spans_paths)]
    if not all(s["answers"] for s in plain + traced) or not all(p.exists() for p in spans_paths):
        return None
    traces = [json.loads(path.read_text("utf-8")) for path in spans_paths]
    summary = summarize(traces)
    overhead = sum(s["wall_s"] for s in traced) / sum(s["wall_s"] for s in plain) - 1.0
    # The first turn of a session is its set-up sample, so its retrieve call
    # is left out of the share of timed-turn latency.
    retrieve_timed = 0.0
    for trace_data in traces:
        spans = sorted((s for s in trace_data["spans"] if s[2] == "retrieval.retrieve"),
                       key=lambda s: s[4])
        retrieve_timed += sum(s[5] - s[4] for s in spans[1:])
    turn_time = sum(sum(s["latencies"][1:]) for s in traced)
    log(f"  retrieve share of timed turn latency = {retrieve_timed / turn_time:.3f}")
    contexts = [c for s in traced for c in s["context"]]
    log(f"  mean session context size per turn = {statistics.fmean(contexts):.3f} entities")
    print_layer_report(summary)
    return layer_metrics(summary, overhead)


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "convrec" / "__init__.py").is_file():
        print(f"error: no convrec sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import convrec

    if Path(convrec.__file__).resolve().parent != (SRC / "convrec").resolve():
        print(f"error: imported convrec from {convrec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # Every process of the run shares one CPU, so the reference kernel runs
    # where the program runs; the other tenants' load differs per vCPU.
    usable = os.sched_getaffinity(0)
    cpu = min(usable)
    os.sched_setaffinity(0, {cpu})
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    helper = None
    try:
        inputs = generate(workload, args.seed, work / "raw")
        runner = Runner(work, started + BUDGET_S, env)
        log(f"workload {workload.name} (seed {args.seed}, trace {args.trace}): {workload.why}")
        if not args.trace:
            helper = Helper(env)
        run = train_workload if workload.kind == "train" else recommend_workload
        metrics = run(workload, args.seed, args.seconds, bool(args.trace), runner, inputs, tally,
                      helper)
        record = run_record(workload.name, args.seed, inputs.sizes)
        record.update(cpus_usable=len(usable), pinned_cpu=cpu)
        log("record " + json.dumps(record, sort_keys=True))
    finally:
        if helper is not None:
            helper.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    for note in tally.notes[:10]:
        log(f"  failure: {note}")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    log(f"  failure_share = {share:.6f} ({tally.failed} of {tally.attempted} operations)")
    if metrics is None:
        print("error: no successful measurement", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
