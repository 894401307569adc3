"""Child process of the training workloads: ingest -> load_bundle -> train -> evaluate.

Usage: python3 train_worker.py SPEC.json RESULT.json

It makes the same public calls the ``convrec`` CLI makes. With ``trace`` set
in the spec it installs the tracer before anything else runs and writes the
spans to ``spans`` at exit. Otherwise it times each unit (a set-up, a
``train`` call, one split's ``evaluate``) between samples of the reference
kernel, on the helper descriptors named in ``reference_fds``, and records both
the measured and the normalized time (see reference.py). It also samples
inside those units, after the calls in SAMPLED_CALLS. The result
file holds the timings and the program's outputs; the parent checks them.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path


def ingest(cli, raw: dict, bundle: Path) -> None:
    args = ["ingest", "--corpus", raw["corpus"], "--entities", raw["entities"],
            "--kg", raw["kg"], "--word-graph", raw["word_graph"], "--out", str(bundle)]
    try:
        cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        if exc.code:
            raise RuntimeError(f"ingest exited with code {exc.code}") from None


# Names `train` and `evaluate` look up in convrec.recommender once per batch or
# per example; after one returns, a reference sample is taken if SAMPLE_EVERY_S
# has passed, so long units get samples inside them too.
SAMPLED_CALLS = ("adam_step", "score_all", "build_user_representation")


def sampled(fn, speed):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        speed.maybe_sample()
        return result

    return wrapper


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text("utf-8"))
    out_path = Path(sys.argv[2])
    sys.path.insert(0, spec["src"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def phase(name: str) -> None:
        if tracer is not None:
            tracer.run_id = name

    from convrec import cli, corpus, recommender

    if spec["reference_fds"]:
        from reference import attach
        speed = attach(*spec["reference_fds"])
        # A name a refactor removed only leaves its unit with fewer samples.
        for name in SAMPLED_CALLS:
            fn = getattr(recommender, name, None)
            if fn is not None:
                setattr(recommender, name, sampled(fn, speed))
        timed = speed.timed
    else:
        def timed(fn):
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
            return result, elapsed, elapsed

    work = Path(spec["work"])
    bundle = work / "bundle"
    result: dict = {"setup": [], "reps": [], "errors": []}
    started = time.perf_counter()

    def setup(times: int):
        """Set-up samples; returns the last bundle, which the next repetition trains on."""
        phase("setup")
        loaded = None
        for _ in range(times):
            loaded = None  # one bundle in memory at a time, as in the CLI

            def ingest_and_load():
                ingest(cli, spec["raw"], bundle)
                return cli.load_bundle(bundle)

            loaded, measured, normalized = timed(ingest_and_load)
            result["setup"].append({"s": measured, "norm_s": normalized})
        return loaded

    try:
        artifacts = setup(spec["setup_reps"])

        config = recommender.TrainConfig(**spec["config"])
        ks = spec["ks"]
        n_train = len(corpus.split_view(artifacts.examples, "train"))
        measure_start = time.perf_counter()
        last = 0.0
        # Start another repetition while at least half of one still fits.
        while not result["reps"] or (
                len(result["reps"]) < spec["max_reps"]
                and time.perf_counter() - measure_start + last / 2 <= spec["seconds"]):
            rep_start = time.perf_counter()
            rep: dict = {"epochs": config.epochs, "train_examples": n_train}
            try:
                phase("train")
                trained, rep["train_s"], rep["train_norm_s"] = timed(
                    lambda: recommender.train(artifacts, config, ks))
                rep["losses"] = [x if math.isfinite(x) else repr(x) for x in trained.epoch_losses]
                rep["valid_reports"] = [r.to_json() for r in trained.epoch_reports]
                rep["guard_events"] = trained.guard_events

                phase("checkpoint")
                ckpt = work / "run" / "model.ckpt"
                ckpt.parent.mkdir(parents=True, exist_ok=True)
                cli.save_model_checkpoint(trained.model, None, ckpt)
                # `convrec train` ends here; `convrec eval` loads afresh.
                trained = artifacts = None
                model = cli.load_model(str(bundle), str(ckpt))

                phase("eval")
                rep["eval"] = {}
                for split in spec["eval_splits"]:
                    examples = corpus.split_view(model.artifacts.examples, split)
                    report, measured, normalized = timed(
                        lambda: recommender.evaluate(model, examples, ks, split_label=split))
                    rep["eval"][split] = {"s": measured, "norm_s": normalized,
                                          "examples": len(examples),
                                          "report": report.to_json()}
            except Exception:  # one failed repetition is a counted failure, not a crash
                rep["error"] = traceback.format_exc()
            # Peak RSS follows one train or eval footprint, not several at once.
            trained = model = artifacts = None
            result["reps"].append(rep)
            # Set-up samples spread over the run.
            artifacts = setup(spec["setup_reps_between"])
            last = time.perf_counter() - rep_start
    except Exception:
        result["errors"].append(traceback.format_exc())
    result["wall_s"] = time.perf_counter() - started
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(spec["spans"])
    out_path.write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
