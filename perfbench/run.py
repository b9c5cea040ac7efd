"""Benchmark of the `osnmatch` command line on pinned synthetic corpora.

Run from the repository root:

    python3 perfbench/run.py --workload ps-all --seed 1 --seconds 18 --trace 0

Each invocation generates its workload's corpus with ``osnmatch synth``
(generator noise 0.15, seeded from ``--seed``) and runs the CLI as a user
does: one child process at a time (a closed loop with one client), each
pinned to one BLAS/OpenMP thread. The same seed is passed to the CLI.

``--trace 0`` measures the end-to-end metrics. It repeats the workload's
CLI command until ``--seconds`` of child wall time have been measured,
alternating with a fixed job of ``reference.py`` on the same CPU, and
reports the median of run time / reference time (``run_ref``): on a shared
host the CPU's speed drifts by tens of percent over tens of seconds, and
the ratio cancels that drift. It also times a separate set-up child
(import, load, sample) several times, and reports medians. ``--trace 1``
makes one untraced and one traced run of the command and reports the
per-layer metrics; the traced run executes the CLI in-process under the
wrappers of ``tracer.py``.

Every output is checked (see ``checks.py``). Human-readable lines, with the
provenance of the run, come first; the last line of standard output is the
result as one JSON object. The exit code is 0 when every check passed, 1
when a run or a check failed (the result then says ``"correct": false``),
and 2 when the benchmark cannot start, e.g. outside a source checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

NOISE = 0.15
NEG_RATIO = 8  # the CLI default, also passed to the set-up child
SETUP_SECONDS = 2.0  # set-up is repeated until this much is measured
SETUP_MIN_REPS = 3
ORACLE_PAIRS = 24
DEADLINE_S = 170.0  # every invocation ends well within 180 s
# BLAS threads change the embedding model's bits, so every child pins them
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    users: int  # synthetic users: 2 profiles and 1 positive pair each
    cli: tuple[str, ...]
    reference: str  # the job of reference.py that does the same kind of work

    @property
    def kind(self) -> str:
        return self.cli[0]


# Training runs pin the epoch count (patience = max epochs), so every seed
# does the same number of optimizer steps. BENCHMARK.json says why each
# workload is there.
WORKLOADS = {
    "ps-all": Workload(40, ("run", "--model", "ps", "--all-measures", "--k", "5",
                            "--max-epochs", "20", "--patience", "20"), "python_dp"),
    "temporal": Workload(150, ("run", "--model", "temporal", "--k", "5",
                               "--max-epochs", "30", "--patience", "30"), "small_numpy"),
    "embedding": Workload(50, ("run", "--model", "embedding", "--k", "5",
                               "--max-epochs", "8", "--patience", "8"), "large_numpy"),
    "folds-3k": Workload(3000, ("folds", "--user-disjoint", "--k", "10"), "json_alloc"),
}

END_TO_END_UNITS = {"run_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_CODE = """\
import sys
import osnmatch
from osnmatch.dataset import load_corpus, negative_sample
corpus = load_corpus(sys.argv[1], sys.argv[2], sys.argv[3])
negative_sample(corpus, int(sys.argv[4]), int(sys.argv[5]))
"""

CLI_CODE = "import sys; from osnmatch.cli import main; sys.exit(main())"


class SetupError(Exception):
    """The benchmark cannot prepare its inputs."""


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    log: Path


@dataclass
class Tally:
    """Runs and cross-run comparisons attempted, and those that failed or
    failed a check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, work: Path):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.corpus = work / "corpus"
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {**os.environ, **PINNED_THREADS, "PYTHONPATH": str(SRC)}
        self.tally = Tally()
        self.info: dict = {}

    # --- child processes -------------------------------------------------

    def spawn(self, args: list[str], log_name: str) -> Child:
        """Run one child to completion; wall time from spawn to exit and
        the child's own peak RSS."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark deadline reached")
        log = self.work / log_name
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, log)

    def cli_args(self, out: Path) -> list[str]:
        target = out / "folds.json" if self.w.kind == "folds" else out
        return [*self.w.cli, "--seed", str(self.seed), "--data-dir", str(self.corpus),
                "--output", str(target)]

    # --- corpus ----------------------------------------------------------

    def synthesize(self) -> None:
        child = self.spawn(["-c", CLI_CODE, "synth", "--n-users", str(self.w.users),
                            "--noise", str(NOISE), "--seed", str(self.seed),
                            "--out", str(self.corpus)], "synth.log")
        if child.code != 0:
            raise SetupError(f"synth failed:\n{child.log.read_text()[-2000:]}")
        summary = json.loads(child.log.read_text().strip().splitlines()[-1])
        self.info["corpus"] = {
            "generator_version": summary["generator_version"],
            "users": self.w.users,
            "noise": NOISE,
            "seed": self.seed,
            "sha256": {
                name: hashlib.sha256((self.corpus / name).read_bytes()).hexdigest()
                for name in ("profiles.jsonl", "posts.jsonl", "pairs.csv")
            },
        }

    def positives(self) -> list[tuple[str, str]]:
        with open(self.corpus / "pairs.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return [(t, f) for t, f in rows]

    # --- checks ----------------------------------------------------------

    def check_oracles(self) -> None:
        """Raw DP measures against the test oracles on a seeded sample of
        corpus field pairs, folded as normalized_similarity folds them."""
        sys.path[:0] = [str(SRC), str(ROOT)]
        from osnmatch import strsim
        from tests import oracles

        pairs = {
            "levenshtein": "levenshtein_memo",
            "damerau_levenshtein": "osa_memo",
            "editex": "editex_memo",
            "lcs_length": "lcs_memo",
            "smith_waterman": "smith_waterman_full_matrix",
        }
        gone = [n for n in pairs if not hasattr(strsim, n)]
        gone += [o for o in pairs.values() if not hasattr(oracles, o)]
        if gone:
            self.tally.record("oracle check", [f"missing {', '.join(gone)}"])
            return
        profiles = {}
        with open(self.corpus / "profiles.jsonl", encoding="utf-8") as fh:
            for line in fh:
                p = json.loads(line)
                profiles[(p["platform"], p["user_id"])] = p
        rng = random.Random(self.seed)
        positives = self.positives()
        twitter = sorted(u for p, u in profiles if p == "twitter")
        flickr = sorted(u for p, u in profiles if p == "flickr")
        fields = ("user_name", "real_name", "description", "location")
        field_pairs = []
        for i in range(ORACLE_PAIRS):
            t, f = rng.choice(positives) if i % 2 else (rng.choice(twitter), rng.choice(flickr))
            name = fields[i % len(fields)]
            field_pairs.append((profiles[("twitter", t)][name].lower(),
                                profiles[("flickr", f)][name].lower()))
        measures = {n: getattr(strsim, n) for n in pairs}
        reference = {n: getattr(oracles, o) for n, o in pairs.items()}
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 10_000))
        try:
            problems = checks.oracle_mismatches(field_pairs, measures, reference)
        finally:
            sys.setrecursionlimit(limit)
        self.tally.record("oracle check", problems)

    def check_output(self, child: Child, out: Path, what: str) -> object:
        """Check one CLI run; returns what identifies its result (per-fold
        confusion counts, or the digest of the fold file), None on failure."""
        if child.code != 0:
            self.tally.record(what, exit_problems(child))
            return None
        try:
            if self.w.kind == "folds":
                raw = (out / "folds.json").read_bytes()
                positives = set(self.positives())
                problems = checks.check_fold_partition(json.loads(raw), positives)
                identity = hashlib.sha256(raw).hexdigest()
            else:
                report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                problems = checks.check_report(report)
                identity = checks.fold_counts(report) if not problems else None
                self.info["f1"] = report["results"]["f1"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems, identity = [f"unreadable output: {exc!r}"], None
        self.tally.record(what, problems)
        return identity

    def check_same(self, identities: list, what: str) -> None:
        """Every run of one seed must give the same result."""
        if None in identities:
            return
        different = [i for i, x in enumerate(identities) if x != identities[0]]
        self.tally.record(what, [f"runs {different} differ from run 0"] if different else [])

    # --- measurement -----------------------------------------------------

    def run_cli(self, index: int) -> tuple[Child, object]:
        out = self.work / f"out-{index}"
        out.mkdir()
        child = self.spawn(["-c", CLI_CODE, *self.cli_args(out)], f"run-{index}.log")
        identity = self.check_output(child, out, f"run {index}")
        shutil.rmtree(out, ignore_errors=True)
        return child, identity

    def measure_setup(self) -> float:
        args = ["-c", SETUP_CODE, *(str(self.corpus / n) for n in
                                    ("profiles.jsonl", "posts.jsonl", "pairs.csv")),
                str(NEG_RATIO), str(self.seed)]
        children: list[Child] = []
        while len(children) < SETUP_MIN_REPS or sum(c.wall_s for c in children) < SETUP_SECONDS:
            child = self.spawn(args, f"setup-{len(children)}.log")
            children.append(child)
            self.tally.record(f"setup {len(children) - 1}", exit_problems(child))
        times = [c.wall_s for c in children if c.code == 0]
        return statistics.median(times) if times else None

    def reference_s(self) -> float | None:
        child = self.spawn([str(REFERENCE), self.w.reference], "reference.log")
        self.tally.record("reference job", exit_problems(child))
        return float(child.log.read_text().split()[-1]) if child.code == 0 else None

    def end_to_end(self) -> dict[str, float]:
        """CLI runs alternate with reference jobs; each run's wall time is
        divided by the mean of the reference times just before and after."""
        setup_s = self.measure_setup()
        runs: list[Child] = []
        identities = []
        ratios = []
        ref_before = self.reference_s()
        measured = 0.0
        while not runs or measured < self.seconds:
            child, identity = self.run_cli(len(runs))
            ref_after = self.reference_s()
            runs.append(child)
            identities.append(identity)
            measured += child.wall_s
            if identity is not None and ref_before and ref_after:
                ratios.append(2 * child.wall_s / (ref_before + ref_after))
            ref_before = ref_after
        self.check_same(identities, "repeat runs")
        ok = [c for c, ident in zip(runs, identities) if ident is not None]
        self.info["run_s_all"] = [round(c.wall_s, 4) for c in runs]
        values = {"setup_s": setup_s} if setup_s is not None else {}
        if ok:
            self.info["run_s"] = statistics.median(c.wall_s for c in ok)
            values["peak_rss_mb"] = statistics.median(c.rss_mb for c in ok)
        if ratios:
            values["run_ref"] = statistics.median(ratios)
        return values

    def per_layer(self) -> dict[str, float | None]:
        plain, plain_id = self.run_cli(0)
        out = self.work / "traced"
        out.mkdir()
        trace_path = self.work / "trace.json"
        child = self.spawn([str(Path(tracer.__file__)), str(trace_path), "--",
                            *self.cli_args(out)], "traced.log")
        traced_id = self.check_output(child, out, "traced run")
        self.check_same([plain_id, traced_id], "traced vs untraced")
        if traced_id is None:
            return {}
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        metrics = dict(doc["metrics"])
        main_s = metrics["cli.main_s"]
        metrics[tracer.OVERHEAD.name] = main_s / plain.wall_s - 1.0
        self.info["missing"] = doc["missing"]
        if doc["labels"]:
            self.info["pr_auc"] = checks.average_precision(doc["scores"], doc["labels"])
        self.info["shares_of_cli.main_s"] = stress_shares(metrics, main_s)
        return metrics


def exit_problems(child: Child) -> list[str]:
    if child.code == 0:
        return []
    return [f"exit code {child.code}\n{child.log.read_text(errors='replace')[-1500:]}"]


def stress_shares(m: dict[str, float | None], main_s: float) -> dict[str, float | None]:
    """Share of the traced run spent in the layer each workload targets."""

    def share(*names):
        if any(m.get(n) is None for n in names):
            return None
        return round(sum(m[n] for n in names) / main_s, 4)

    return {
        "featurize": share("evaluation.featurize_s"),
        "train": share("mlp.train_s"),
        "dataset": share("dataset.load_corpus_s", "dataset.negative_sample_s",
                         "dataset.folds_s", "dataset.split_s"),
        "strsim_calls": sum(m.get(f"strsim.{x}.calls") or 0 for x in tracer.RAW_MEASURES),
    }


def provenance() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "blas": blas,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "pinned_threads": PINNED_THREADS,
        "src_lines": src_lines,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def result_metrics(values: dict, trace: bool) -> dict:
    if trace:
        units = {m.name: m.unit for m in (*tracer.PER_LAYER, tracer.OVERHEAD)}
    else:
        units = END_TO_END_UNITS
    out = {}
    for name, unit in units.items():
        if name not in values:
            continue
        value = values[name]
        out[name] = ({"value": value, "unit": unit} if value is not None
                     else {"value": None, "unit": unit, "missing": True})
    return out


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "osnmatch" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no osnmatch source tree under {ROOT}", file=sys.stderr)
        return 2
    # one CPU for the runner and every child, so that the reference jobs
    # measure the speed of the CPU the CLI runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = ROOT / ".perfbench-work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, work)
    try:
        bench.synthesize()
        bench.check_oracles()
        values = bench.per_layer() if args.trace else bench.end_to_end()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        bench.tally.record("deadline", [str(exc)])
        values = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    metrics = result_metrics(values, bool(args.trace))
    expected = len(tracer.PER_LAYER) + 1 if args.trace else len(END_TO_END_UNITS)
    correct = bench.tally.failed == 0 and len(metrics) == expected
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **bench.info, **provenance()}
    print("provenance " + json.dumps(info, sort_keys=True))
    for problem in bench.tally.problems:
        print(f"CHECK FAILED {problem}")
    for name, m in metrics.items():
        shown = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:<44} {shown} {m['unit']}")
    for name, unit in (("run_s", "s"), ("f1", "ratio"), ("pr_auc", "ratio")):
        if name in bench.info:
            print(f"{name:<44} {bench.info[name]:.6g} {unit}")
    print(f"{'error_frac':<44} {bench.tally.failed / max(bench.tally.attempted, 1):.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": bench.tally.attempted,
                      "failed": bench.tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
