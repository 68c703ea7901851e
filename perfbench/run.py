#!/usr/bin/env python3
"""tanglekit benchmark: one command, four workloads, seeded inputs.

    python3 perfbench/run.py --workload jones --seed 1 --seconds 30 --trace 0

Workloads (see `workloads.py` for the generated inputs):

  jones       `jones`/`jones5` queries on 4- to 16-crossing closures; the
              2^c bracket state sum does the work, the enumerator none.
  kei         `kei enum`/`kei burnside` queries that complete; the
              enumerator does the work, the bracket none.
  kei-capout  enumerations that stop at their cap: growth work that
              yields no table.
  verify      `corpus verify --seed <seed>` as one command; the only
              workload covering braids, tangles, colorings and
              `kei_isomorphic`.

Each run is single-client and closed-loop: a worker process
(`worker.py`) gets the next query only after answering the previous
one.  The query stream (one "pass") repeats as often as it fits in
`--seconds`, at least once, each time in a fresh worker started outside
the timed region, so that no pass can reuse what an earlier one left in
memory.  Every query has a deadline, enforced by killing the worker; a
killed worker is replaced and the query counts as failed.  Answers are
checked after each pass, outside the timed region.

With `--trace 0` the last stdout line carries the end-to-end metrics.
Each query's latency is first taken as its median over the run's
passes; then wall_s is the sum of those per-query medians (the stream's
time), latency_p50_ms their median and latency_tail_ms their value at
the highest percentile with at least ten queries beyond it (for
`verify` the one query is the whole command).  setup_s is the median
time from a fresh start to ready over every worker of the run, a few
started only for that and then one per pass, and peak_rss_mb is the
largest resident set of any worker.  error_rate, the tail percentile,
the pass times and the backends go on the line before it.

With `--trace 1` untraced workers run for half of `--seconds`, then a
traced worker sets up and runs one pass; the last line carries
per-layer metrics from the traced worker (see `tracer.py`), including
its set-up, and the tracing overhead.  `trace.coverage` counts only the
spans inside queries.

Extra modes: `--record-refs` stores answer digests of the default seed
in refs.json; `--selftest` checks that the tracer sees all 26 kernel
calls of `corpus verify --only free-burnside`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20050129
SETUP_SAMPLES = 5
QUERY_DEADLINE_S = 30.0
VERIFY_DEADLINE_S = 120.0
READY_DEADLINE_S = 30.0
FREE_BURNSIDE_KERNEL_CALLS = 26  # q_kei calls in check_kei_cardinalities


class WorkerDied(Exception):
    pass


class Worker:
    """One worker process; `ask` enforces the deadline by killing it."""

    def __init__(self, workdir, warm_quotient=False, setup_only=False, spans=None):
        cmd = [sys.executable, str(HERE / "worker.py")]
        if warm_quotient:
            cmd.append("--warm-quotient")
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", str(spans)]
        t0 = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=workdir, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self._buf = b""
        ready = self._read(READY_DEADLINE_S)
        self.setup_s = perf_counter() - t0
        if ready is None or not ready.get("ready"):
            self.kill()
            raise WorkerDied("worker did not become ready")
        self.backends = {k: v for k, v in ready.items() if k != "ready"}

    def _read(self, timeout):
        fd = self.proc.stdout.fileno()
        end = perf_counter() + timeout
        while b"\n" not in self._buf:
            left = end - perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def _send(self, obj):
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        self.proc.stdin.flush()

    def ask(self, msg, deadline):
        """The reply, or None after killing a worker that missed the deadline."""
        try:
            self._send(msg)
        except BrokenPipeError:
            return None
        reply = self._read(deadline)
        if reply is None:
            self.kill()
        return reply

    def finish(self):
        self._send({"finish": True})
        stats = self._read(READY_DEADLINE_S)
        self.proc.stdin.close()
        self.proc.wait(timeout=READY_DEADLINE_S)
        return stats

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    @property
    def alive(self):
        return self.proc.poll() is None


class Runner:
    def __init__(self, workload, seed, workdir):
        import workloads

        self.workload = workload
        self.queries = workloads.build(workload, seed)
        self.workdir = workdir
        for q in self.queries:
            for rel, text in q.files.items():
                (workdir / rel).write_text(text)
        self.deadline = VERIFY_DEADLINE_S if workload == "verify" else QUERY_DEADLINE_S
        self.warm = workload == "verify"
        self.peak_kb = 0
        self.backends = None
        self.started = []

    def worker(self, **kw):
        w = Worker(self.workdir, warm_quotient=self.warm, **kw)
        self.started.append(w)
        if self.backends is None:
            self.backends = w.backends
        elif self.backends != w.backends:
            raise WorkerDied(f"backends changed: {self.backends} -> {w.backends}")
        return w

    def run_pass(self, worker, spans=None):
        """(wall seconds, latencies, replies); replaces a killed worker."""
        latencies, replies = [], []
        t0 = perf_counter()
        for q in self.queries:
            if not worker.alive:
                worker = self.worker(spans=spans)
            reply = worker.ask(q.message(), self.deadline)
            replies.append(reply)
            latencies.append(reply["s"] if reply else self.deadline)
        wall = perf_counter() - t0
        return worker, wall, latencies, replies

    def close(self, worker):
        if worker.alive:
            stats = worker.finish()
            self.peak_kb = max(self.peak_kb, stats["peak_rss_kb"])

    def shutdown(self):
        """Kill and reap every worker still running (after an error)."""
        for w in self.started:
            w.kill()

    def run_for(self, seconds, spans=None, passes=None):
        """Exactly `passes` passes, or else as many as fit in `seconds`
        (at least one), each in a fresh worker: another pass starts only
        while one more pass of the average length so far still ends
        within `seconds`."""
        results = []
        t0 = perf_counter()
        while len(results) < (passes or 1) or passes is None and (
                perf_counter() - t0) * (len(results) + 1) / len(results) <= seconds:
            worker, wall, lat, replies = self.run_pass(self.worker(spans=spans), spans)
            self.close(worker)
            results.append((wall, lat, replies))
        return results


def read_commit(root):
    """HEAD commit from .git without running git (the checkout may have none)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def judge(workload, queries, results, refs):
    """(attempted, failure reasons) over all passes, including answers that
    differ between passes or from the stored default-seed digests."""
    import workloads

    first = None
    reasons, attempted = [], 0
    for _, _, replies in results:
        attempted += workloads.attempted(workload, replies)
        reasons += workloads.check(workload, queries, replies)
        digests = [workloads.digest(r) if r else None for r in replies]
        first = first or digests
        for q, d0, d in zip(queries, first, digests):
            if d is None:
                continue
            if d0 is not None and d != d0:
                reasons.append(f"{q.id}: answer differs from the first pass")
            elif q.id in refs and d != refs[q.id]:
                reasons.append(f"{q.id}: answer differs from the stored reference")
    return attempted, reasons


def stream_stats(results):
    """(stream seconds, median, tail, tail percentile) over the per-query
    medians: each query's latency is first taken as its median over the
    run's passes.  The stream time is their sum, the median and the tail
    are order statistics of them, the tail at the highest percentile
    that still has at least ten queries beyond it.

    Taking each query's median over passes first matters on a machine
    whose speed drifts: a slow spell then has to hit the same query in
    most passes before it moves a figure, and no one slow pass can."""
    n = len(results[0][1])
    per_query = sorted(statistics.median(lat[i] for _, lat, _ in results)
                       for i in range(n))
    percentile = 100.0 * (n - 10) / n if n > 10 else 100.0
    rank = n - 11 if n > 10 else n - 1
    return sum(per_query), statistics.median(per_query), per_query[rank], percentile


def e2e_metrics(setups, results, peak_kb):
    stream, p50, tail, _ = stream_stats(results)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": stream, "unit": "s"},
        "latency_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
        "latency_tail_ms": {"value": 1e3 * tail, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


TIMED_LAYERS = [
    ("kernel.run_enumeration.s", "kernel.run_enumeration", "s"),
    ("presentation.fundamental_kei.s", "presentation.fundamental_kei", "s"),
    ("presentation.enumerate_kei.self_s", "presentation.enumerate_kei", "self_s"),
    ("jones.bracket_statesum.s", "jones.bracket_statesum", "s"),
    ("jones.kauffman_bracket.self_s", "jones.kauffman_bracket", "self_s"),
    ("jones.writhe.s", "jones.writhe", "s"),
    ("jones.eval_at_fifth_root.s", "jones.eval_at_fifth_root", "s"),
    ("coloring.coloring_matrix.s", "coloring.coloring_matrix", "s"),
    ("coloring.smith_normal_form.s", "coloring.smith_normal_form", "s"),
    ("diagrams.braid_closure.s", "diagrams.braid_closure", "s"),
    ("diagrams.parse_pd.s", "diagrams.parse_pd", "s"),
    ("tangles.closure_diagram.s", "tangles.closure_diagram", "s"),
    ("tangles.apply_rational_move.s", "tangles.apply_rational_move", "s"),
    ("braids.coxeter_quotient.s", "braids.coxeter_quotient", "s"),
    ("braids.conjugacy_census.s", "braids.conjugacy_census", "s"),
    ("kei.check_axioms.s", "kei.check_axioms", "s"),
    ("kei.kei_isomorphic.s", "kei.kei_isomorphic", "s"),
    ("cli.emit.s", "cli.emit", "s"),
    ("query.self_s", "query", "self_s"),
]
ACCEPTANCE_CHECKS = [
    "check_coxeter_quotient", "check_reduction_chains", "check_kei_cardinalities",
    "check_exceptional_burnside", "check_fundamental_kei_sizes",
    "check_coloring_groups", "check_jones_obstruction", "suite_five_halves_move",
    "suite_power_insertion_coloring", "suite_power_insertion_jones",
    "suite_power_insertion_burnside", "check_scope_note",
]
TIMED_LAYERS += [(f"acceptance.{c}.s", f"acceptance.{c}", "s") for c in ACCEPTANCE_CHECKS]


def layer_metrics(spans, traced_wall, untraced_wall):
    from tracer import self_times

    own = self_times(spans)
    inclusive, selfsum = {}, {}
    counts = {"calls": 0, "completed": 0, "capped": 0, "deductions": 0,
              "elements": 0, "states": 0}
    for (name, start, end, _, _, attrs), s in zip(spans, own):
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        selfsum[name] = selfsum.get(name, 0.0) + s
        if name == "kernel.run_enumeration":
            counts["calls"] += 1
        for key, value in (attrs or {}).items():
            counts[key] += value
    out = {}
    for metric, name, kind in TIMED_LAYERS:
        value = (selfsum if kind == "self_s" else inclusive).get(name, 0.0)
        out[metric] = {"value": value, "unit": "s"}
    for key in ("calls", "completed", "capped", "deductions", "elements"):
        out[f"kernel.{key}"] = {"value": counts[key], "unit": "count"}
    ratio = counts["completed"] / counts["calls"] if counts["calls"] else 0.0
    out["kernel.completed_ratio"] = {"value": ratio, "unit": "ratio"}
    out["jones.states"] = {"value": counts["states"], "unit": "count"}
    out["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    in_queries = sum(s for span, s in zip(spans, own) if span[4] is not None)
    out["trace.coverage"] = {"value": in_queries / traced_wall, "unit": "ratio"}
    out["trace.overhead"] = {"value": traced_wall / untraced_wall - 1, "unit": "ratio"}
    return out


def load_refs(workload, seed):
    path = HERE / "refs.json"
    if seed != DEFAULT_SEED or not path.exists():
        return {}
    return json.loads(path.read_text()).get(workload, {})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("jones", "kei", "kei-capout", "verify"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-refs", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if not (args.workload or args.selftest):
        p.error("--workload is required")

    if not (ROOT / "src" / "tanglekit" / "__init__.py").is_file():
        print(f"error: no tanglekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import parity

    workload = args.workload or "verify"
    workdir = ROOT / ".perfbench" / f"{workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workload, workdir, parity)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload, workdir, parity) -> int:
    if args.selftest:
        return selftest(workdir)
    runner = Runner(workload, args.seed, workdir)
    try:
        return measure(args, workload, runner, parity)
    finally:
        runner.shutdown()


def measure(args, workload, runner, parity) -> int:
    import workloads

    reasons = [f"parity: {m}" for m in parity.mismatches()]
    info = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": read_commit(ROOT),
        "python": platform.python_version(),
        "parity": parity.status(),
    }
    if args.record_refs:
        results = runner.run_for(0, passes=1)
        attempted, bad = judge(workload, runner.queries, results, {})
        if bad:
            print("\n".join(bad), file=sys.stderr)
            return 1
        path = HERE / "refs.json"
        refs = json.loads(path.read_text()) if path.exists() else {}
        refs[workload] = {q.id: workloads.digest(r)
                          for q, r in zip(runner.queries, results[0][2])}
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(refs[workload])} digests for {workload}")
        return 0

    refs = load_refs(workload, args.seed)
    if args.trace:
        untraced = runner.run_for(args.seconds / 2)
        spans_path = ROOT / ".perfbench" / f"trace-{workload}-{args.seed}.jsonl"
        traced = runner.run_for(0, spans=spans_path, passes=1)
        from tracer import count_under, read_spans

        spans = read_spans(spans_path) if spans_path.exists() else []
        attempted, bad = judge(workload, runner.queries, untraced + traced, refs)
        reasons += bad
        if workload == "verify":
            seen = count_under(spans, "acceptance.check_kei_cardinalities",
                               "kernel.run_enumeration")
            if seen != FREE_BURNSIDE_KERNEL_CALLS:
                reasons.append(f"tracer saw {seen} kernel calls in criterion 3, "
                               f"expected {FREE_BURNSIDE_KERNEL_CALLS}")
        untraced_wall = statistics.median(w for w, _, _ in untraced)
        metrics = layer_metrics(spans, traced[0][0], untraced_wall)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        for _ in range(SETUP_SAMPLES):
            w = runner.worker(setup_only=True)
            w.proc.stdin.close()
            w.proc.wait(timeout=READY_DEADLINE_S)
        results = runner.run_for(args.seconds)
        setups = [w.setup_s for w in runner.started]
        attempted, bad = judge(workload, runner.queries, results, refs)
        reasons += bad
        metrics = e2e_metrics(setups, results, runner.peak_kb)
        info.update({
            "passes": len(results),
            "pass_walls": [wall for wall, _, _ in results],
            "queries_per_pass": len(runner.queries),
            "latency_tail_percentile": round(stream_stats(results)[3], 2),
            "setup_s_samples": setups,
        })
    failed = len(reasons)
    info.update(runner.backends)
    info["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    info["checked_against_refs"] = bool(refs)
    for r in reasons[:20]:
        print(f"FAILED {r}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def selftest(workdir) -> int:
    """A traced `corpus verify --only free-burnside` must record one
    kernel span per q_kei call of criterion 3."""
    from tracer import read_spans

    spans_path = workdir / "selftest.jsonl"
    w = Worker(workdir, spans=spans_path)
    try:
        reply = w.ask({"id": "selftest", "argv": ["corpus", "verify", "--only",
                                                   "free-burnside"]}, VERIFY_DEADLINE_S)
        if reply is not None:
            w.finish()
    finally:
        w.kill()
    spans = read_spans(spans_path) if reply is not None else []
    seen = sum(1 for s in spans if s[0] == "kernel.run_enumeration")
    ok = reply is not None and reply["rc"] == 0 and seen == FREE_BURNSIDE_KERNEL_CALLS
    print(json.dumps({"selftest": "ok" if ok else "FAILED", "kernel_spans": seen,
                      "expected": FREE_BURNSIDE_KERNEL_CALLS}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
