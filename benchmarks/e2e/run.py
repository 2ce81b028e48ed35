"""End-to-end benchmark of the SuccinctEdge serving stack.

One command runs every workload, checks the answers, prints every metric by
name with its unit and writes ``results/BENCH_<seed>.json``::

    python benchmarks/e2e/run.py --seed 13            # end-to-end metrics
    python benchmarks/e2e/run.py --seed 13 --trace    # ... plus the per-layer pass
    python benchmarks/e2e/run.py --compare A.json B.json

With ``--workload NAME`` it runs that workload alone and ends its output with
one JSON line ``{"correct", "attempted", "failed", "metrics"}`` - the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (the contract of ``BENCHMARK.json``).

See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
SOURCE = REPO / "src"
if SOURCE.is_dir() and str(SOURCE) not in sys.path:
    sys.path.insert(0, str(SOURCE))

import e2e_config as config  # noqa: E402  (needs nothing from src)

RESULTS = HERE / "results"
WORK = HERE / ".work"


class InvalidRun(RuntimeError):
    """The run broke a validity guard; its numbers must not be recorded."""


# --------------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------------- #


class Server:
    """The launcher subprocess, from ``Popen`` to the first 200 on ``/healthz``."""

    def __init__(self, workload: str, workdir: pathlib.Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.process: Optional[subprocess.Popen] = None
        self.ready: dict = {}
        self.setup_s = 0.0
        self.url = ""

    def __enter__(self) -> "Server":
        from loadgen import Client

        self.workdir.mkdir(parents=True, exist_ok=True)
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(SOURCE), str(HERE)] + [p for p in [environment.get("PYTHONPATH")] if p]
        )
        # Fixed string hashing: set iteration order inside the server, and
        # with it allocation patterns, repeats from run to run.
        environment["PYTHONHASHSEED"] = "0"
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"),
             "--workdir", str(self.workdir), "--workload", self.workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=environment,
        )
        try:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(f"launcher exited with code {self.process.wait()} before serving")
            self.ready = json.loads(line)
            self.url = f"http://127.0.0.1:{self.ready['port']}"
            Client(self.url).get_json("/healthz")
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *_exc_info) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        try:
            process.stdin.close()
            process.wait(timeout=15)
        except (subprocess.TimeoutExpired, OSError):
            process.kill()
            process.wait()
        finally:
            process.stdout.close()


def stop_children() -> None:
    """Stop, and wait for, every process that is still a child of this one.

    The traced pass's spawn-context ``WorkerPool`` starts multiprocessing's
    resource tracker, which ends only when its pipe closes - at interpreter
    exit, so nobody waits for it and it outlives the run as a zombie.  It is
    stopped by name; anything else still around (an error path that skipped
    a ``close()``) is killed.  Both are waited for.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:  # no tracker running, or a Python without ``_stop``
        pass
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                parent = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # gone between listing and reading
        if parent != os.getpid():
            continue
        try:
            os.kill(int(entry), signal.SIGKILL)
        except OSError:
            pass
        try:
            os.waitpid(int(entry), 0)
        except OSError:
            pass


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median_and_iqr(values: Sequence[float]) -> Dict[str, float]:
    """``{"value": median, "iqr": q3 - q1}`` of repeated measurements."""
    if len(values) < 2:
        return {"value": values[0], "iqr": 0.0}
    quartiles = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "iqr": quartiles[2] - quartiles[0]}


def guard_scale(window) -> float:
    """Validity floors are set for the default window; a shorter one scales them."""
    return min(1.0, (window.ended - window.started) / config.DEFAULT_SECONDS)


def _latencies(samples, reads: bool) -> List[float]:
    return [s.latency_ms for s in samples if s.ok and (s.op.kind == "query") == reads]


def chunk_window(workload: str, window, round_size: int, boundaries: Sequence[float]):
    """Cut the measured window into ``(samples, operations per second)`` chunks.

    A workload with a period is measured over whole periods, or the numbers
    say which part of a period the window happened to end in:

    * ``round_size`` (round-robin, ``analytic_full``): operations differ
      100-fold in cost, so per client the last complete rounds inside the
      window form one chunk;
    * ``boundaries`` (``live_update_mix``: the instants a compaction ended):
      throughput falls by two thirds while a compaction runs, so each chunk
      is one whole insert -> compact -> swap cycle;
    * otherwise: ``config.SLICES`` slices of equal length.
    """
    measured = window.measured()
    if round_size:
        kept, rate = [], 0.0
        needed = int(config.MIN_ROUNDS_PER_CLIENT * guard_scale(window))
        for client in range(config.CLIENTS):
            own = [s for s in measured if s.client == client]
            rounds = len(own) // round_size
            if rounds < needed or not own:
                raise InvalidRun(f"{workload}: client {client} completed {rounds} rounds, fewer than {needed}")
            if rounds:  # a --quick window is shorter than one round: keep what there is
                own = own[len(own) - rounds * round_size:]
            rate += len(own) / (own[-1].ended - own[0].started)
            kept += own
        return [(kept, rate)]
    edges = list(boundaries)
    if len(edges) < 2:  # one boundary bounds no cycle (a --quick window sees one compaction)
        slices = max(1, round(config.SLICES * guard_scale(window)))
        edges = [
            window.started + index * (window.ended - window.started) / slices
            for index in range(slices + 1)
        ]
    chunks = []
    for begin, end in zip(edges, edges[1:]):
        inside = [s for s in measured if begin <= s.ended < end]
        chunks.append((inside, len(inside) / (end - begin)))
    fewest = min(len(_latencies(inside, True)) for inside, _rate in chunks)
    floor = int(config.MIN_READS_PER_SLICE * guard_scale(window))
    if fewest < floor:
        raise InvalidRun(f"{workload}: a slice holds {fewest} reads, fewer than {floor}")
    return chunks


def summarise(chunks, per_text: bool = False) -> Dict[str, dict]:
    """Timing metrics: computed per chunk, reported as the median of the chunks.

    A chunk holds 200+ reads, so its p95 has ten samples beyond it.

    ``per_text`` (round-robin, ``analytic_full``): 22 texts are each asked
    about ten times, so the pooled p95 sits on the edge between the samples
    of the dearest and the second dearest query and jumps from one to the
    other with the number of rounds.  There the percentiles are read across
    the texts, each text standing with its median latency.
    """
    reads = [_latencies(inside, True) for inside, _rate in chunks]
    ranked = reads
    if per_text:
        ranked = []
        for inside, _rate in chunks:
            by_text: Dict[tuple, List[float]] = {}
            for sample in inside:
                if sample.ok and sample.op.kind == "query":
                    by_text.setdefault((sample.op.text, sample.op.reasoning), []).append(sample.latency_ms)
            ranked.append([statistics.median(values) for values in by_text.values()])
    metrics = {"qps": median_and_iqr([rate for _inside, rate in chunks])}
    for name, fraction in (("read_p50_ms", 0.50), ("read_p95_ms", 0.95), ("read_p99_ms", 0.99)):
        metrics[name] = median_and_iqr([percentile(values, fraction) for values in ranked])
    writes = [latency for inside, _rate in chunks for latency in _latencies(inside, False)]
    if writes:
        # Writes are a fifth of the traffic: read over all chunks together so
        # the p95 keeps ten samples beyond it.
        metrics["write_p50_ms"] = {"value": percentile(writes, 0.50), "iqr": 0.0}
        metrics["write_p95_ms"] = {"value": percentile(writes, 0.95), "iqr": 0.0}
    metrics["samples"] = {
        "reads": sum(len(values) for values in reads),
        "writes": len(writes),
        "reads_per_chunk_min": min(len(values) for values in reads),
        "chunks": len(chunks),
    }
    return metrics


# --------------------------------------------------------------------------- #
# answer checking
# --------------------------------------------------------------------------- #


def _sorted_rows(document: dict) -> list:
    if "boolean" in document:
        return [document["boolean"]]
    return sorted(document["results"]["rows"], key=repr)


def verify_reads(client, image_path: str, window, seed: int, static: bool) -> int:
    """Mismatches between the server and ``MaterializingQueryEngine``.

    A seeded sample of distinct query texts seen in the window is asked once
    more and compared, as sorted rows, with the independent materializing
    engine over the same image.  On a static store the body must also hash
    to what the clients saw during the window.
    """
    from repro.query.materializing import MaterializingQueryEngine
    from repro.sparql.bindings import AskResult
    from repro.store.succinct_edge import SuccinctEdge

    seen = {}
    for sample in window.measured():
        if sample.op.kind == "query" and sample.ok:
            seen.setdefault((sample.op.text, sample.op.reasoning), sample.digest)
    keys = sorted(seen)
    random.Random(f"verify/{seed}").shuffle(keys)
    store = SuccinctEdge.load(image_path, mmap=True)
    oracles = {flag: MaterializingQueryEngine(store, reasoning=flag) for flag in (False, True)}
    wrong = 0
    for text, reasoning in keys[: config.VERIFY_SAMPLE]:
        status, _headers, body = client.request(
            "POST", f"/sparql?reasoning={1 if reasoning else 0}", text.encode("utf-8")
        )
        if status != 200 or (static and hashlib.sha1(body).digest() != seen[text, reasoning]):
            wrong += 1
            continue
        expected = oracles[reasoning].execute(text)
        if isinstance(expected, AskResult):
            reference = [expected.boolean]
        else:
            # Stringified like the server's JSON document: rows are compared
            # as the strings a client receives.
            reference = sorted(
                ([None if value is None else str(value) for value in row]
                 for row in expected.to_tuples()),
                key=repr,
            )
        if _sorted_rows(json.loads(body)) != reference:
            wrong += 1
    return wrong


def verify_ledger(client, window) -> int:
    """Acknowledged writes the quiesced store does not reflect."""
    from loadgen import live_triples
    from traffic import ABOUT_PROPERTY, VALUE_PROPERTY

    deadline = time.perf_counter() + 60
    while client.get_json("/bench/state")["compacting"]:
        if time.perf_counter() > deadline:
            raise InvalidRun("background compaction did not finish within 60 s")
        time.sleep(0.05)
    readable, absent = live_triples(window.samples)
    stored = set()
    for predicate in (VALUE_PROPERTY, ABOUT_PROPERTY):
        text = f"SELECT ?s ?o WHERE {{ ?s <{predicate}> ?o }}"
        _status, _headers, body = client.request("POST", "/sparql?reasoning=0", text.encode("utf-8"))
        for subject, obj in json.loads(body)["results"]["rows"]:
            stored.add((subject, predicate, obj))
    as_strings = lambda triples: {(s, p, str(o)) for s, p, o in triples}  # noqa: E731
    return len(as_strings(readable) - stored) + len(as_strings(absent) & stored)


# --------------------------------------------------------------------------- #
# one workload
# --------------------------------------------------------------------------- #


def cold_start_samples(url: str) -> List[float]:
    """The server's repeated (load the image + answer the first query), in ms."""
    from loadgen import Client

    return Client(url).get_json("/bench/cold_start")["cold_start_ms"]


def run_workload(
    workload: str, seed: int, seconds: float, traffic, setups: int, workdir: pathlib.Path
) -> dict:
    """Set up ``setups`` times, then warm up, measure and check one workload."""
    from loadgen import Client, inconsistent_reads, run_window

    setup_times, cold_starts = [], []
    for _ in range(setups - 1):
        with Server(workload, workdir) as rehearsal:
            setup_times.append(rehearsal.setup_s)
            cold_starts += cold_start_samples(rehearsal.url)
    with Server(workload, workdir) as server:
        setup_times.append(server.setup_s)
        cold_starts += cold_start_samples(server.url)
        ready = server.ready
        control = Client(server.url)
        streams = [traffic.stream(workload, seed, client) for client in range(config.CLIENTS)]
        window = run_window(server.url, streams, config.WARMUP_SECONDS, seconds)
        # Read before the cold starts below map the image once more.
        peak_rss_mb = control.get_json("/bench/state")["peak_rss_mb"]
        cold_starts += cold_start_samples(server.url)
        measured = window.measured()
        failed = sum(1 for s in measured if not s.ok)
        failed += inconsistent_reads(measured)
        live = workload == "live_update_mix"
        if live:
            failed += verify_ledger(control, window)
        failed += verify_reads(control, ready["image_path"], window, seed, static=not live)
        state = control.get_json("/bench/state")
        stats = control.get_json("/stats")
        cold_starts += cold_start_samples(server.url)

    if window.client_busy_share > config.MAX_CLIENT_BUSY_SHARE:
        raise InvalidRun(
            f"{workload}: the load generator was busy {window.client_busy_share:.2f} of the "
            f"window (limit {config.MAX_CLIENT_BUSY_SHARE}); it measured itself"
        )
    compactions = [
        dict(c, ended=c["ended"] - window.wall_offset)  # on the window's clock
        for c in state["compactions"]
        if window.started <= c["ended"] - window.wall_offset < window.ended
    ]
    needed = max(1, int(config.MIN_COMPACTIONS * guard_scale(window)))
    if live and len(compactions) < needed:
        raise InvalidRun(
            f"{workload}: {len(compactions)} compactions completed in the window, fewer than {needed}"
        )
    round_robin = workload == "analytic_full"
    timing = summarise(
        chunk_window(
            workload, window,
            round_size=len(traffic.analytic_queries()) if round_robin else 0,
            boundaries=[c["ended"] for c in compactions],
        ),
        per_text=round_robin,
    )
    attempted = len(measured)
    end_to_end = {
        "setup_s": median_and_iqr(setup_times),
        "qps": timing["qps"],
        "read_p50_ms": timing["read_p50_ms"],
        "read_p95_ms": timing["read_p95_ms"],
        # The fastest sample of all: on this host a load takes 15 ms or 19 ms
        # in spells of 1-3 s, whatever the process does, so a median reports
        # the spell.  Sampling before each launcher serves, after the window
        # and after the checks puts some samples in a fast spell most times.
        "cold_start_ms": dict(median_and_iqr(cold_starts), value=min(cold_starts)),
        "image_bytes_per_triple": {"value": ready["image_bytes"] / ready["triples"], "iqr": 0.0},
        "peak_rss_mb": {"value": peak_rss_mb, "iqr": 0.0},
        "failed_share": {"value": failed / attempted, "iqr": 0.0},
    }
    for name in ("write_p50_ms", "write_p95_ms"):
        if name in timing:
            end_to_end[name] = timing[name]
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "samples": timing["samples"],
        "observed": {
            "window": window,
            "timing": timing,
            "state": state,
            "stats": stats,
            "ready": ready,
            "compactions_in_window": compactions,
        },
    }


# --------------------------------------------------------------------------- #
# documents, printing, comparing
# --------------------------------------------------------------------------- #

UNITS = {m["name"]: m["unit"] for m in config.END_TO_END + config.END_TO_END_LOCAL + config.PER_LAYER}


def environment_record(seed: int, seconds: float, ready: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "dataset": {
            "departments": config.DATASET_DEPARTMENTS,
            "seed": config.DATASET_SEED,
            "triples": ready["triples"],
            "image_bytes": ready["image_bytes"],
        },
        "result_cache_capacity": config.RESULT_CACHE_CAPACITY,
        "plan_cache_capacity": config.PLAN_CACHE_CAPACITY,
        "worker_slots": config.WORKER_SLOTS,
        "clients": config.CLIENTS,
    }


def with_units(metrics: Dict[str, dict]) -> Dict[str, dict]:
    return {name: dict(entry, unit=UNITS[name]) for name, entry in metrics.items()}


def print_metrics(title: str, metrics: Dict[str, dict]) -> None:
    print(f"\n{title}")
    for name, entry in metrics.items():
        spread = f"  (IQR {entry['iqr']:.4g})" if entry.get("iqr") else ""
        print(f"  {name:<38} {entry['value']:>14.4f} {entry['unit']}{spread}")


def compare(path_a: str, path_b: str) -> int:
    """Apply the bounds of ``e2e_config`` to two result documents; 1 on regression."""
    with open(path_a) as handle:
        before = json.load(handle)
    with open(path_b) as handle:
        after = json.load(handle)
    gated = {m["name"]: m for m in config.END_TO_END + config.END_TO_END_LOCAL}
    regressed = False
    print(f"{'workload':<16} {'metric':<38} {'before':>12} {'after':>12} {'worse by':>8}  verdict")
    for workload in config.WORKLOAD_NAMES:
        a, b = before["workloads"].get(workload), after["workloads"].get(workload)
        if a is None or b is None:
            continue
        for name, spec in gated.items():
            if name not in a["end_to_end"] or name not in b["end_to_end"]:
                continue
            old, new = a["end_to_end"][name], b["end_to_end"][name]
            worse = new["value"] - old["value"] if spec["better"] == "lower" else old["value"] - new["value"]
            share = worse / old["value"] if old["value"] else (1.0 if worse > 0 else 0.0)
            noisy = old["value"] and max(old["iqr"], new["iqr"]) / old["value"] > spec["bound"]
            if share > spec["bound"]:
                verdict, regressed = "REGRESSED", True
            elif noisy and spec["bound"]:
                verdict = "unresolved (IQR wider than the bound)"
            elif worse < 0:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:<16} {name:<38} {old['value']:>12.4f} {new['value']:>12.4f} "
                  f"{share:>+8.1%}  {verdict}")
        for name in sorted(set(a.get("per_layer", {})) & set(b.get("per_layer", {}))):
            old, new = a["per_layer"][name]["value"], b["per_layer"][name]["value"]
            verdict = "not gated"
            if name == "sds.kernel_calls_per_op" and old != new:
                verdict, regressed = "REGRESSED (must match exactly)", True
            print(f"{workload:<16} {name:<38} {old:>12.4f} {new:>12.4f} {'':>8}  {verdict}")
    return 1 if regressed else 0


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=13, help="traffic seed (the dataset seed is fixed)")
    parser.add_argument("--workload", choices=config.WORKLOAD_NAMES,
                        help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seconds", type=float, help="measured window per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="add the traced per-layer pass")
    parser.add_argument("--quick", action="store_true",
                        help=f"{config.QUICK_SECONDS} s windows, one set-up, short trace (smoke test)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not SOURCE.is_dir():
        print(f"error: {SOURCE} is missing; the benchmark measures the program in src/", file=sys.stderr)
        return 2

    from launcher import generate_dataset
    from traffic import Traffic

    seconds = args.seconds or (config.QUICK_SECONDS if args.quick else config.DEFAULT_SECONDS)
    # The driver's traced run reports no end-to-end metric: one set-up will do.
    once = args.quick or (args.trace and args.workload)
    setups = 1 if once else config.SETUP_REPEATS
    traffic = Traffic(generate_dataset())
    names = [args.workload] if args.workload else config.WORKLOAD_NAMES
    document = {"workloads": {}}
    workdir = WORK / str(os.getpid())  # inside the checkout; images and probe files
    # A terminated run unwinds like any other, so the server is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        for name in names:
            # The traced run measures a window too: the counters a loaded
            # server shows (cache hits, compactions) belong to the layers.
            result = run_workload(name, args.seed, seconds, traffic, setups, workdir)
            observed = result.pop("observed")
            document.setdefault("environment", environment_record(args.seed, seconds, observed["ready"]))
            result["end_to_end"] = with_units(result["end_to_end"])
            if args.trace:
                import layers

                result["per_layer"], result["layer_shares"] = layers.per_layer_pass(
                    name, args.seed, traffic, observed, quick=args.quick,
                    trace_dir=RESULTS, workdir=workdir,
                )
                result["per_layer"] = with_units(result["per_layer"])
            document["workloads"][name] = result
            print_metrics(f"{name}: end to end ({result['attempted']} operations, "
                          f"{result['failed']} failed)", result["end_to_end"])
            if args.trace:
                print_metrics(f"{name}: per layer", result["per_layer"])
                layers.print_shares(name, result["layer_shares"])
    except InvalidRun as error:
        print(f"invalid run, nothing recorded: {error}", file=sys.stderr)
        return 3
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    if not args.workload:
        RESULTS.mkdir(exist_ok=True)
        target = RESULTS / f"BENCH_{args.seed}.json"
        target.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {target}")
        return 0 if all(w["failed"] == 0 for w in document["workloads"].values()) else 1

    result = document["workloads"][args.workload]
    listed = config.PER_LAYER if args.trace else config.END_TO_END
    source = result["per_layer"] if args.trace else result["end_to_end"]
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
