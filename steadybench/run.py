"""The repository benchmark: one command, three single-process workloads.

Usage (from the repository root)::

    python3 steadybench/run.py --workload wire-quiet --seed 1 --seconds 30 --trace 0

``--trace 0`` runs untraced passes for ``--seconds`` seconds and prints
every end-to-end metric; ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics, the tracing overhead and the
ledger-closure results, and writes the last traced pass's spans to
``.steadybench/spans-<workload>.tsv``.  Every pass is checked for
correctness; a failed check exits non-zero without printing a result.
The last line of standard output is the result as one JSON object.
See ``RATIONALE.md`` for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".steadybench")

#: Metrics that repeat exactly for a seed; every pass of a run must agree.
EXACT = ("op_success", "point_p50_s", "point_p99_s", "range_p90_s",
         "msgs_per_op", "bytes_per_op")
#: At least this many passes per run, so each host-timed value is a median.
MIN_PASSES = 3


def _workloads():
    from dataplane import DataplaneWorkload
    from wire import WireWorkload

    return {
        "wire-quiet": WireWorkload("uniform-baseline", 2048),
        "wire-write-storm": WireWorkload("write-hotspot-adversarial", 1024),
        "dataplane-skewed": DataplaneWorkload(1024, 75_000),
    }


def _metric_units() -> tuple:
    """``(end-to-end, per-layer)`` metric name -> unit, as ``BENCHMARK.json``
    lists them.

    Host time enters the end-to-end metrics only as set-up seconds: on a
    shared host, whole-pass wall time and throughput drift with the host
    (see RATIONALE.md) and are per-layer ``host.*`` diagnostics instead.
    A layer's time is reported as its share of the traced pass's wall
    (``<layer>_share``; ``trace.wall_s`` is that wall).  Shares of one
    pass do not drift with the host the way seconds do, and a layer a
    workload bypasses reads a share of 0.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return tuple(
        {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")
    )


def _fail(message: str) -> NoReturn:
    print(f"steadybench: {message}", file=sys.stderr)
    sys.exit(1)


def _check_pass(first: dict, result: dict, label: str) -> None:
    """Every pass of one seed must give the same report and answers."""
    if result["digest"] != first["digest"]:
        _fail(f"{label}: answers differ from the first pass "
              f"({result['digest'][:12]} vs {first['digest'][:12]})")
    for name in EXACT:
        if result["metrics"][name] != first["metrics"][name]:
            _fail(f"{label}: {name} differs from the first pass")
    if result["defects"] != first["defects"]:
        _fail(f"{label}: overlay defect counts differ from the first pass")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        _fail(f"no library sources under {src}; run from a repository checkout")
    sys.path.insert(0, src)

    from repro.exceptions import ReproError
    from stats import calibration_s
    from tracer import Tracer

    workloads = _workloads()
    if args.workload not in workloads:
        _fail(f"unknown workload {args.workload!r}; known: {sorted(workloads)}")
    workload = workloads[args.workload]

    end_to_end, per_layer = _metric_units()
    calib_start = calibration_s()
    inputs = workload.prepare(args.seed)
    t_start = time.perf_counter()
    untraced, traced = [], []
    tracer = None
    try:
        while True:
            untraced.append(workload.run_pass(inputs))
            _check_pass(untraced[0], untraced[-1], f"pass {len(untraced)}")
            if args.trace:
                tracer = Tracer()
                traced.append(workload.run_pass(inputs, tracer))
                _check_pass(untraced[0], traced[-1], f"traced pass {len(traced)}")
            elapsed = time.perf_counter() - t_start
            per_round = elapsed / len(untraced)
            if args.trace and elapsed + per_round > args.seconds:
                break
            if (not args.trace and len(untraced) >= MIN_PASSES
                    and elapsed + per_round > args.seconds):
                break
    except (AssertionError, ReproError) as exc:
        _fail(f"{args.workload} seed {args.seed}: {type(exc).__name__}: {exc}")
    calib_end = calibration_s()

    first = untraced[0]
    _print_summary(args, untraced, traced, first, calib_start, calib_end)
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.tsv"))
        metrics = _layer_metrics(
            per_layer, untraced, traced, tracer, calib_start, calib_end
        )
    else:
        metrics = {
            name: {"value": statistics.median([r["metrics"][name] for r in untraced]),
                   "unit": unit}
            for name, unit in end_to_end.items()
        }
    result = {
        "correct": True,
        "attempted": sum(r["attempted"] for r in untraced + traced),
        "failed": 0,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _layer_metrics(units, untraced, traced, tracer, calib_start, calib_end) -> dict:
    per_pass = []
    for r in traced:
        wall = r["metrics"]["wall_s"]
        layers = dict(r["defects"], **{"trace.wall_s": wall})
        for name, value in r["layers"].items():
            if name.endswith("_s") and not name.endswith("_per_s"):
                layers[name[:-2] + "_share"] = value / wall
            else:
                layers[name] = value
        unlisted = set(layers) - set(units)
        if unlisted:
            _fail(f"per-layer metrics missing from BENCHMARK.json: {sorted(unlisted)}")
        per_pass.append({name: layers.get(name, 0) for name in units})
    values = {name: statistics.median([r[name] for r in per_pass]) for name in units}
    for name in ("wall_s", "ops_per_s"):
        values[f"host.{name}"] = statistics.median([r["metrics"][name] for r in untraced])
    values["host.calib_s"] = (calib_start + calib_end) / 2
    values["client.check_s"] = statistics.median([r["check_s"] for r in untraced + traced])
    values["trace.overhead"] = (
        statistics.median([r["metrics"]["wall_s"] for r in traced])
        / statistics.median([r["metrics"]["wall_s"] for r in untraced])
    )
    values["trace.spans"] = len(tracer)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _print_summary(args, untraced, traced, first, calib_start, calib_end) -> None:
    print(f"# {args.workload} seed={args.seed} passes={len(untraced)} untraced"
          f" + {len(traced)} traced; host.calib_s start={calib_start:.4f}"
          f" end={calib_end:.4f}")
    for i, r in enumerate(untraced + traced):
        kind = "untraced" if i < len(untraced) else "traced"
        m = r["metrics"]
        print(f"#   pass {i + 1} ({kind}): attempted={r['attempted']}"
              f" failed={r['sim_failed']} wall_s={m['wall_s']:.4f}"
              f" setup_s={m['setup_s']:.4f} ops_per_s={m['ops_per_s']:.1f}")
    for name, p in first["percentiles"].items():
        flag = "; FALLS ON A FAILED OP: the failure deadline" if p.on_failed else ""
        print(f"#   {name} = {p.value:.6f} s over {p.samples} ops"
              f" ({p.beyond} beyond; failed ops ranked last{flag})")
    for name, count in first["defects"].items():
        print(f"#   defect count {name} = {count}")


if __name__ == "__main__":
    sys.exit(main())
