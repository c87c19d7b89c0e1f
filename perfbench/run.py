"""The oracle's benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload {record,predict,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  The command generates its event
streams from ``--seed`` (:mod:`perfbench.streams`), drives the oracle
through its public API (:mod:`perfbench.workloads`), checks the outputs,
prints a report (every metric with unit and sample count, per-phase op
accounting, checks) and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the JSON holds the end-to-end metrics; with ``--trace 1`` one untraced
pass is followed by a traced pass and the JSON holds the per-layer
metrics.  Exits 1 when a correctness check fails, 2 when the checkout
holds no oracle to benchmark.

A per-layer metric of a layer the workload does not run reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("record", "predict", "serve")

#: end-to-end metrics: (JSON name, unit, better, the workload's own metric
#: on record / predict / serve).  Every workload reports every one.
END_TO_END = (
    ("setup_s", "s", "lower", ("setup_s", "setup_s", "setup_s")),
    ("event_us.p50", "us", "lower",
     ("record_event_us.p50", "predict_event_us.p50", "serve_sync_us.p50")),
    ("event_us.p99", "us", "lower",
     ("record_event_us.p99", "predict_event_us.p99", "serve_sync_us.p99")),
    ("irregular_us_per_event", "us", "lower",
     ("record_us_per_event.irregular", "predict_us_per_event.irregular",
      "serve_sync_us_per_event.irregular")),
    ("events_per_s", "1/s", "higher",
     ("record_events_per_s", "predict_events_per_s", "serve_pipelined_ops_per_s")),
    ("ok_ratio", "ratio", "higher", ("ok_ratio", "ok_ratio", "ok_ratio")),
)

#: per-layer metrics of the traced run:
#: (name, unit, better, layer, target end-to-end metric, workload)
PER_LAYER = (
    ("oracle.event.self_us", "us", "lower", "core.oracle", "record_event_us.p50", "record"),
    ("oracle.event_and_predict.self_us", "us", "lower", "core.oracle",
     "predict_event_us.p50", "predict"),
    ("events.intern.self_us", "us", "lower", "core.events", "record_event_us.p50", "record"),
    ("events.lookup.self_us", "us", "lower", "core.events", "predict_event_us.p50", "predict"),
    ("record.record.self_us", "us", "lower", "core.record", "record_event_us.p50", "record"),
    ("grammar.append.self_us.regular", "us", "lower", "core.grammar",
     "record_event_us.p50,record_event_us.p99", "record"),
    ("grammar.append.self_us.irregular", "us", "lower", "core.grammar",
     "record_us_per_event.irregular", "record"),
    ("grammar.rules_created", "count", "lower", "core.grammar", "record_event_us.p50", "record"),
    ("grammar.rules_final", "count", "lower", "core.grammar", "record_event_us.p50", "record"),
    ("grammar.rule_survival_ratio", "ratio", "higher", "core.grammar",
     "record_event_us.p50", "record"),
    ("grammar.exponent_merges", "count", "higher", "core.grammar", "record_event_us.p50",
     "record"),
    ("finish_s", "s", "lower", "core.oracle", "record_events_per_s", "record"),
    ("frozen.from_grammar_s", "s", "lower", "core.frozen", "finish_s", "record"),
    ("timing.from_replay_s", "s", "lower", "core.timing", "finish_s", "record"),
    ("trace_file.save_s", "s", "lower", "core.trace_file", "finish_s", "record"),
    ("trace_file.bytes", "bytes", "lower", "core.trace_file", "finish_s", "record"),
    ("trace_file.load_s", "s", "lower", "core.trace_file", "setup_s", "predict"),
    ("predict.observe.self_us", "us", "lower", "core.predict", "predict_event_us.p50",
     "predict"),
    ("predict.predict.self_us.d1", "us", "lower", "core.predict", "predict_event_us.p50",
     "predict"),
    ("predict.predict.self_us.far", "us", "lower", "core.predict", "predict_far_us.p50",
     "predict"),
    ("predict_far_us.p50", "us", "lower", "core.oracle", "predict_events_per_s", "predict"),
    ("hit_rate", "ratio", "higher", "core.predict", "-", "predict,serve"),
    ("predict.unexpected", "count", "lower", "core.predict",
     "hit_rate,predict_event_us.p99", "predict"),
    ("predict.unknown", "count", "lower", "core.predict",
     "hit_rate,predict_event_us.p99", "predict"),
    ("predict.pruned", "count", "lower", "core.predict",
     "hit_rate,predict_event_us.p99", "predict"),
    ("successor.expand.self_us", "us", "lower", "core.successor",
     "predict_event_us.p99,predict_us_per_event.irregular", "predict"),
    ("successor.hit_rate", "ratio", "higher", "core.successor", "predict_event_us.p50",
     "predict"),
    ("successor.det_hit_ratio", "ratio", "higher", "core.successor",
     "predict_event_us.p50", "predict"),
    ("successor.evictions", "count", "lower", "core.successor", "predict_event_us.p50",
     "predict"),
    ("accuracy.note.self_us", "us", "lower", "obs.accuracy", "predict_event_us.p50",
     "predict"),
    ("drift.update.self_us", "us", "lower", "obs.drift", "predict_event_us.p50", "predict"),
    ("drift.update.calls", "count", "lower", "obs.drift", "predict_event_us.p50", "predict"),
    ("flight.tick.self_us", "us", "lower", "obs.flight", "predict_event_us.p50", "predict"),
    ("flight.tick.calls", "count", "lower", "obs.flight", "predict_event_us.p50", "predict"),
    ("protocol.encode.self_us", "us", "lower", "server.protocol",
     "serve_sync_us.p50,serve_pipelined_ops_per_s", "serve"),
    ("protocol.decode.self_us", "us", "lower", "server.protocol",
     "serve_sync_us.p50,serve_pipelined_ops_per_s", "serve"),
    ("daemon.handler_us.p50", "us", "lower", "server.daemon", "serve_sync_us.p50", "serve"),
    ("daemon.queue_us.p50", "us", "lower", "server.daemon", "serve_sync_us.p50", "serve"),
    ("daemon_rss_mb", "MB", "lower", "server.daemon", "-", "serve"),
    ("serve.residual_us.p50", "us", "lower", "kernel+scheduler",
     "serve_sync_us.p50,serve_sync_us.p99", "serve"),
    ("daemon.cpu_us_per_op.sync", "us", "lower", "server.daemon", "serve_sync_us.p50",
     "serve"),
    ("daemon.cpu_us_per_op.pipelined", "us", "lower", "server.daemon",
     "serve_pipelined_ops_per_s", "serve"),
    ("client.cpu_us_per_op.sync", "us", "lower", "server.client", "serve_sync_us.p50",
     "serve"),
    ("client.cpu_us_per_op.pipelined", "us", "lower", "server.client",
     "serve_pipelined_ops_per_s", "serve"),
    ("client.open_session_ms", "ms", "lower", "server.client", "setup_s", "serve"),
    ("client.reconnects", "count", "lower", "server.client", "ok_ratio", "serve"),
    ("client.retries", "count", "lower", "server.client", "ok_ratio", "serve"),
    ("client.fallbacks", "count", "lower", "server.client", "ok_ratio", "serve"),
    ("trace.overhead_ratio", "ratio", "lower", "benchmark tracer", "-",
     "record,predict,serve"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="PYTHIA oracle benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no oracle sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # one string-hash layout for every run and every daemon it
        # starts: dict and set layouts otherwise differ per process
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    # run the oracle at its defaults, whatever the caller's environment
    for key in [k for k in os.environ if k.startswith("PYTHIA_")]:
        del os.environ[key]
    # a SIGTERM unwinds like an error, so that every daemon is stopped
    signal.signal(signal.SIGTERM, lambda *_sig: sys.exit(143))
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import workloads as W

    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    ctx = W.Context(
        root=ROOT, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        tmp=os.path.join(ROOT, ".perfbench_tmp", tag),
        out=os.path.join(ROOT, ".perfbench_out"),
    )
    os.makedirs(ctx.out, exist_ok=True)
    res = W.Result()
    try:
        W.WORKLOADS[args.workload](ctx, res)
    finally:
        W.cleanup(ctx)
    res.put("ok_ratio", (res.attempted - res.failed) / max(1, res.attempted),
            "ratio", res.attempted)
    res.put("failed_ratio", res.failed / max(1, res.attempted), "ratio", res.attempted)
    report(args, res)
    return 0 if res.correct else 1


def report(args, res) -> None:
    """Human-readable report, then the JSON result line."""
    col = WORKLOADS.index(args.workload)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for line in res.notes:
        print(f"# {line}")
    print("# phase                sent   succeeded   failed")
    for p in res.phases:
        print(f"#   {p.name:<18}{p.sent:>8}{p.succeeded:>12}{p.failed:>9}")
    print("# times are scaled to the reference host (perfbench/hostspeed.py); "
          "'measured' is before scaling")
    print("# end-to-end metric                        value  unit     samples"
          "     measured  json name")
    aliases = {names[col]: json_name for json_name, _u, _b, names in END_TO_END}
    for name, (value, unit, n) in res.metrics.items():
        print(f"#   {name:<34}{value:>12.6g}  {unit:<6}{n:>10}"
              f"{_measured(res, name):>13}  {aliases.get(name, '-')}")
    if args.trace:
        print("# per-layer metric                         value  unit     samples"
              "     measured  -> target end-to-end metric (workload; layer)")
        for name, unit, _better, layer, target, workload in PER_LAYER:
            value, _u, n = res.layers.get(name, (0.0, unit, 0))
            print(f"#   {name:<34}{value:>12.6g}  {unit:<6}{n:>10}"
                  f"{_measured(res, name):>13}  -> {target} ({workload}; {layer})")
    for name, ok, detail in res.checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    if args.trace:
        metrics = {name: {"value": res.layers.get(name, (0.0,))[0], "unit": unit}
                   for name, unit, *_rest in PER_LAYER}
    else:
        metrics = {json_name: {"value": res.metrics[names[col]][0], "unit": unit}
                   for json_name, unit, _b, names in END_TO_END}
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))


def _measured(res, name: str) -> str:
    value = res.measured.get(name)
    return "-" if value is None else f"{value:.6g}"


if __name__ == "__main__":
    sys.exit(main())
