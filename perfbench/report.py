"""Turns the raw samples of one run into the benchmark's metrics.

The JVM side writes every sample it takes; this module owns the metric
catalog, the statistics (median, tail percentile, sample count) and the
schema of the result line that `run.py` prints last.
"""

import json
import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

ALGOS = ("M", "S", "F")

# Gated metrics, reported by the untraced run (--trace 0).
END_TO_END = (
    ("setup_s", "s"),
    ("train_s.M", "s"),
    ("train_s.S", "s"),
    ("train_s.F", "s"),
    ("ok_frac", "ratio"),
)

# Layer metrics, reported by the traced run (--trace 1). See METRICS.md.
PER_LAYER = (
    ("data.gen_s", "s"),
    ("data.bytes.S", "bytes"),
    ("data.bytes.R", "bytes"),
    ("data.bytes.T", "bytes"),
    ("data.materialize_s.M", "s"),
    ("data.scan_s.S", "s"),
    ("data.scan_s.T", "s"),
    ("data.join_s.S", "s"),
    *((f"core.iter_s.{a}", "s") for a in ALGOS),
    ("core.prep_s.F", "s"),
    *((f"core.driver_s.{a}", "s") for a in ALGOS),
    *((f"spark.{m}.{a}", u) for m, u in (
        ("job_s", "s"), ("task_run_s", "s"), ("task_cpu_s", "s"), ("gc_s", "s"),
        ("shuffle_bytes", "bytes"), ("result_bytes", "bytes"), ("records_read", "count"),
        ("tasks", "count"), ("jobs", "count")) for a in ALGOS),
    *((f"linalg.{k}.{w}", "ns") for k in ("quad_ns", "mv_ns", "outer_ns") for w in ("d", "dS")),
    ("linalg.chol_inv_us.d", "us"),
    *((f"jvm.old_gen_peak_mb.{a}", "MB") for a in ALGOS),
    *((f"trace.overhead_s.{a}", "s") for a in ALGOS),
)

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def catalog(trace: bool) -> tuple:
    return PER_LAYER if trace else END_TO_END


def median(xs):
    s = sorted(xs)
    if not s:
        raise ValueError("median of no samples")
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def tail_percentile(xs, beyond=10):
    """The highest percentile with at least `beyond` samples above it, as
    (percentile, value) by nearest rank; None when there are too few
    samples for any percentile to have that many beyond it."""
    n = len(xs)
    if n <= beyond:
        return None
    p = 100 * (n - beyond) // n
    rank = max(1, -(-p * n // 100))  # ceil(p·n/100) in integers
    return p, sorted(xs)[rank - 1]


def summary(xs):
    return {"median": median(xs), "n": len(xs), "tail": tail_percentile(xs)}


def samples_and_units(raw: dict) -> tuple:
    """The JVM's samples plus `ok_frac`: fits that passed ÷ fits attempted."""
    samples, units = dict(raw["samples"]), dict(raw["units"])
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    if attempted > 0:
        samples["ok_frac"] = [(attempted - failed) / attempted]
        units["ok_frac"] = "ratio"
    return samples, units


def build_result(raw: dict, trace: bool) -> dict:
    """The result object: every metric of the catalog as the median of its
    samples. Raises ValueError when a metric has no samples."""
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    samples, units = samples_and_units(raw)
    metrics = {}
    for name, unit in catalog(trace):
        if not samples.get(name):
            raise ValueError(f"no samples for metric {name}")
        if units.get(name) != unit:
            raise ValueError(f"metric {name}: unit {units.get(name)!r}, expected {unit!r}")
        metrics[name] = {"value": median(samples[name]), "unit": unit}
    result = {"correct": failed == 0 and not raw.get("errors"), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    validate(result, trace)
    return result


def validate(result: dict, trace: bool) -> None:
    """Check the result line against the output contract."""
    if tuple(result) != RESULT_KEYS:
        raise ValueError(f"result keys {tuple(result)} != {RESULT_KEYS}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a bool")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool):
            raise ValueError(f"{k} must be an int")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        raise ValueError("need attempted >= 1 and 0 <= failed <= attempted")
    expected = dict(catalog(trace))
    if set(result["metrics"]) != set(expected):
        raise ValueError("metric names differ from the catalog")
    for name, m in result["metrics"].items():
        if not NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if set(m) != {"value", "unit"} or m["unit"] != expected[name] or not UNIT_RE.match(m["unit"]):
            raise ValueError(f"bad metric entry {name}: {m}")
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"metric {name} is not a finite number: {v!r}")


def info_lines(raw: dict, trace: bool) -> list:
    """Human-readable lines printed before the result: per-metric medians
    with sample counts and tail percentiles, F's speedup, the run
    environment and every fit's objective sequence."""
    lines = [f"env {json.dumps(raw.get('env', {}), sort_keys=True)}"]
    samples, _ = samples_and_units(raw)
    for name, unit in catalog(trace):
        xs = samples.get(name)
        if not xs:
            continue
        s = summary(xs)
        tail = (f"p{s['tail'][0]}={s['tail'][1]:.6g}" if s["tail"]
                else "no tail percentile (n <= 10)")
        lines.append(f"metric {name} median={s['median']:.6g} {unit} n={s['n']} {tail}")
    if not trace:
        t = {a: samples.get(f"train_s.{a}") for a in ALGOS}
        if all(t.values()):
            sp = min(median(t["M"]), median(t["S"])) / median(t["F"])
            lines.append(f"info f_speedup = min(train_s.M, train_s.S) / train_s.F = {sp:.3f} (not gated)")
    for f in raw.get("fits", []):
        objs = " ".join(repr(float(x)) for x in f["objectives"])
        lines.append(f"objectives {f['algo']} {f['kind']} round={f['round']} ok={f['ok']} "
                     f"seconds={f['seconds']:.4f}: {objs}")
    for e in raw.get("errors", []):
        lines.append(f"error {e}")
    return lines
