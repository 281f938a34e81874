"""Timed passes over a workload's operations, with every report gated.

Each operation is one in-process ``momentkit.cli.main([..., "--json"])``
call; the clock runs only around that call.  A pass runs the whole operation
list once, in order, single client, closed loop.  An operation fails when it
raises, exits with the wrong code, fails its workload check, or prints a
report whose sha256 differs from the one recorded in ``digests/``.  For an
operation with no recorded digest, the first passing report of the run is
the reference for every later pass.

On a shared virtual machine the speed of a fixed loop can drift by a fifth
or more over tens of seconds, whatever the program does.  So a pass times
``reference()``, a fixed stdlib computation with the same mix of work as
momentkit's inner loops, before and after every operation, and the
end-to-end latencies are scaled to a machine on which it takes
``REFERENCE_SECONDS``.  Raw wall-clock figures are reported next to them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from momentkit import cli

from .tracer import Tracer
from .workloads import Operation

DIGEST_DIR = Path(__file__).resolve().parent / "digests"
REFERENCE_SECONDS = 0.006


def reference() -> float:
    """Seconds taken by a fixed computation: exact rational products summed
    into a dict keyed by exponent-like tuples, as in ``Poly.__mul__``."""
    start = perf_counter()
    terms: dict[tuple[int, int], Fraction] = {}
    third = Fraction(1, 3)
    for i in range(1500):
        key = (i % 17, i % 5)
        terms[key] = terms.get(key, Fraction(0)) + third * Fraction(i % 7 + 1, 3)
    return perf_counter() - start


class DigestStore:
    """Expected ``[exit code, sha256 of stdout]`` per operation key."""

    def __init__(self, path: Path):
        self.path = path
        self.recorded: dict[str, list] = (
            json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        )
        self.seen: dict[str, list] = {}

    @classmethod
    def for_workload(cls, name: str) -> DigestStore:
        return cls(DIGEST_DIR / f"{name}.json")

    def expected(self, key: str) -> list | None:
        return self.recorded.get(key) or self.seen.get(key)

    def save(self) -> None:
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(self.recorded.items())]
        self.path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


@dataclass(frozen=True)
class Outcome:
    op: Operation
    seconds: float
    exit_code: int | None
    digest: str
    failure: str | None


@dataclass(frozen=True)
class Pass:
    outcomes: tuple[Outcome, ...]
    # REFERENCE_SECONDS over the mean reference() time around each operation
    scales: tuple[float, ...]

    @property
    def scaled_seconds(self) -> float:
        return sum(o.seconds * scale for o, scale in zip(self.outcomes, self.scales))


def execute(op: Operation, store: DigestStore) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code: int | None = None
    failure: str | None = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as exc:  # an operation that raises is counted, not fatal
        failure = f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    stdout = out.getvalue()
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    if failure is None:
        failure = _gate(op, code, stdout, digest, store.expected(op.key))
    if failure is None:
        store.seen.setdefault(op.key, [code, digest])
    return Outcome(op, seconds, code, digest, failure)


def _gate(op: Operation, code: int | None, stdout: str, digest: str, expected) -> str | None:
    if code != op.expect_exit:
        return f"exit code {code}, expected {op.expect_exit}"
    if expected is not None and expected != [code, digest]:
        return f"report digest {digest[:12]} differs from the expected {expected[1][:12]}"
    if op.check is not None:
        try:
            report = json.loads(stdout)
        except ValueError:
            return "stdout is not a JSON report"
        return op.check(report)
    return None


def run_pass(ops: list[Operation], store: DigestStore) -> Pass:
    outcomes, refs = [], [reference()]
    for op in ops:
        outcomes.append(execute(op, store))
        refs.append(reference())
    scales = tuple(2 * REFERENCE_SECONDS / (a + b) for a, b in zip(refs, refs[1:]))
    return Pass(tuple(outcomes), scales)


@dataclass
class Measurement:
    passes: list[Pass]
    traced: list[tuple[Pass, dict[str, float]]]

    def outcomes(self):
        yield from (o for p in self.passes for o in p.outcomes)
        yield from (o for p, _ in self.traced for o in p.outcomes)


def measure(
    ops: list[Operation], store: DigestStore, seconds: float, tracer: Tracer | None = None
) -> Measurement:
    """Run rounds of whole passes while another round fits in ``seconds``.

    A round is one untraced pass, followed by one traced pass when a tracer is
    given.  At least one round always runs.
    """
    result = Measurement([], [])
    start = perf_counter()
    while True:
        result.passes.append(run_pass(ops, store))
        if tracer is not None:
            tracer.install()
            try:
                traced = run_pass(ops, store)
            finally:
                tracer.uninstall()
            result.traced.append((traced, tracer.snapshot()))
        elapsed = perf_counter() - start
        if elapsed * (len(result.passes) + 1) / len(result.passes) > seconds:
            return result


def latencies(m: Measurement, scaled: bool) -> list[float]:
    """Each operation's median latency over the untraced passes, in seconds
    scaled to the reference machine or in raw wall-clock seconds."""
    columns = zip(*(
        [o.seconds * (scale if scaled else 1.0) for o, scale in zip(p.outcomes, p.scales)]
        for p in m.passes
    ))
    return [statistics.median(column) for column in columns]


def end_to_end(m: Measurement, scaled: bool = True) -> dict[str, float]:
    """Latency and throughput over the untraced passes (``setup_s`` and
    ``peak_rss_mb`` are measured by the caller)."""
    lat = latencies(m, scaled)
    ops = [o.op for o in m.passes[0].outcomes]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": deciles[8] * 1000,
        "top_order_s": sum(b for b, op in zip(lat, ops) if op.top),
    }


def per_layer(m: Measurement) -> dict[str, float]:
    """Median per-pass value of every layer metric, plus the tracing overhead:
    traced minus untraced operation time per pass, scaled like the
    end-to-end times."""
    names = m.traced[0][1].keys()
    out = {name: statistics.median(snap[name] for _, snap in m.traced) for name in names}
    out["trace.overhead_s"] = statistics.median(
        p.scaled_seconds for p, _ in m.traced
    ) - statistics.median(p.scaled_seconds for p in m.passes)
    return out
