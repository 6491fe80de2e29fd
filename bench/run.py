"""pdtcomp benchmark: fixed, seeded workloads with checked outputs and traced layers.

Run from anywhere inside a source checkout (it finds ``src/`` next to this
directory and writes only to ``.bench_work/`` at the checkout root):

    python3 bench/run.py --workload rho-sweep --seed 1 --seconds 20 --trace 0

Workloads; every pass runs its work in fresh child interpreters, one at a
time, and this process only orchestrates and checks:

* ``rho-sweep``: the paper's measurement at a tenth of its cap, by
  ``sweep.py`` in one process.  The final ``analysis.ratio_series(k, n)``
  point for k = 5, 6, 7, 10, 20 at the largest n with n * k**n <= 2e6
  (9.9 M symbols).  Generation and ``Compressor.consume`` only; no file
  I/O, no seed.
* ``audit``: the CLI commands ``ratio --k 5 --n-max 7 --csv FILE`` and
  ``verify --k-min 2 --k-max 6 --n-max 5 --words 10 --seed S``.  The only
  workload where analysis, engine and rewrite do most of the work.
* ``file-roundtrip``: the CLI pipeline ``gen --k 5 --n-max 7 --variant
  paired-enum --seed S`` -> ``compress`` -> ``decompress`` on binary PDT1
  files, then a byte compare.  Covers streamio, the CLI and the codec's
  ``feed`` paths; never touches analysis.

A pass takes one to two seconds, so a run holds a dozen or more.

Host-adjusted times.  The shared 2-core host this was tuned on runs the same
code up to 70% slower for seconds to minutes at a time, with CPU time
tracking wall time, so whole runs can land in a slow spell.  The end-to-end
times are therefore scaled to a reference host speed.  A fixed pure-Python
loop (:func:`calib_loop`) is timed before, between and after the short
pieces of a pass (each CLI command; each k of the sweep) and around each
interpreter start, and every piece's time is multiplied by ``CALIB_REF_S``
over the mean of the two loops around it.  A change to pdtcomp moves the
pieces and not the loop, so it shows in full; a slow spell moves both.  The
report line keeps every raw and adjusted sample, and ``host.calib_s`` (the
median of five loops at the start of a run) shows the host's speed.

``--trace 0`` repeats the workload's pass until ``--seconds`` have elapsed
(at least once), timing one fresh interpreter from spawn to ``import
pdtcomp`` done after each pass, and reports the end-to-end metrics:

* ``wall_s``: the median host-adjusted pass; the sweep as timed inside its
  process, or the sum of the CLI command times from spawn to exit;
* ``msym_per_s``: plain input symbols over ``wall_s``; the sweep's symbols
  read, the ratio prefix plus the census-grid segments for audit, the
  generated file's symbols for file-roundtrip;
* ``peak_rss_mb``: the largest peak RSS of the workload's processes;
* ``setup_s``: the median host-adjusted import time, of at least eleven,
  after one untimed warm-up.

``--trace 1`` runs one untraced pass and then one pass with spans recorded
around calls into the package's layers, and reports the per-layer metrics
of :data:`LAYER_METRICS`; layers a workload does not call report 0.  The
traced pass must produce the same outputs and the same exact counts as the
untraced one.

Every output is checked; ``attempted`` and ``failed`` in the result count
the checks, so ``failed / attempted`` is the fail ratio.  The line before
the result is a report with the seed, host, source digest, per-pass and
per-command figures and (traced) the span table.  Exit status 2 when the
package sources are missing.
"""

import argparse
import csv
import filecmp
import hashlib
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from tracer import merge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 150

# The paper's cap is 2e7 (133.7 M symbols, about 22 s a pass); a tenth of it
# keeps a pass short enough for a run to hold many.
RHO_SWEEP_CAP = 2_000_000
# (k, n, symbols read, symbols written): the unflushed final checkpoint of
# the sweep, n the largest with n * k**n <= RHO_SWEEP_CAP.
RHO_SWEEP = (
    (5, 7, 1_318_360, 1_058_366),
    (6, 7, 4_568_556, 3_633_127),
    (7, 6, 1_601_334, 1_273_311),
    (10, 5, 1_086_420, 845_549),
    (20, 4, 1_329_640, 1_020_077),
)

RATIO_ARGS = ["ratio", "--k", "5", "--n-max", "7"]
RATIO_ROWS = 7
RATIO_FINAL_ROW = {
    "prefix_len": 1_318_360,
    "out_len": 1_058_366,
    "h_observed": 700_000,
    "d": 216_662,
    "N": 460_651,
}
VERIFY_K_MIN, VERIFY_K_MAX, VERIFY_N_MAX = 2, 6, 5
VERIFY_ARGS = ["verify", "--k-min", str(VERIFY_K_MIN), "--k-max", str(VERIFY_K_MAX),
               "--n-max", str(VERIFY_N_MAX), "--words", "10"]
# Five properties per k (round trip, stack content, segment census, savings
# bounds, cyclic occurrences), then pair confluence once.
VERIFY_ROWS = 5 * (VERIFY_K_MAX - VERIFY_K_MIN + 1) + 1
# The census grid: each mirrored segment is compressed once through engine.run.
GRID_SYMBOLS = sum(
    2 * n * k**n for k in range(VERIFY_K_MIN, VERIFY_K_MAX + 1) for n in range(3, VERIFY_N_MAX + 1)
)

GEN_ARGS = ["gen", "--k", "5", "--n-max", "7", "--variant", "paired-enum"]
PLAIN_SYMBOLS = 1_318_360
# Seed-independent: every paired word u r(u) drains the stack, so no pop
# run spans two words and the shuffle cannot change the coded length.
CODED_SYMBOLS = 1_086_080
PDT1_HEADER = struct.Struct("<4sBBHQ")

END_TO_END = (("wall_s", "s"), ("msym_per_s", "Msym/s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))

# Spans whose work count is plain symbols: report busy time and Msym/s.
SYMBOL_SPANS = (
    "seqgen.iter_mirrored_segments",
    "codec.Compressor.consume",
    "codec.Compressor.feed",
    "codec.Decompressor.feed",
    "analysis.block_stats",
)
BUSY_SPANS = ("codec.compress_run", "engine.run", "rewrite.normal_form", "analysis.pop_run_account")
BYTE_SPANS = ("streamio.encode_stream", "streamio.decode_stream")
SELF_SPANS = (
    "analysis.segment_reports",
    "analysis.ratio_series",
    "cli.gen",
    "cli.compress",
    "cli.decompress",
    "cli.ratio",
    "cli.verify",
)
ROUNDTRIP_COMMANDS = ("gen", "compress", "decompress")
CODEC_COUNTS = ("codec.read_syms", "codec.written_syms", "codec.pair_markers", "codec.clustered_pops")

LAYER_METRICS = (
    [("host.calib_s", "s"), ("trace.overhead_s", "s")]
    + [(f"{c}_s", "s") for c in ROUNDTRIP_COMMANDS]
    + [(f"{c}_rss_mb", "MiB") for c in ROUNDTRIP_COMMANDS]
    + [(f"{s}.{m}", u) for s in SYMBOL_SPANS for m, u in (("busy_s", "s"), ("msym_per_s", "Msym/s"))]
    + [("seqgen.symbols", "count")]
    + [(f"{s}.busy_s", "s") for s in BUSY_SPANS]
    + [("engine.run.steps", "count")]
    + [(f"{s}.{m}", u) for s in BYTE_SPANS for m, u in (("busy_s", "s"), ("mb_per_s", "MB/s"))]
    + [(f"{s}.self_s", "s") for s in SELF_SPANS]
    + [(c, "count") for c in CODEC_COUNTS]
)


class Checks:
    """Output checks of one run; failures are kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
        return ok

    def counts(self, what: str, summary: dict, expected: dict) -> None:
        for name, value in expected.items():
            got = summary["counts"].get(name, 0)
            self(f"{what}: traced {name} {got} == {value}", got == value)


class Command(NamedTuple):
    status: int
    wall_s: float
    rss_mb: float
    stdout: str
    scale: float = 1.0  # to the reference host speed; see host_scales


class Pass(NamedTuple):
    wall_s: float
    adjusted_s: float  # host-adjusted wall_s
    symbols: int
    rss_mb: float
    commands: dict  # command name -> Command
    outputs: object  # compared between the untraced and the traced pass
    trace: dict | None  # merged span summary of a traced pass


def run_child(cmd: list[str], work: Path) -> Command:
    """Run one command in a fresh interpreter; its own wall time and peak RSS.

    ``os.wait4`` gives this child's peak RSS; ``RUSAGE_CHILDREN`` would be a
    running maximum over every child so far.
    """
    out_path = work / "stdout.txt"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
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
    return Command(proc.returncode, wall, usage.ru_maxrss / 1024, out_path.read_text())


def cli_command(argv: list[str], work: Path, summary: Path | None = None) -> Command:
    """One pdtcomp CLI command; with ``summary``, traced and summarized there."""
    if summary is None:
        return run_child([sys.executable, "-c", "from pdtcomp.cli import main; main()", *argv], work)
    return run_child([sys.executable, str(BENCH / "traced_cli.py"), str(summary), *argv], work)


def run_commands(argvs: dict, work: Path, traces: dict) -> dict:
    """CLI commands one after another, with a calibration loop before, between
    and after them; each command keeps the scale of the two loops around it."""
    loops = [calib_loop()]
    commands = {}
    for name, argv in argvs.items():
        command = cli_command(argv, work, traces[name])
        loops.append(calib_loop())
        commands[name] = command._replace(scale=host_scales(loops)[-1])
    return commands


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def rho_sweep(seed: int, work: Path, check: Checks, traced: bool) -> Pass:
    summary_path = work / "sweep.trace.json"
    cmd = [sys.executable, str(BENCH / "sweep.py")] + ([str(summary_path)] if traced else [])
    child = run_child(cmd, work)
    check("rho-sweep: exit 0", child.status == 0)
    try:
        result = json.loads(child.stdout)
    except ValueError:
        result = {"times": [child.wall_s], "loops": [], "finals": []}
    finals = result["finals"]
    if check(f"rho-sweep: {len(RHO_SWEEP)} final points", len(finals) == len(RHO_SWEEP)):
        for (k, _, read, written), (got_read, got_written, rho) in zip(RHO_SWEEP, finals):
            check(f"rho-sweep k={k}: (read, written) pinned", (got_read, got_written) == (read, written))
            check(f"rho-sweep k={k}: rho {rho} < 1", rho < 1)
    read = sum(r for _, _, r, _ in RHO_SWEEP)
    summary = None
    if traced:
        summary = _load(summary_path)
        check.counts("rho-sweep", summary, {
            "seqgen.iter_mirrored_segments": read,
            "codec.Compressor.consume": read,
            "codec.read_syms": read,
            "codec.written_syms": sum(w for _, _, _, w in RHO_SWEEP),
        })
    times = result["times"]
    adjusted = sum(times)  # a traced sweep times no calibration loops
    if result["loops"]:
        adjusted = sum(t * scale for t, scale in zip(times, host_scales(result["loops"])))
    return Pass(sum(times), adjusted, read, child.rss_mb, {}, finals, summary)


def check_audit(check: Checks, ratio: Command, rows: list[dict], verify: Command) -> None:
    check("audit: ratio exit 0", ratio.status == 0)
    check(f"audit: {RATIO_ROWS} CSV rows", len(rows) == RATIO_ROWS)
    final = rows[-1] if rows else {}
    for column, value in RATIO_FINAL_ROW.items():
        check(f"audit: final {column} == {value}", final.get(column) == str(value))
    check("audit: verify exit 0", verify.status == 0)
    lines = verify.stdout.splitlines()
    check(f"audit: {VERIFY_ROWS} verify rows", len(lines) == VERIFY_ROWS)
    check("audit: every verify row PASS", all(line.split()[2:3] == ["PASS"] for line in lines))


def audit(seed: int, work: Path, check: Checks, traced: bool) -> Pass:
    csv_path = work / "ratio.csv"
    argvs = {
        "ratio": [*RATIO_ARGS, "--csv", str(csv_path)],
        "verify": [*VERIFY_ARGS, "--seed", str(seed)],
    }
    traces = {name: work / f"{name}.trace.json" if traced else None for name in argvs}
    commands = run_commands(argvs, work, traces)
    ratio, verify = commands["ratio"], commands["verify"]
    rows = []
    if csv_path.exists():
        with open(csv_path, newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        csv_path.unlink()
    check_audit(check, ratio, rows, verify)
    summary = None
    if traced:
        parts = [_load(traces["ratio"]), _load(traces["verify"])]
        check.counts("audit ratio", parts[0], {
            "codec.read_syms": RATIO_FINAL_ROW["prefix_len"],
            "codec.written_syms": RATIO_FINAL_ROW["out_len"],
            "codec.pair_markers": _column_sum(rows, "d"),
            "codec.clustered_pops": _column_sum(rows, "N"),
        })
        check.counts("audit verify", parts[1], {"engine.run": GRID_SYMBOLS})
        summary = merge(parts)
    return Pass(
        ratio.wall_s + verify.wall_s,
        _adjusted(commands),
        RATIO_FINAL_ROW["prefix_len"] + GRID_SYMBOLS,
        max(ratio.rss_mb, verify.rss_mb),
        commands,
        (rows, verify.stdout),
        summary,
    )


def _adjusted(commands: dict) -> float:
    return sum(c.wall_s * c.scale for c in commands.values())


def _column_sum(rows: list[dict], column: str) -> int | None:
    try:
        return sum(int(row[column]) for row in rows)
    except (KeyError, TypeError, ValueError):
        return None


def _pdt1_count(path: Path) -> int | None:
    """Symbol count from a PDT1 header, or None when the file is not one."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(PDT1_HEADER.size)
    except FileNotFoundError:
        return None
    if len(header) < PDT1_HEADER.size:
        return None
    magic, _, _, _, count = PDT1_HEADER.unpack(header)
    if magic != b"PDT1" or path.stat().st_size != PDT1_HEADER.size + 2 * count:
        return None
    return count


def check_roundtrip(check: Checks, commands: dict, plain: Path, coded: Path, back: Path) -> None:
    for name, command in commands.items():
        check(f"file-roundtrip: {name} exit 0", command.status == 0)
    check(f"file-roundtrip: plain file holds {PLAIN_SYMBOLS} symbols",
          _pdt1_count(plain) == PLAIN_SYMBOLS)
    check(f"file-roundtrip: coded file holds {CODED_SYMBOLS} symbols",
          _pdt1_count(coded) == CODED_SYMBOLS)
    check("file-roundtrip: round trip is byte-identical",
          plain.exists() and back.exists() and filecmp.cmp(plain, back, shallow=False))


def _digest(path: Path) -> str | None:
    if not path.exists():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def file_roundtrip(seed: int, work: Path, check: Checks, traced: bool) -> Pass:
    plain, coded, back = work / "plain.pdt", work / "coded.cpdt", work / "back.pdt"
    argvs = {
        "gen": [*GEN_ARGS, "--seed", str(seed), "--out", str(plain)],
        "compress": ["compress", "--in", str(plain), "--out", str(coded)],
        "decompress": ["decompress", "--in", str(coded), "--out", str(back)],
    }
    traces = {name: work / f"{name}.trace.json" if traced else None for name in argvs}
    commands = run_commands(argvs, work, traces)
    check_roundtrip(check, commands, plain, coded, back)
    outputs = (_digest(plain), _digest(coded))
    for path in (plain, coded, back):
        path.unlink(missing_ok=True)
    summary = None
    if traced:
        summary = merge(_load(path) for path in traces.values())
        check.counts("file-roundtrip", summary, {
            "seqgen.iter_mirrored_segments": PLAIN_SYMBOLS,
            "codec.read_syms": PLAIN_SYMBOLS,
            "codec.written_syms": CODED_SYMBOLS,
            "codec.Decompressor.feed": PLAIN_SYMBOLS,
        })
    return Pass(
        sum(c.wall_s for c in commands.values()),
        _adjusted(commands),
        PLAIN_SYMBOLS,
        max(c.rss_mb for c in commands.values()),
        commands,
        outputs,
        summary,
    )


def _load(path: Path) -> dict:
    """A child's span summary; an empty one when the child wrote none."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"spans": {}, "counts": {}, "root_ns": 0, "self_sum_ns": 0}


WORKLOADS = {"rho-sweep": rho_sweep, "audit": audit, "file-roundtrip": file_roundtrip}


# calib_loop() on the uncontended host the bounds were set on (2-core Intel
# Xeon VM, Python 3.11): end-to-end times are scaled to this speed.
CALIB_REF_S = 0.040


def calib_loop() -> float:
    """Time of one fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i & 7
    return time.perf_counter() - start


def calibrate(reps: int = 5) -> float:
    """Median of a few calibration loops: the host's speed in this run."""
    return statistics.median(calib_loop() for _ in range(reps))


def host_scales(loops: list[float]) -> list[float]:
    """Scales to the reference host speed of the samples timed between
    consecutive calibration loops: ``CALIB_REF_S`` over the mean of the two."""
    return [2 * CALIB_REF_S / (a + b) for a, b in zip(loops, loops[1:])]


def host_adjusted(run, *args):
    """``run(*args)`` between two calibration loops: its result and scale."""
    loops = [calib_loop()]
    result = run(*args)
    loops.append(calib_loop())
    return result, host_scales(loops)[0]


SETUP_SAMPLES = 11


def setup_time() -> float:
    """One fresh interpreter importing pdtcomp: spawn to import done.

    The child reports when its import finished on the monotonic clock, which
    Linux shares between processes, so interpreter teardown is not counted.
    """
    cmd = [sys.executable, "-c", "import time, pdtcomp; print(time.monotonic())"]
    start = time.monotonic()
    child = subprocess.run(cmd, env=_child_env(), cwd=ROOT, check=True, timeout=60,
                           capture_output=True, text=True)
    return float(child.stdout) - start


def end_to_end_metrics(passes: list[Pass], setup: list[tuple[float, float]]) -> dict:
    """From the passes and the (setup time, scale) samples; see host_adjusted."""
    wall = statistics.median(p.adjusted_s for p in passes)
    values = {
        "wall_s": wall,
        "msym_per_s": passes[0].symbols / wall / 1e6,
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "setup_s": statistics.median(t * scale for t, scale in setup),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(base: Pass, traced: Pass, calib_s: float) -> dict:
    spans, counts = traced.trace["spans"], traced.trace["counts"]
    values = {"host.calib_s": calib_s, "trace.overhead_s": traced.wall_s - base.wall_s}
    for name in ROUNDTRIP_COMMANDS:
        command = base.commands.get(name)
        values[f"{name}_s"] = command.wall_s if command else 0.0
        values[f"{name}_rss_mb"] = command.rss_mb if command else 0.0

    def busy(name):
        return spans.get(name, (0, 0, 0))[1] / 1e9

    def rate(name, unit):
        return counts.get(name, 0) / busy(name) / unit if busy(name) else 0.0

    for name in SYMBOL_SPANS:
        values[f"{name}.busy_s"] = busy(name)
        values[f"{name}.msym_per_s"] = rate(name, 1e6)
    for name in BUSY_SPANS:
        values[f"{name}.busy_s"] = busy(name)
    for name in BYTE_SPANS:
        values[f"{name}.busy_s"] = busy(name)
        values[f"{name}.mb_per_s"] = rate(name, 1e6)
    for name in SELF_SPANS:
        values[f"{name}.self_s"] = spans.get(name, (0, 0, 0))[2] / 1e9
    values["seqgen.symbols"] = counts.get("seqgen.iter_mirrored_segments", 0)
    values["engine.run.steps"] = counts.get("engine.run", 0)
    for name in CODEC_COUNTS:
        values[name] = counts.get(name, 0)
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def _commit() -> str | None:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pdtcomp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _command_table(passes: list[Pass]) -> dict:
    """Per command: median raw wall time and largest peak RSS over the passes."""
    table = {}
    for name in passes[0].commands:
        runs = [p.commands[name] for p in passes]
        table[name] = {
            "wall_s": statistics.median(c.wall_s for c in runs),
            "rss_mb": max(c.rss_mb for c in runs),
        }
    return table


def measure(args, work: Path) -> tuple[dict, dict]:
    check = Checks()
    calib_s = calibrate()
    workload = WORKLOADS[args.workload]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "host.calib_s": calib_s,
    }
    if args.trace:
        base = workload(args.seed, work, check, traced=False)
        traced = workload(args.seed, work, check, traced=True)
        check("trace: outputs equal the untraced pass", traced.outputs == base.outputs)
        check("trace: self times add up to the root spans",
              traced.trace["self_sum_ns"] == traced.trace["root_ns"])
        metrics = layer_metrics(base, traced, calib_s)
        passes = [base, traced]
        report["spans"] = traced.trace["spans"]
        report["counts"] = traced.trace["counts"]
    else:
        setup_time()  # warm-up: a fresh checkout compiles bytecode here
        passes, setup = [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(workload(args.seed, work, check, traced=False))
            setup.append(host_adjusted(setup_time))
        while len(setup) < SETUP_SAMPLES:
            setup.append(host_adjusted(setup_time))
        metrics = end_to_end_metrics(passes, setup)
        report["pass_adjusted_s"] = [p.adjusted_s for p in passes]
        report["setup_samples_s"] = [t for t, _ in setup]
        report["setup_scale"] = [scale for _, scale in setup]
    report["pass_wall_s"] = [p.wall_s for p in passes]
    report["commands"] = _command_table(passes)
    report["fail_ratio"] = len(check.failed) / check.attempted
    report["failed_checks"] = check.failed
    result = {
        "correct": not check.failed,
        "attempted": check.attempted,
        "failed": len(check.failed),
        "metrics": metrics,
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pdtcomp" / "__init__.py").is_file():
        print(f"error: no pdtcomp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    try:
        report, result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
