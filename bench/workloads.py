"""The four benchmark workloads: seeded inputs, CLI calls and output checks.

Each workload draws its target sets from the seed and writes them as target
files; the program sees only those files, through the `grover-forge` command
line (`grover_forge.cli.main`). Every check here uses the benchmark's own
arithmetic and its own small simulator (`checksim`), never the code under
test.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checksim

MAX_DEVIATION = 1e-9      # |simulated - analytic| success probability
VARIANT_AGREEMENT = 1e-10  # final amplitudes of the three variants
LOWERING_MATCH = 1e-9     # lowered vs source state, up to global phase
CROSSOVER = (0.69, 0.73)  # first gamma with Gamma >= 1 at n = 1000

VARIANTS = ("conventional", "modified", "reduced")


@dataclass(frozen=True)
class TargetSpec:
    """One seeded target set: n qubits, `size` labels, file format.

    `hamming` fixes the total Hamming distance between the requested labels
    and their canonical partners (the gray-code chain length that sets the
    size of pi_sigma), so that the seed changes which labels are searched
    but not how much work the permutation costs; `pairs` fixes the number
    of label pairs the chain connects, which exact mode also pays for per
    pair. `ones` fixes, in the same
    way, the number of label prefixes that end in a 1 bit: the rotations
    of the preparation circuit U, to within the one stage that synthesis
    may merge. `every_stage` asks for a 1 at every bit position in some
    label, so that every stage of U has rotations: lowering turns each
    stage m into one multiplexor whose cost grows as 4^m, whether the stage
    holds one rotation or many.
    """

    n: int
    size: int
    fmt: str
    hamming: int | None = None
    pairs: int | None = None
    ones: int | None = None
    every_stage: bool = False

    @property
    def tag(self) -> str:
        return f"n{self.n}s{self.size}"


@dataclass(frozen=True)
class Op:
    """One CLI call. `group` names the detail timing it is summed into."""

    name: str
    argv: tuple[str, ...]
    group: str
    spec: TargetSpec
    files: dict = field(default_factory=dict)


def _chain(labels: list[int], size: int) -> tuple[int, int]:
    """The pairs that pi_sigma connects, requested labels outside
    {0..size-1} against canonical labels outside the set, both in ascending
    order: (number of pairs, total Hamming distance)."""
    chosen = set(labels)
    canon = set(range(size))
    pairs = list(zip(sorted(chosen - canon), sorted(canon - chosen)))
    return len(pairs), sum(bin(b ^ c).count("1") for b, c in pairs)


def _one_prefixes(labels: list[int], n: int) -> int:
    """Distinct MSB-first prefixes of the labels whose last bit is 1."""
    return len({(m, x >> (n - m)) for x in labels for m in range(1, n + 1)
                if (x >> (n - m)) & 1})


def _ones_at(labels: list[int]) -> set[int]:
    """Bit positions that are 1 in at least one label."""
    return {b for x in labels for b in range(x.bit_length()) if x >> b & 1}


def draw_labels(rng: random.Random, spec: TargetSpec) -> list[int]:
    """Sorted labels, drawn again until they have the shape `spec` fixes."""
    while True:
        labels: set[int] = set()
        while len(labels) < spec.size:
            labels.add(rng.getrandbits(spec.n))
        ordered = sorted(labels)
        pairs, hamming = _chain(ordered, spec.size)
        if (spec.hamming in (None, hamming) and spec.pairs in (None, pairs)
                and spec.ones in (None, _one_prefixes(ordered, spec.n))
                and (not spec.every_stage
                     or len(_ones_at(ordered)) == spec.n)):
            return ordered


def write_targets(path: Path, spec: TargetSpec, labels: list[int]) -> None:
    if spec.fmt == "json":
        text = json.dumps({"n": spec.n, "targets": labels})
    else:
        text = "\n".join([f"n={spec.n}"]
                         + [format(x, f"0{spec.n}b") for x in labels])
    path.write_text(text + "\n", encoding="utf-8")


class Workload:
    """A named list of target sets, the CLI calls made on them, and the
    checks applied to one pass of those calls."""

    name = ""
    why = ""
    specs: tuple[TargetSpec, ...] = ()

    def generate(self, seed: int, workdir: Path) -> list[Op]:
        rng = random.Random(f"grover-forge/{self.name}/{seed}")
        ops: list[Op] = []
        for spec in self.specs:
            labels = draw_labels(rng, spec)
            suffix = ".json" if spec.fmt == "json" else ".txt"
            path = workdir / f"{spec.tag}{suffix}"
            write_targets(path, spec, labels)
            ops.extend(self.ops_for(spec, path, workdir))
        return ops

    def ops_for(self, spec: TargetSpec, path: Path, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, results: list[dict], seed: int) -> tuple[dict, dict]:
        """Check one pass. Returns ({failed op name: reason}, {count name:
        total}); `results` holds op, rc and stdout for each call."""
        raise NotImplementedError


def _expected_k_star(n: int, size: int) -> int:
    phi = math.asin(math.sqrt(size / (1 << n)))
    return math.floor(math.pi / (4 * phi) + 1e-9)


class Search(Workload):
    """`simulate --k auto --json --amplitudes` for each variant on one set."""

    def ops_for(self, spec, path, workdir):
        return [Op(f"simulate:{v}",
                   ("simulate", "--targets", str(path), "--variant", v,
                    "--k", "auto", "--json", "--amplitudes"),
                   f"simulate_{v}_s", spec)
                for v in VARIANTS]

    def check(self, results, seed):
        failures, finals = {}, {}
        for res in results:
            op = res["op"]
            if res["rc"] != 0:
                failures[op.name] = f"exit code {res['rc']}"
                continue
            report = json.loads(res["stdout"])
            k_star = _expected_k_star(op.spec.n, op.spec.size)
            amps = np.array(report["amplitudes"], dtype=float)
            if report["k"] != k_star:
                failures[op.name] = f"k={report['k']}, expected {k_star}"
            elif not report["max_deviation"] <= MAX_DEVIATION:
                failures[op.name] = (
                    f"max_deviation {report['max_deviation']:.3e}")
            elif amps.shape != (1 << op.spec.n, 2):
                failures[op.name] = f"amplitude array shape {amps.shape}"
            else:
                finals[op.name] = amps[:, 0] + 1j * amps[:, 1]
        reference = finals.get("simulate:conventional")
        for name, amps in finals.items():
            if reference is None:
                failures[name] = "no conventional run to compare against"
            elif (err := np.abs(amps - reference).max()) > VARIANT_AGREEMENT:
                failures[name] = f"differs from conventional by {err:.3e}"
        return failures, {}


class SearchSparse(Search):
    name = "search-sparse"
    why = ("n=12, |S|=3, k*=29: each iteration is the 2n Hadamards of the "
           "diffusion, so the Single kernel does almost all the work")
    specs = (TargetSpec(12, 3, "text", hamming=18, ones=15),)


class SearchDense(Search):
    name = "search-dense"
    why = ("n=11, |S|=200 (l/n=0.73, near the crossover density): hundreds "
           "of Controlled gates per oracle and a pi_sigma wrap at every k")
    specs = (TargetSpec(11, 200, "json", hamming=1000),)


_SYNTH_LINE = re.compile(r"^([\w-]+): (\d+) gates, counted cost (\d+)")


class Compile(Workload):
    """`synth --qasm` for u, oracle and u-tilde on four sets, plus exact
    pi-sigma on the one drawn with a fixed chain length."""

    name = "compile"
    why = ("synth --qasm on four sets up to n=7: lowering and QASM emission "
           "do nearly all the work and the simulator is never touched")
    specs = (TargetSpec(5, 3, "json", hamming=7, pairs=3, every_stage=True),
             TargetSpec(6, 20, "text", every_stage=True),
             TargetSpec(7, 3, "json", every_stage=True),
             TargetSpec(7, 5, "text", every_stage=True))

    def ops_for(self, spec, path, workdir):
        variants = ["u", "oracle", "u-tilde"]
        if spec.hamming is not None:
            variants.append("pi-sigma")
        ops = []
        for v in variants:
            stem = workdir / f"{spec.tag}.{v}"
            argv = ["synth", "--targets", str(path), "--variant", v,
                    "--out", f"{stem}.json", "--qasm", f"{stem}.qasm"]
            if v == "pi-sigma":
                argv += ["--mode", "exact"]
            ops.append(Op(f"synth:{v}:{spec.tag}", tuple(argv), "compile_s",
                          spec, {"circuit": f"{stem}.json",
                                 "qasm": f"{stem}.qasm"}))
        return ops

    def check(self, results, seed):
        failures = {}
        counts = {"lowered_cnots": 0, "lowered_1q": 0}
        rng = np.random.default_rng([seed, 7])
        for res in results:
            op = res["op"]
            if res["rc"] != 0:
                failures[op.name] = f"exit code {res['rc']}"
                continue
            line = _SYNTH_LINE.match(res["stdout"])
            source = checksim.load_circuit_json(op.files["circuit"])
            lowered = checksim.parse_qasm(
                Path(op.files["qasm"]).read_text(encoding="utf-8"))
            if line is None or int(line.group(2)) != len(source.gates):
                failures[op.name] = "gate count line missing or wrong"
                continue
            if isinstance(lowered, str):
                failures[op.name] = lowered
                continue
            if lowered.n != source.n:
                failures[op.name] = "QASM register size differs"
                continue
            state = checksim.random_state(rng, source.n)
            err = checksim.phase_aligned_error(source.run(state),
                                               lowered.run(state))
            if err > LOWERING_MATCH:
                failures[op.name] = f"lowered circuit differs by {err:.3e}"
                continue
            counts["lowered_cnots"] += lowered.cnots
            counts["lowered_1q"] += lowered.singles
        return failures, counts


def bound_U(n: int, s: int) -> int:
    return 1 + s * sum(m * m for m in range(1, n))


def bound_U_tilde(l: int) -> int:
    return 1 + sum(m * m * (1 << m) for m in range(1, l))


def bound_pi(n: int, s: int) -> int:
    return s * n * (n - 1) ** 2


SWEEP_N = (10, 100, 1000)
SWEEP_GAMMA = "gamma=0.05:0.95:0.01"
SWEEP_POINTS = 91


class ReportWide(Workload):
    """`compare --targets --json` at n = 64 .. 256, plus the crossover
    sweep up to n = 1000."""

    name = "report-wide"
    why = ("compare at n=64..256 and the gamma sweep to n=1000: synthesis "
           "and counting at wide n, with no lowering and no simulation")
    specs = (TargetSpec(64, 32, "json"),
             TargetSpec(128, 8, "text"),
             TargetSpec(256, 4, "json"))

    def generate(self, seed, workdir):
        ops = super().generate(seed, workdir)
        sweep_n = "n=" + ",".join(str(n) for n in SWEEP_N)
        ops.append(Op("compare:sweep", ("compare", "--sweep", sweep_n,
                                        SWEEP_GAMMA), "compare_s", None))
        return ops

    def ops_for(self, spec, path, workdir):
        return [Op(f"compare:{spec.tag}",
                   ("compare", "--targets", str(path), "--json"),
                   "compare_s", spec)]

    def check(self, results, seed):
        failures = {}
        for res in results:
            op = res["op"]
            if res["rc"] != 0:
                failures[op.name] = f"exit code {res['rc']}"
            elif op.spec is None:
                failures.update(self._check_sweep(op, res["stdout"]))
            else:
                failures.update(self._check_report(op, res["stdout"]))
        return failures, {}

    @staticmethod
    def _check_report(op, text):
        report = json.loads(text)
        n, s = op.spec.n, op.spec.size
        l = math.ceil(math.log2(s))
        counts = report["counts"]
        limits = {"U": bound_U(n, s), "U_tilde": bound_U_tilde(l),
                  "pi_sigma": bound_pi(n, s)}
        if (report["n"], report["s"], report["pi_mode"]) != (n, s, "paper"):
            return {op.name: "report is for another set or mode"}
        for key, limit in limits.items():
            if not 0 < counts[key] <= limit:
                return {op.name: f"{key} count {counts[key]} above {limit}"}
        return {}

    @staticmethod
    def _check_sweep(op, text):
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != len(SWEEP_N) * SWEEP_POINTS:
            return {op.name: f"{len(rows)} sweep rows"}
        crossing = min((float(r["gamma"]) for r in rows
                        if r["n"] == "1000" and float(r["Gamma"]) >= 1.0),
                       default=None)
        if crossing is None or not CROSSOVER[0] <= crossing <= CROSSOVER[1]:
            return {op.name: f"n=1000 crossover at {crossing}"}
        return {}


WORKLOADS = {w.name: w for w in (SearchSparse(), SearchDense(), Compile(),
                                 ReportWide())}
