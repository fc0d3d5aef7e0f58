"""The three workloads: what one round of operations is, and how outputs are checked.

A workload object gets the imported `knnmi` package and its set-up inputs.
`round()` lists the operations of one round as (kind, callable); each
callable returns (output, records produced). `collect` runs after each
successful operation, outside its timing, and keeps what `finish` checks.
`finish` checks every operation after the measured phase and returns the
problems that belong to the run as a whole.
"""

import collections
import csv
import functools
import json
import math
import time

import numpy as np

import inputs
import reference
from inputs import BACKENDS, K, call_cli

ROW_SAMPLE = 16  # query rows checked against the direct per-row computation
REPORT_TOL = 1e-9  # relative tolerance of entropies and MI against the references
LN_V_TOL = 1e-10  # ln V at D = 2: proposed against mpmath, baseline against proposed
MI_CLOSED_FORM_TOL = 0.06  # nats; about 5 standard errors of KSG at N = 10000, k = 5
NMI_SCALE_TOL = 1e-12
ESTIMATE_FIELDS = ("mi_ksg", "h_x", "h_y", "h_xy", "mi_from_entropies", "nmi")


class Op:
    """One timed operation and what became of it."""

    __slots__ = ("kind", "seconds", "records", "output", "error", "problems")

    def __init__(self, kind, seconds, records, output, error):
        self.kind, self.seconds, self.records = kind, seconds, records
        self.output, self.error, self.problems = output, error, []

    @property
    def failed(self):
        return self.error is not None or bool(self.problems)


def measure(workload, seconds, after_round=None):
    """Whole rounds of operations until their summed time reaches `seconds`.

    `after_round(rounds done)` runs between rounds, outside the timing.
    """
    rounds, busy = [], 0.0
    while busy < seconds or not rounds:
        ops = []
        for kind, fn in workload.round():
            start = time.perf_counter()
            try:
                output, records = fn()
                error = None
            except Exception as exc:  # an operation that raises is counted as failed
                output, records, error = None, 0, f"{type(exc).__name__}: {exc}"
            op = Op(kind, time.perf_counter() - start, records, None, error)
            if error is None:
                op.output = workload.collect(kind, output)
            ops.append(op)
        busy += sum(op.seconds for op in ops)
        rounds.append(ops)
        if after_round is not None:
            after_round(len(rounds))
    return rounds


class Workload:
    per_record_latency = False  # estimate_s is per operation unless set

    def __init__(self, knnmi, seed, inputs_, workdir):
        self.knnmi, self.seed, self.inputs, self.workdir = knnmi, seed, inputs_, workdir
        self.tracer = inputs.NullTracer()

    def collect(self, kind, output):
        return output

    def _cli(self, argv):
        code, out, err = call_cli(self.knnmi.cli, argv, self.tracer)
        if code != 0:
            raise RuntimeError(f"knnmi {argv[0]} exited {code}: {err.strip()}")
        return out


def _report_dict(report):
    return {name: getattr(report, name) for name in ESTIMATE_FIELDS}


class EstimateD1(Workload):
    """Library path: scan once, assemble with every backend, on N = 10000 at d = 1."""

    def round(self):
        return [(f"rho={rho}", functools.partial(self._estimate, data)) for rho, data in self.inputs]

    def _estimate(self, data):
        knnmi = self.knnmi
        radii = knnmi.compute_knn_radii(data, K)
        reports = [knnmi.estimate_from_radii(radii, 1, 1, knnmi.Backend(b)) for b in BACKENDS]
        return (radii, reports), len(reports)

    def finish(self, ops):
        knnmi = self.knnmi
        data_of = {f"rho={rho}": (rho, data) for rho, data in self.inputs}
        psi = reference.Digamma()
        first = {}  # rho -> (radii, expected reports by backend)
        mi_by_rho = collections.defaultdict(list)
        for index, op in enumerate(ops):
            if op.error:
                continue
            rho, data = data_of[op.kind]
            radii, reports = op.output
            rows = reference.sample_rows(data.n, ROW_SAMPLE, [self.seed, index])
            op.problems += reference.row_mismatches(
                data.x, data.y, K, radii.epsilon, radii.n_x, radii.n_y, rows)
            if rho not in first:
                first[rho] = (radii, {
                    b: reference.expected_report(radii.epsilon, radii.n_x, radii.n_y, K, 1, 1, b, psi)
                    for b in BACKENDS})
            elif not all(np.array_equal(getattr(radii, f), getattr(first[rho][0], f))
                         for f in ("epsilon", "n_x", "n_y")):
                op.problems.append("radii differ from the first scan of the same data")
            for backend, report in zip(BACKENDS, reports):
                if knnmi.Backend(backend) != report.backend:
                    op.problems.append(f"report backend {report.backend!r}, asked {backend}")
                op.problems += [f"{backend}: {p}" for p in reference.report_mismatches(
                    _report_dict(report), first[rho][1][backend], REPORT_TOL)]
            mi_by_rho[rho].extend(r.mi_ksg for r in reports)

        problems = []
        for rho, data in self.inputs:
            made = knnmi.generate_gaussian(knnmi.GaussianSpec(
                d=1, rho=rho, n=inputs.D1_N, seed=inputs.d1_seed(self.seed, rho)))
            if not (np.array_equal(made.x, data.x) and np.array_equal(made.y, data.y)):
                problems.append(f"rho={rho}: the gen CSV does not load back to the generated samples")
        for rho, (radii, _) in first.items():
            want = reference.ln_v(radii.epsilon, 2, "proposed")
            got = {b: knnmi.normalize(radii.epsilon, 2, knnmi.Backend(b)).ln_v for b in BACKENDS}
            if not abs(got["proposed"] - want) <= LN_V_TOL:
                problems.append(f"rho={rho}: proposed ln V {got['proposed']!r}, mpmath {want!r}")
            if not abs(got["baseline"] - got["proposed"]) <= LN_V_TOL:
                problems.append(f"rho={rho}: baseline ln V {got['baseline']!r} "
                                f"!= proposed {got['proposed']!r}")
        for rho, values in mi_by_rho.items():
            mean, truth = math.fsum(values) / len(values), reference.gaussian_mi(1, rho)
            if not abs(mean - truth) <= MI_CLOSED_FORM_TOL:
                problems.append(f"rho={rho}: mean mi_ksg {mean:.4f}, closed form {truth:.4f}")
        return problems


class CliEstimateD512(Workload):
    """`knnmi estimate` on the gen CSV at d = 512 (D = 1024), N = 1000, rotating backends."""

    def round(self):
        return [(b, functools.partial(self._estimate, b)) for b in BACKENDS]

    def _estimate(self, backend):
        out = self._cli(["estimate", "--data", self.inputs, "--backend", backend])
        return json.loads(out.strip().splitlines()[-1]), 1

    def finish(self, ops):
        knnmi = self.knnmi
        d, n = inputs.D512_D, inputs.D512_N
        problems = []
        values = np.loadtxt(self.inputs, delimiter=",", skiprows=1, ndmin=2)
        x, y = values[:, :d], values[:, d:]
        made = knnmi.generate_gaussian(knnmi.GaussianSpec(
            d=d, rho=inputs.D512_RHO, n=n, seed=inputs.d512_seed(self.seed)))
        if not (np.array_equal(made.x, x) and np.array_equal(made.y, y)):
            problems.append("the gen CSV does not read back to the generated samples")
        radii = knnmi.compute_knn_radii(knnmi.Dataset(x=x, y=y), K)
        problems += reference.row_mismatches(
            x, y, K, radii.epsilon, radii.n_x, radii.n_y,
            reference.sample_rows(n, ROW_SAMPLE, [self.seed, 0]))
        if reference.baseline_overflows(radii.epsilon, 2 * d) is not True:
            problems.append("the baseline ln V was expected to overflow at D = 1024")
        psi = reference.Digamma()
        expected = {b: reference.expected_report(radii.epsilon, radii.n_x, radii.n_y, K, d, d, b, psi)
                    for b in ("proposed", "dominant")}

        seen = {}
        for op in ops:
            if op.error:
                continue
            payload, backend = op.output, op.kind
            if payload.get("backend") != backend or payload.get("n_samples") != n or payload.get("k") != K:
                op.problems.append(f"payload header {payload!r}")
            if backend == "baseline":
                if payload.get("status") != "overflow":
                    op.problems.append(f"baseline status {payload.get('status')!r}, expected overflow")
                continue
            op.problems += reference.report_mismatches(payload, expected[backend], REPORT_TOL)
            status = "ok" if payload.get("nmi") is not None else "undefined_nmi"
            if payload.get("status") != status:
                op.problems.append(f"status {payload.get('status')!r}, expected {status}")
            if seen.setdefault(backend, payload) != payload:
                op.problems.append("output differs from the first run of the same backend")
            if payload.get("mi_ksg") != seen[next(iter(seen))].get("mi_ksg"):
                op.problems.append("mi_ksg differs between backends")
        if "proposed" in seen and "dominant" in seen:
            gap = (seen["proposed"].get("h_xy") or math.nan) - (seen["dominant"].get("h_xy") or math.nan)
            if not 0.0 <= gap <= math.log(n):
                problems.append(f"h_xy(proposed) - h_xy(dominant) = {gap!r} outside [0, ln N]")
        return problems


def _records_key(row):
    return (row["family"], row["d"], row["param"], row["repetition"])


def _format_cell(value):
    """A record field as the records CSV spells it."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(getattr(value, "value", value))


class CliSweep(Workload):
    """`knnmi sweep` then `knnmi summarize`, Gaussian and Student-t, at N = 200."""

    per_record_latency = True

    def __init__(self, *args):
        super().__init__(*args)
        self.configs = inputs.sweep_configs(self.seed)
        self.latest_records = {}

    def _paths(self, family):
        base = f"{self.workdir}/{family}"
        return base + "-records.csv", base + "-summary.csv"

    def round(self):
        ops = []
        for family in self.configs:
            ops.append((f"sweep {family}", functools.partial(self._sweep, family)))
            ops.append((f"summarize {family}", functools.partial(self._summarize, family)))
        return ops

    def _sweep(self, family):
        out = self._cli(["sweep", "--config", self.inputs[family], "--out", self._paths(family)[0]])
        meta = json.loads(out.strip().splitlines()[-1])
        return meta, int(meta["records"])

    def _summarize(self, family):
        records, summary = self._paths(family)
        self._cli(["summarize", "--records", records, "--out", summary])
        return None, 0

    def collect(self, kind, output):
        verb, family = kind.split()
        records, summary = self._paths(family)
        if verb == "sweep":
            with open(records, newline="") as fh:
                self.latest_records[family] = list(csv.DictReader(fh))
            return output, self.latest_records[family]
        with open(summary, newline="") as fh:
            return list(csv.DictReader(fh)), self.latest_records[family]

    def finish(self, ops):
        first_rows = {}
        for op in ops:
            if op.error:
                continue
            verb, family = op.kind.split()
            if verb == "sweep":
                meta, rows = op.output
                op.problems += self._check_records(family, meta, rows)
                stripped = [{k: v for k, v in r.items() if k != "wall_time_ms"} for r in rows]
                if first_rows.setdefault(family, stripped) != stripped:
                    op.problems.append("records (minus wall_time_ms) differ from the first sweep")
            else:
                op.problems += self._check_summary(*op.output)
        problems = []
        for family in self.configs:
            if family in self.latest_records:
                problems += self._check_cell(family, self.latest_records[family])
        return problems

    def _grid(self, family):
        config = self.configs[family]
        return config["rho_grid"] if family == "gaussian" else config["nu_grid"]

    def _check_records(self, family, meta, rows):
        config = self.configs[family]
        bad = []
        want = len(config["dims"]) * len(self._grid(family)) * config["repetitions"] * len(BACKENDS)
        if len(rows) != want or meta.get("records") != want:
            bad.append(f"{len(rows)} rows, {meta.get('records')} reported, grid product {want}")
        by_rep = collections.defaultdict(list)
        for row in rows:
            by_rep[_records_key(row)].append(row)
            status = row["status"]
            present = [row[f] != "" for f in ESTIMATE_FIELDS]
            if status == "overflow":
                if row["backend"] != "baseline":
                    bad.append(f"overflow on {row['backend']} at {_records_key(row)}")
                if any(present):
                    bad.append(f"overflow row with estimates at {_records_key(row)}")
            elif status in ("ok", "undefined_nmi"):
                if not all(present[:-1]) or present[-1] != (status == "ok"):
                    bad.append(f"{status} row with fields {present} at {_records_key(row)}")
                    continue
                mi, mi_h = float(row["mi_ksg"]), float(row["mi_from_entropies"])
                if not abs(mi - mi_h) <= REPORT_TOL * max(1.0, abs(mi)):
                    bad.append(f"mi_from_entropies {mi_h!r} != mi_ksg {mi!r} at {_records_key(row)}")
            elif status != "duplicate_points":
                bad.append(f"unknown status {status!r}")
        for key, cell in by_rep.items():
            if len({r["dataset_checksum"] for r in cell}) != 1:
                bad.append(f"backends of {key} do not share one dataset_checksum")
            if sorted(r["backend"] for r in cell) != sorted(BACKENDS):
                bad.append(f"backends of {key}: {[r['backend'] for r in cell]}")
            if len({r["mi_ksg"] for r in cell if r["mi_ksg"] != ""}) > 1:
                bad.append(f"mi_ksg differs between backends at {key}")
        return bad

    def _check_summary(self, summary, rows):
        groups = collections.defaultdict(list)
        for row in rows:
            groups[(row["family"], row["d"], row["param"], row["backend"])].append(row)
        bad = []
        if len(summary) != len(groups):
            bad.append(f"{len(summary)} summary rows for {len(groups)} cells")
        for srow in summary:
            cell = groups.get((srow["family"], srow["d"], srow["param"], srow["backend"]), [])
            ok = [float(r["nmi"]) for r in cell if r["status"] == "ok"]
            if int(srow["n_ok"]) != len(ok):
                bad.append(f"n_ok {srow['n_ok']} != {len(ok)} for {srow['d']}/{srow['param']}")
            for name, status in (("overflow_count", "overflow"), ("undefined_count", "undefined_nmi"),
                                 ("duplicate_count", "duplicate_points")):
                if int(srow[name]) != sum(r["status"] == status for r in cell):
                    bad.append(f"{name} wrong for {srow['d']}/{srow['param']}/{srow['backend']}")
            mean = math.fsum(ok) / len(ok) if ok else None
            got = float(srow["mean_nmi"]) if srow["mean_nmi"] else None
            if (mean is None) != (got is None) or (
                    mean is not None and not abs(got - mean) <= 1e-12 * max(1.0, abs(mean))):
                bad.append(f"mean_nmi {got!r}, own aggregation {mean!r} "
                           f"for {srow['d']}/{srow['param']}/{srow['backend']}")
        return bad

    def _check_cell(self, family, rows):
        """Rerun one cell alone from its derived seed and compare with the sweep's rows."""
        knnmi = self.knnmi
        config = self.configs[family]
        rng = np.random.default_rng([self.seed, len(family)])
        d = int(rng.choice(config["dims"]))
        param = float(rng.choice(self._grid(family)))
        rep = int(rng.integers(config["repetitions"]))
        where = f"{family} cell d={d} param={param!r} rep={rep}"
        cell = [r for r in rows if (r["d"], r["param"], r["repetition"]) == (str(d), repr(param), str(rep))]
        bad = []

        seed = reference.cell_seed(config["base_seed"], family, d, param, rep)
        if knnmi.derive_seed(config["base_seed"], family, d, param, rep) != seed:
            bad.append(f"{where}: derive_seed differs from the sha256 rule")
        if family == "gaussian":
            data = knnmi.generate_gaussian(knnmi.GaussianSpec(
                d=d, rho=0.99 if param == 1.0 else param, n=config["n"], seed=seed))
        else:
            data = knnmi.generate_student_t(knnmi.StudentTSpec(d=d, nu=param, n=config["n"], seed=seed))
        if {r["dataset_checksum"] for r in cell} != {reference.checksum(data.x, data.y)}:
            bad.append(f"{where}: dataset_checksum is not the sha256 of the regenerated data")

        one = dict(config, dims=[d], repetitions=rep + 1, **{
            "rho_grid" if family == "gaussian" else "nu_grid": [param]})
        rerun = [r for r in knnmi.run_sweep(knnmi.ExperimentConfig(**one)) if r.repetition == rep]
        strip = [{k: v for k, v in r.items() if k != "wall_time_ms"} for r in cell]
        again = [{k: _format_cell(getattr(r, k)) for k in strip[0]} for r in rerun] if strip else []
        if not strip or again != strip:
            bad.append(f"{where}: rerun alone does not reproduce the sweep's records")

        radii = knnmi.compute_knn_radii(data, config["k"])
        bad += [f"{where}: {p}" for p in reference.row_mismatches(
            data.x, data.y, config["k"], radii.epsilon, radii.n_x, radii.n_y,
            reference.sample_rows(data.n, ROW_SAMPLE, [self.seed, d]))]
        scaled = knnmi.Dataset(x=2.0 * data.x, y=2.0 * data.y)
        nmi = [knnmi.estimate(ds, k=config["k"], backend=knnmi.Backend("proposed")).nmi
               for ds in (data, scaled)]
        if (nmi[0] is None) != (nmi[1] is None) or (
                nmi[0] is not None and not abs(nmi[0] - nmi[1]) <= NMI_SCALE_TOL):
            bad.append(f"{where}: NMI {nmi[0]!r} becomes {nmi[1]!r} when the data are doubled")
        return bad


WORKLOAD_CLASSES = {
    inputs.ESTIMATE_D1: EstimateD1,
    inputs.CLI_ESTIMATE_D512: CliEstimateD512,
    inputs.CLI_SWEEP: CliSweep,
}
