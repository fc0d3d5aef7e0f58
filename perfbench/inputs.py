"""Workload inputs, made from the benchmark seed through knnmi's own API.

Only the standard library is imported here, so that a set-up timed in a
fresh process counts `import knnmi` (numpy included) and nothing of the
benchmark's own.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os

ESTIMATE_D1 = "estimate-d1-n10k"
CLI_ESTIMATE_D512 = "cli-estimate-d512-n1k"
CLI_SWEEP = "cli-sweep-n200"
WORKLOADS = (ESTIMATE_D1, CLI_ESTIMATE_D512, CLI_SWEEP)

K = 5
BACKENDS = ("baseline", "proposed", "dominant")

D1_N = 10000
D1_RHOS = (0.0, 0.9)

D512_D = 512
D512_N = 1000
D512_RHO = 0.5

SWEEP_N = 200
SWEEP_REPETITIONS = 3
SWEEP_GAUSSIAN_DIMS = [1, 2, 4, 8, 16, 32, 64]
SWEEP_STUDENT_T_DIMS = [1, 2, 4, 8, 16, 32]
# the program's default grids, spelled out so that the workload stays fixed;
# rho = 1.0 is generated from the 0.99 substitute
SWEEP_RHO_GRID = [round(0.1 * i, 1) for i in range(10)] + [1.0]
SWEEP_NU_GRID = [0.125, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0]


def derive_seed(seed, *parts) -> int:
    """63-bit input seed from the benchmark seed and what the input is for."""
    text = "|".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "big") >> 1


class NullTracer:
    """Stands in for tracing.Tracer when a phase is not traced."""

    def span(self, name):
        return contextlib.nullcontext()


def call_cli(knnmi_cli, argv, tracer):
    """Run `knnmi <argv>` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tracer.span("cli.main"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = knnmi_cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def gen_argv(d, rho, n, seed, path):
    return ["gen", "--family", "gaussian", "--d", str(d), "--rho", str(rho), "--n", str(n),
            "--seed", str(seed), "--out", path]


def d1_seed(seed, rho):
    return derive_seed(seed, ESTIMATE_D1, rho)


def d512_seed(seed):
    return derive_seed(seed, CLI_ESTIMATE_D512, "data")


def _gen(cli, argv, tracer):
    code, _, err = call_cli(cli, argv, tracer)
    if code != 0:
        raise RuntimeError(f"knnmi gen exited {code}: {err.strip()}")


def sweep_configs(seed):
    """The two `knnmi sweep` configs, Gaussian first; about 1070 records in all."""
    common = {
        "n": SWEEP_N,
        "k": K,
        "repetitions": SWEEP_REPETITIONS,
        "backends": list(BACKENDS),
    }
    return {
        "gaussian": dict(
            family="gaussian", base_seed=derive_seed(seed, CLI_SWEEP, "gaussian"),
            dims=SWEEP_GAUSSIAN_DIMS, rho_grid=SWEEP_RHO_GRID, **common,
        ),
        "student_t": dict(
            family="student_t", base_seed=derive_seed(seed, CLI_SWEEP, "student_t"),
            dims=SWEEP_STUDENT_T_DIMS, nu_grid=SWEEP_NU_GRID, **common,
        ),
    }


def setup(knnmi, workload, seed, workdir, tracer=NullTracer()):
    """Build the inputs of one workload; `knnmi` is the imported package.

    estimate-d1-n10k -> list of (rho, Dataset), written by `knnmi gen` and
    loaded with `dataset_from_csv`;
    cli-estimate-d512-n1k -> path of the CSV written by `knnmi gen`;
    cli-sweep-n200 -> {family: config path}, written as JSON.
    """
    cli = importlib.import_module("knnmi.cli")
    if workload == ESTIMATE_D1:
        datasets = []
        for rho in D1_RHOS:
            path = os.path.join(workdir, f"d1-rho{rho}.csv")
            _gen(cli, gen_argv(1, rho, D1_N, d1_seed(seed, rho), path), tracer)
            datasets.append((rho, knnmi.dataset_from_csv(path)))
        return datasets
    if workload == CLI_ESTIMATE_D512:
        path = os.path.join(workdir, "d512.csv")
        _gen(cli, gen_argv(D512_D, D512_RHO, D512_N, d512_seed(seed), path), tracer)
        return path
    if workload == CLI_SWEEP:
        paths = {}
        for family, config in sweep_configs(seed).items():
            paths[family] = os.path.join(workdir, f"{family}.json")
            with open(paths[family], "w", encoding="ascii") as fh:
                json.dump(config, fh)
        return paths
    raise ValueError(f"unknown workload {workload!r}")
