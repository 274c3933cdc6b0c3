"""Workload command lists, generated from the benchmark seed.

A workload is the list of commands of one pass.  Every command goes
through the public CLI entry point ``mems4.cli.main``; the exact-search
pass also replays the certificates it wrote.  The seed permutes the
command order and picks the seed-dependent inputs; ``DEFAULT_SEED``
reproduces the inputs listed in README.md exactly, in the listed order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 0

# singular-ladder: the eigen layer dominates, mesh is the scaling axis.
# n = 8192 stays off the ladder until nu1 is sub-cubic (README.md).
LADDER_DIM = 17
LADDER_MESHES = (512, 1024, 2048, 4096)
LADDER_LAMBDAS = "50:1330:16"
LADDER_POINTS = 16

# regular-dims: bisection-heavy pull-in in the regular regime.
REGULAR_MESH = 512
REGULAR_DIMS = tuple(range(1, 9))
# Admissible inhomogeneous (dim, alpha, beta): beta <= 0 and
# alpha - beta/2 < 1.  Each converges at mesh 512 with a regular verdict
# and takes 5800..6600 back-solves, like a homogeneous pull-in, so the
# seed's pick moves the pass's work by about 1%.  The first two are the
# default pick.
INHOMOGENEOUS = (
    (3, "1/10", "0"),
    (5, "1/5", "-1/5"),
    (2, "1/10", "-1/10"),
    (6, "1/10", "0"),
    (4, "1/5", "0"),
    (6, "0", "-1/5"),
    (2, "1/5", "-1/5"),
)

# exact-search: only the exact engine runs.
SEARCH_DIM = 9
SEARCH_ALPHA_GRID = "4/6:15/6:12"
SEARCH_BETA_GRID = "1/6:2:12"
TOUCHDOWN_DIM = 17
TOUCHDOWN_M_GRID = "3/2:6:10"
# Voltage H_N/2 (1 - j/64), j < VOLTAGE_STEPS.  At or below H_N/2 the
# degree-cap fallback at m = 11/2 finds no violation, so its cost is the
# same for every j.
VOLTAGE_STEPS = 5
CERTIFY_RANGES = (
    ("m3-gap", "1..40"),
    ("m2-subsolution", "3..40"),
    ("m3-stability", "5..40"),
    ("thresholds", "1..64"),
)

WORKLOADS = ("singular-ladder", "regular-dims", "exact-search")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass.

    ``kind`` is the CLI subcommand family (pullin, branch, search,
    certify); ``params`` are the inputs the checker needs, taken from the
    benchmark rather than from the program's own echo of them; ``key``
    names the inputs in reference.json.
    """

    kind: str
    argv: tuple[str, ...]
    params: dict = field(compare=False, hash=False)

    @property
    def key(self) -> str:
        return self.kind + " " + " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))

    @property
    def replays(self) -> bool:
        """Whether the pass replays the certificates this command writes."""
        return self.kind == "certify" or (
            self.kind == "search" and self.params["family"] == "touchdown-m"
        )


def hardy_rellich(n: int) -> Fraction:
    """H_N = N^2 (N-4)^2 / 16, the optimal Hardy-Rellich constant."""
    return Fraction(n * n * (n - 4) ** 2, 16)


def search_voltage(n: int, j: int) -> Fraction:
    return hardy_rellich(n) / 2 * (1 - Fraction(j, 64))


def pullin(dim: int, mesh: int, alpha: str = "0", beta: str = "0") -> Command:
    argv = ["pullin", "--dim", str(dim), "--mesh", str(mesh)]
    if (alpha, beta) != ("0", "0"):
        # "--beta -1/5" would parse as a flag, so values are attached.
        argv += [f"--alpha={alpha}", f"--beta={beta}"]
    params = {"dim": dim, "mesh": mesh, "alpha": alpha, "beta": beta,
              "rel_width": 1e-6, "tol": 1e-10}
    return Command("pullin", tuple(argv), params)


def branch(dim: int, mesh: int, lambdas: str, points: int) -> Command:
    argv = ("branch", "--dim", str(dim), "--mesh", str(mesh), "--lambda", lambdas)
    params = {"dim": dim, "mesh": mesh, "lambdas": lambdas, "points": points, "tol": 1e-10}
    return Command("branch", argv, params)


def search(dim: int, family: str, grid: dict, voltage: Fraction) -> Command:
    argv = ["search-subsolution", "--dim", str(dim), "--family", family]
    for flag, spec in grid.items():
        argv += [f"--{flag}", spec]
    argv.append(f"--lambda={voltage}")
    params = dict(grid, dim=dim, family=family, voltage=str(voltage))
    return Command("search", tuple(argv), params)


def certify(claim: str, dims: str) -> Command:
    return Command("certify", ("certify", claim, "--n", dims), {"claim": claim, "n": dims})


def singular_ladder(seed: int, meshes=LADDER_MESHES, dim: int = LADDER_DIM) -> list[Command]:
    cmds = []
    for n in meshes:
        cmds.append(pullin(dim, n))
        cmds.append(branch(dim, n, LADDER_LAMBDAS, LADDER_POINTS))
    return permute(cmds, seed)


def regular_dims(seed: int, mesh: int = REGULAR_MESH, dims=REGULAR_DIMS) -> list[Command]:
    cmds = [pullin(d, mesh) for d in dims]
    picks = INHOMOGENEOUS[:2] if seed == DEFAULT_SEED else random.Random(seed).sample(INHOMOGENEOUS, 2)
    cmds += [pullin(d, mesh, a, b) for d, a, b in picks]
    return permute(cmds, seed)


def exact_search(
    seed: int,
    alpha_grid: str = SEARCH_ALPHA_GRID,
    beta_grid: str = SEARCH_BETA_GRID,
    m_grid: str = TOUCHDOWN_M_GRID,
    certify_ranges=CERTIFY_RANGES,
) -> list[Command]:
    j = 0 if seed == DEFAULT_SEED else random.Random(seed).randrange(VOLTAGE_STEPS)
    cmds = [
        search(SEARCH_DIM, "perturbed-touchdown",
               {"alpha-grid": alpha_grid, "beta-grid": beta_grid},
               search_voltage(SEARCH_DIM, j)),
        search(TOUCHDOWN_DIM, "touchdown-m", {"m": m_grid},
               search_voltage(TOUCHDOWN_DIM, j)),
    ]
    cmds += [certify(claim, dims) for claim, dims in certify_ranges]
    return permute(cmds, seed)


def commands(workload: str, seed: int) -> list[Command]:
    if workload == "singular-ladder":
        return singular_ladder(seed)
    if workload == "regular-dims":
        return regular_dims(seed)
    if workload == "exact-search":
        return exact_search(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def permute(items: list, seed: int) -> list:
    """The seed's order of a pass's commands (seed 0 keeps the listed order)."""
    if seed != DEFAULT_SEED:
        random.Random(~seed).shuffle(items)
    return items
