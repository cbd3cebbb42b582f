"""Seeded inputs of the benchmark workloads.

Each workload's graph is generated from the run seed and written once as an
edge-list file next to the generator's ground truth: the distinct edges with
their direction flags, the injected noise counts and the anchor the workload
estimates.  The program under test only ever reads the edge-list file; the
truth feeds the independent reference in ``reference.py``.

Run as a script to write one workload's input into a directory::

    python3 perfbench/inputs.py --workload sparse-sweep --seed 3 --out DIR

The benchmark runs it in a process of its own before the measuring
processes start, so the generator's memory never counts towards their
peak RSS.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

WORKLOADS = ("pa-hub", "sparse-sweep", "directed-evaluate")

PA_NODES, PA_LINKS = 100_000, 5
SPARSE_NODES, SPARSE_EDGES = 200_000, 1_000_000
SPARSE_REPEATS = SPARSE_EDGES // 100      # about 1% repeated lines
SPARSE_SELF_LOOPS = 500
SPARSE_COMMENTS = 200
MUTUAL_FRACTION = 1.0 / 3.0
DIRECTED_REPEAT_FRACTION = 0.01           # repeated arcs, as a share of arcs
# The directed workload orients one fixed PA skeleton: the oracle's
# enumeration then does the same work at every seed, while the seed draws
# the orientations, the mutual edges, the repeated arcs and the line order.
DIRECTED_SKELETON_SEED = 0

# Edge flags, as seen from the lower endpoint: arc lo->hi, arc hi->lo, both.
FWD, BWD, BOTH = 1, 2, 3


@dataclass
class Truth:
    """What the generator knows about the file it wrote.

    ``lo``/``hi``/``flags`` hold every distinct edge once (original ids,
    ``lo < hi``); undirected edges carry ``BOTH``.  The counts are the
    expected ``LoadSummary`` of the file.
    """

    directed: bool
    lo: np.ndarray
    hi: np.ndarray
    flags: np.ndarray
    lines: int
    self_loops: int
    duplicates: int
    anchor: int  # original id; -1 when the workload draws its own anchors

    def save(self, path: Path) -> None:
        np.savez(
            path,
            directed=self.directed, lo=self.lo, hi=self.hi, flags=self.flags,
            lines=self.lines, self_loops=self.self_loops,
            duplicates=self.duplicates, anchor=self.anchor,
        )

    @classmethod
    def load(cls, path: Path) -> "Truth":
        with np.load(path) as z:
            return cls(
                directed=bool(z["directed"]), lo=z["lo"], hi=z["hi"],
                flags=z["flags"], lines=int(z["lines"]),
                self_loops=int(z["self_loops"]),
                duplicates=int(z["duplicates"]), anchor=int(z["anchor"]),
            )


def preferential_attachment(n: int, m: int, rng: np.random.Generator):
    """Growing graph: each new node links to ``m`` distinct degree-biased
    targets, starting from a star on nodes ``0..m``.  Returns (lo, hi)."""
    endpoints: list[int] = []
    new: list[int] = []
    old: list[int] = []
    for v in range(1, m + 1):
        new.append(v)
        old.append(0)
        endpoints += [0, v]
    draws = rng.random(2 * m * n)
    at = 0
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            if at == len(draws):
                draws, at = rng.random(2 * m * n), 0
            targets.add(endpoints[int(draws[at] * len(endpoints))])
            at += 1
        for t in sorted(targets):
            new.append(v)
            old.append(t)
            endpoints += [v, t]
    a = np.asarray(new, dtype=np.int64)
    b = np.asarray(old, dtype=np.int64)
    return np.minimum(a, b), np.maximum(a, b)


def sparse_uniform(n: int, m: int, rng: np.random.Generator):
    """``m`` distinct uniform random pairs out of ``n`` nodes: (lo, hi)."""
    k = m + m // 20 + 1000
    a = rng.integers(0, n, size=k)
    b = rng.integers(0, n, size=k)
    ok = a != b
    lo, hi = np.minimum(a, b)[ok], np.maximum(a, b)[ok]
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    seen = np.zeros(len(key), dtype=bool)
    seen[order[1:]] = key[order][1:] == key[order][:-1]
    lo, hi = lo[~seen][:m], hi[~seen][:m]
    if len(lo) < m:
        raise RuntimeError("too few distinct pairs drawn")
    return lo, hi


def orient(count: int, rng: np.random.Generator) -> np.ndarray:
    """Direction flag per edge: mutual with ``MUTUAL_FRACTION``, otherwise
    one arc of uniform orientation."""
    mutual = rng.random(count) < MUTUAL_FRACTION
    fwd = rng.random(count) < 0.5
    return np.where(mutual, BOTH, np.where(fwd, FWD, BWD)).astype(np.int8)


def _lines(src: np.ndarray, dst: np.ndarray) -> list[str]:
    return [f"{u} {v}" for u, v in zip(src.tolist(), dst.tolist())]


def make_input(workload: str, seed: int) -> tuple[list[str], Truth]:
    """Edge-list lines and ground truth of one workload at one seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "pa-hub":
        lo, hi = preferential_attachment(PA_NODES, PA_LINKS, rng)
        flags = np.full(len(lo), BOTH, dtype=np.int8)
        lines = [f"# preferential attachment {PA_NODES} x {PA_LINKS}, seed {seed}"]
        lines += _lines(hi, lo)  # "new old", in growth order
        truth = Truth(False, lo, hi, flags, len(lines), 0, 0, -1)
        truth.anchor = reference.max_degree_node(reference.build(truth))
        return lines, truth

    if workload == "sparse-sweep":
        lo, hi = sparse_uniform(SPARSE_NODES, SPARSE_EDGES, rng)
        swap = rng.random(len(lo)) < 0.5
        src, dst = np.where(swap, hi, lo), np.where(swap, lo, hi)
        rep = rng.integers(0, len(lo), size=SPARSE_REPEATS)
        rswap = rng.random(SPARSE_REPEATS) < 0.5
        loops = rng.integers(0, SPARSE_NODES, size=SPARSE_SELF_LOOPS)
        body = np.concatenate([
            _as_pairs(src, dst),
            _as_pairs(np.where(rswap, hi[rep], lo[rep]), np.where(rswap, lo[rep], hi[rep])),
            _as_pairs(loops, loops),
        ])
        body = body[rng.permutation(len(body))]
        lines = _lines(body[:, 0], body[:, 1])
        for at in np.sort(rng.integers(0, len(lines) + 1, size=SPARSE_COMMENTS))[::-1]:
            lines.insert(int(at), f"# comment at {int(at)}")
        flags = np.full(len(lo), BOTH, dtype=np.int8)
        truth = Truth(
            False, lo, hi, flags, len(lines), SPARSE_SELF_LOOPS, SPARSE_REPEATS, -1
        )
        return lines, truth

    if workload == "directed-evaluate":
        skeleton = np.random.default_rng(DIRECTED_SKELETON_SEED)
        lo, hi = preferential_attachment(PA_NODES, PA_LINKS, skeleton)
        flags = orient(len(lo), rng)
        fwd = flags != BWD
        bwd = flags != FWD
        arcs = np.concatenate([_as_pairs(lo[fwd], hi[fwd]), _as_pairs(hi[bwd], lo[bwd])])
        repeats = int(len(arcs) * DIRECTED_REPEAT_FRACTION)
        arcs = np.concatenate([arcs, arcs[rng.integers(0, len(arcs), size=repeats)]])
        arcs = arcs[rng.permutation(len(arcs))]
        lines = _lines(arcs[:, 0], arcs[:, 1])
        truth = Truth(True, lo, hi, flags, len(lines), 0, repeats, -1)
        truth.anchor = reference.guarded_anchor(reference.build(truth))
        return lines, truth

    raise ValueError(f"unknown workload {workload!r}")


def _as_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack([a, b], axis=1).astype(np.int64)


def write_input(workload: str, seed: int, out: Path) -> None:
    """Write ``edges.txt`` and ``truth.npz`` into ``out`` (atomically)."""
    lines, truth = make_input(workload, seed)
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / f"edges.txt.{os.getpid()}"
    tmp.write_text("\n".join(lines) + "\n", encoding="ascii")
    truth.save(out / "truth.npz")
    tmp.replace(out / "edges.txt")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    write_input(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
