"""The named benchmark workloads: a batch spec per workload, seeded at run time.

The seed is the benchmark's argument; ``pce generate`` turns the spec into a
batch and ``pce run`` sees only that batch (plus the same seed for its shot
sampler).
"""

from __future__ import annotations

from dataclasses import dataclass

# the golden digests and counts in golden.json are taken at this seed
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    widths: str  # batch-spec syntax, "|" between width groups
    depths: str
    randomizations: int
    shots: int
    socket: bool
    why: str

    def config(self, seed: int) -> str:
        return (
            f"kind = {self.kind}\n"
            f"widths = {self.widths}\n"
            f"depths = {self.depths}\n"
            f"randomizations = {self.randomizations}\n"
            f"shots = {self.shots}\n"
            f"seed = {seed}\n"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rb_shots",
            "RB",
            "0 | 0,1 | 0,1,2 | 0,1,2,3",
            "2,8,16",
            3,
            50,
            False,
            "desk RB, 44 circuits in 16 groups at 50 shots: the simulator and "
            "state-vector shot sampling dominate, RIP and compile barely show",
        ),
        Workload(
            "frc_1shot",
            "FRC",
            "0,1 | 0,1,2 | 0,1,2,3",
            "1,10,20,30",
            25,
            1,
            False,
            "single-shot FRC, 300 circuits in 12 groups: per-circuit classical "
            "work dominates, the paper's best case for PCE",
        ),
        Workload(
            "rc_wide_socket",
            "RC",
            "0,1,2,3,4,5 | 0,1,2,3,4,5,6,7",
            "1,5,10,20",
            4,
            20,
            True,
            "RC on 6 and 8 qubits over a unix socket: trace-only path, heavy "
            "stitching, real socket frames and large dumps",
        ),
    )
}
