"""The executor pulls parameter words by the same law as StitchUnit."""

import numpy as np

from pce import kernels
from pce.asm import AsmOp, AssemblyProgram, Opcode, assemble
from pce.control import N_BANKS, ParameterMemory, StitchConfig, StitchUnit


def run_path(machine, banks, param_counts, shots):
    words = np.ascontiguousarray(machine.words, dtype=np.uint64)
    n_emit = kernels.count_emitting_ops(words)
    total = n_emit * shots
    out = dict(
        ev_time=np.zeros(total, np.int64),
        ev_ch=np.zeros(total, np.int16),
        ev_ch2=np.zeros(total, np.int16),
        ev_kind=np.zeros(total, np.uint8),
        ev_phase=np.zeros(total, np.uint32),
        served=np.zeros(N_BANKS, np.int64),
    )
    ret = kernels.run_program(
        words,
        machine.n_qubits,
        shots,
        shots,
        banks,
        np.asarray(param_counts, np.int64),
        np.zeros(N_BANKS, np.int64),
        np.asarray(param_counts, np.int64),
        16,
        100,
        500,
        500,
        out["ev_time"],
        out["ev_ch"],
        out["ev_ch2"],
        out["ev_kind"],
        out["ev_phase"],
        out["served"],
    )
    return ret, out


class TestServingLawMatchesStitchUnit:
    def test_kernel_request_stream_equals_unit(self):
        # the executor must pull words in exactly the order StitchUnit serves them
        rng = np.random.default_rng(77)
        for _ in range(20):
            pc = int(rng.integers(1, 9))
            shots = int(rng.integers(1, 4))
            words = rng.integers(0, 1 << 32, size=pc).astype(np.uint32)
            ops = tuple(AsmOp(Opcode.REQ_PARAM, 0) for _ in range(pc)) + (
                AsmOp(Opcode.PULSE_X90, 0),
                AsmOp(Opcode.END),
            )
            program = assemble(AssemblyProgram(ops, 1, shots))
            mem = ParameterMemory()
            mem.write_params(0, words)
            counts = [pc] + [0] * (N_BANKS - 1)
            ret, out = run_path(program, mem.banks, counts, shots)
            assert ret[0] == kernels.STATUS_OK
            unit = StitchUnit(mem, StitchConfig(tuple(counts), shots))
            expected_phases = []
            for _ in range(shots):
                acc = 0
                for _ in range(pc):
                    acc = (acc + unit.request(0)[0]) & 0xFFFFFFFF
                expected_phases.append(acc)
            got = [int(p) for p in out["ev_phase"]]
            assert got == expected_phases
            assert int(out["served"][0]) == int(unit.served[0]) == pc * shots

