"""The executor pulls parameter words by the stitch unit's law: request k of a
bank holding pc words takes word k % pc, and the pc * shots + 1-th underflows."""

import numpy as np
import pytest

from pce import kernels
from pce.asm import MachineProgram, Opcode
from pce.control import ParameterMemory
from pce.errors import UnderflowError
from tests.test_asm import word


def run_path(machine, banks, param_counts, shots):
    words = np.ascontiguousarray(machine.words, dtype=np.uint64)
    counts = np.asarray(param_counts, np.int64)
    ret = kernels.run_program(words, machine.n_qubits, shots, banks, counts, 500)
    out = dict(zip(("ev_time", "ev_ch", "ev_ch2", "ev_kind", "ev_phase"), ret[:5]), served=ret[7])
    return ret, out


def requests_program(n_req, shots):
    words = [word(Opcode.REQ_PARAM)] * n_req + [word(Opcode.PULSE_X90), word(Opcode.END)]
    return MachineProgram(words, 1, shots)


class TestServingLawMatchesStitchUnit:
    def test_kernel_request_stream_equals_unit(self):
        # each shot's frame word is the sum of the words its requests took
        rng = np.random.default_rng(77)
        for _ in range(20):
            pc = int(rng.integers(1, 9))
            n_req = int(rng.integers(1, pc + 1))
            shots = int(rng.integers(1, 4))
            words = rng.integers(0, 1 << 32, size=pc).astype(np.uint32)
            mem = ParameterMemory()
            mem.write_params(0, words)
            _, out = run_path(requests_program(n_req, shots), mem.banks, mem.counts, shots)
            law = [int(words[k % pc]) for k in range(n_req * shots)]
            expected_phases = [
                sum(law[s * n_req : (s + 1) * n_req]) & 0xFFFFFFFF for s in range(shots)
            ]
            assert [int(p) for p in out["ev_phase"]] == expected_phases
            assert int(out["served"][0]) == n_req * shots

    def test_request_after_budget_underflows(self):
        # pc + 1 requests a shot: request pc * shots is the first one refused
        rng = np.random.default_rng(78)
        for _ in range(20):
            pc = int(rng.integers(1, 9))
            shots = int(rng.integers(1, 4))
            mem = ParameterMemory()
            mem.write_params(0, rng.integers(0, 1 << 32, size=pc).astype(np.uint32))
            with pytest.raises(UnderflowError) as err:
                run_path(requests_program(pc + 1, shots), mem.banks, mem.counts, shots)
            shot, op = divmod(pc * shots, pc + 1)
            assert (err.value.core_id, err.value.shot, err.value.op_index) == (0, shot, op)
