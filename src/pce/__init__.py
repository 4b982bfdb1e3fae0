"""Parameterized circuit execution toolkit.

Detects structurally-equivalent quantum circuits in a batch, compiles only
the unique representatives, peels virtual-Z phase parameters into binary
tables, and re-stitches them at simulated runtime on a deterministic
control-stack model.  See README.md for the pipeline walkthrough and file
formats.
"""

from .circuits import (
    Circuit,
    Gate,
    GateKind,
    U3Params,
    canonical_phase,
    circuit_unitary,
    cz,
    delay,
    global_phase_distance,
    measure,
    param_request,
    u3_decompose,
    u3_from_unitary,
    u3_matrix,
    vz,
    x90,
)
from .generators import (
    BatchSpec,
    CircuitBatch,
    CliffordTable,
    Label,
    clifford_table,
    gen_batch,
    gen_random_base,
    gen_rc,
    gen_read_circuits,
    iter_batch,
    preset_spec,
)
from .rip import (
    EquivalenceReport,
    ParamTable,
    RipResult,
    binarize,
    debinarize,
    dequantize_word,
    identify,
    identify_bruteforce,
    modify,
    peel,
    rip,
)
from .asm import (
    AssemblyProgram,
    MachineProgram,
    Opcode,
    assemble,
    compile_circuit,
    disassemble,
    machine_from_bytes,
    machine_to_bytes,
)
from .control import (
    ControlSession,
    ParameterMemory,
    PulseTrace,
    ShotData,
    TimingConfig,
    deft_run,
    execute,
)
from .profiling import ProfileRecord, SpeedupTable, compare, parse_report, report
from .rpc import ControlServer, DeftClient, LoopbackChannel, SocketChannel, rpc_decode, rpc_encode
from .runner import ExperimentOutcome, run_experiment
from .verify import verify_batch

__version__ = "0.1.0"
