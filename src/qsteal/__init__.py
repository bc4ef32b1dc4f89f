"""qsteal: noisy hybrid QNNs, model-stealing attacks, and hardware-variation defenses."""

from .attack import (
    AdversarialDataset,
    AttackReport,
    AttackSpec,
    query_victim,
    run_attack,
    run_attack_suite,
    train_clone,
)
from .channels import (
    KrausChannel,
    ReadoutConfusion,
    amplitude_damping,
    bit_flip,
    depolarizing,
    depolarizing_2q,
    phase_flip,
)
from .circuits import (
    CircuitIR,
    PQCTemplate,
    assemble_circuit,
    build_pqc,
    encode_angles,
    run_circuit,
    weave_noise,
)
from .data import (
    LabeledDataset,
    QuerySet,
    load_csv,
    make_blobs,
    make_npd_sources,
    mixed_query_set,
    random_query_set,
    scale_features,
    train_test_split,
)
from .defense import (
    DefenseEvalResult,
    ObfuscationReport,
    VictimService,
    baseline_of,
    havip,
    hvip,
    measure_obfuscation,
    no_defense,
)
from .devices import (
    DeviceProfile,
    DeviceRegistry,
    default_registry,
    load_registry,
)
from .gates import GateOp
from .metrics import accuracy, clone_ratio, mismatch_rate, tvd
from .model import (
    HybridModel,
    forward_batch,
    forward_probes,
    init_model,
    load_checkpoint,
    save_checkpoint,
    softmax,
)
from .training import AdamState, TrainConfig, TrainHistory, adam_step, spsa_gradient, train

__version__ = "0.1.0"
