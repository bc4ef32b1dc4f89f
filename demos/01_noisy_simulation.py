"""Density-matrix simulation with device noise.

Builds a small encoded circuit, runs it clean and under two device
profiles, and shows how the channels degrade the measured expectations
while the state stays a valid density matrix.
"""

import numpy as np

from qsteal import (
    CircuitIR,
    GateOp,
    PQCTemplate,
    amplitude_damping,
    assemble_circuit,
    bit_flip,
    default_registry,
    run_circuit,
    weave_noise,
)
from qsteal.circuits import NoisePoint, final_states
from qsteal.density import sample_expectations

rng = np.random.default_rng(0)
registry = default_registry()


def one_qubit(ops, channel=None) -> CircuitIR:
    """A 1-qubit circuit measuring qubit 0, with `channel` after its last gate."""
    noise = (NoisePoint(len(ops) - 1, channel, (0,)),) if channel is not None else ()
    return CircuitIR(n_qubits=1, ops=tuple(ops), measured_qubits=(0,), noise_points=noise)


print("== single-qubit channels ==")
h = [GateOp("H", (0,))]
print(f"after H:                  <Z> = {run_circuit(one_qubit(h))[0, 0]:+.4f}")
damped = run_circuit(one_qubit(h, amplitude_damping(0.3)))[0, 0]
print(f"after damping gamma=0.3:  <Z> = {damped:+.4f}")
flipped = run_circuit(one_qubit(h, bit_flip(0.25)))[0, 0]
print(f"after bit flip p=0.25:    <Z> = {flipped:+.4f}")

print("\n== a 4-qubit encoded circuit under device noise ==")
template = PQCTemplate("PQC19", 4)
features = rng.uniform(0, 2 * np.pi, 8)
params = rng.uniform(0, 2 * np.pi, template.param_count)
circuit = assemble_circuit(features, template, params)

clean = run_circuit(circuit)[0]
print(f"ideal:   <Z> per qubit = {np.array2string(clean, precision=3)}")
for name in ("devA", "devB"):
    woven = weave_noise(assemble_circuit(features, template, params), registry.get(name))
    noisy = run_circuit(woven)[0]
    drift = np.abs(noisy - clean).max()
    print(f"{name}:    <Z> per qubit = {np.array2string(noisy, precision=3)}   max drift {drift:.3f}")

print("\n== the noisy state is still a density matrix ==")
woven = weave_noise(assemble_circuit(features, template, params), registry.get("devB"))
state = final_states(woven)[0]
assert abs(np.trace(state) - 1.0) < 1e-10
assert np.allclose(state, state.conj().T, atol=1e-10)
assert np.linalg.eigvalsh(state).min() > -1e-9
print("trace 1, Hermitian, PSD: ok")

print("\n== shot sampling with readout error ==")
conf = registry.get("devA").readout_for(1)
exact = run_circuit(one_qubit([]))  # |0>: <Z> = +1
for shots in (100, 1000, 100_000):
    est = sample_expectations(exact, conf, shots, np.random.default_rng(1))[0, 0]
    print(f"shots={shots:>6}: estimate {est:+.4f}  (analytic with confusion: +0.9400)")
