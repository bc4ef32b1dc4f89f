"""Victim-side serving with perturbation defenses, and their measurement.

A :class:`VictimService` holds one or more (model, device) pairs and
serves `predict` queries by sampling a pair per query:

* no defense: a single pair, always served;
* hardware variation (HVIP): one model, several devices;
* hardware + architecture variation (HAVIP): several trained models, each
  bound to its own device.

Callers never learn which pair answered; the service keeps an opaque
selection log on its side.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from . import model
from .attack import AttackReport, AttackSpec, run_attack
from .data import QuerySet
from .devices import DeviceProfile
from .metrics import mismatch_rate, tvd
from .model import HybridModel


def selection_probs(probs: list[float] | None, n_pairs: int) -> np.ndarray:
    """Checked selection probabilities for `n_pairs` served pairs: one
    nonnegative entry per pair, summing to 1.  None means uniform."""
    probs = [1.0 / n_pairs] * n_pairs if probs is None else list(probs)
    if len(probs) != n_pairs:
        raise ValueError(f"{len(probs)} selection probabilities for {n_pairs} served pairs; they must match")
    if any(p < 0 for p in probs):
        raise ValueError(f"selection probabilities must be nonnegative, got {probs}")
    if abs(sum(probs) - 1.0) > 1e-9:
        raise ValueError(f"selection probabilities sum to {sum(probs)}, expected 1")
    return np.array(probs, dtype=np.float64)


#: queries a multi-pair service draws its pairs for at once: a draw's cost
#: is nearly all fixed, about the same for 1 row as for 64
PICK_BLOCK = 64

_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (NEP 19) and PCG64's LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U1, _U11, _U32, _U58, _U63, _U64, _LOW = (np.uint64(v) for v in (1, 11, 32, 58, 63, 64, _MASK32))


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of `count` successive SeedSequence hash
    steps, as (count, 1) columns: the running constant before and after each step."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], np.uint32)[:, None], np.array(consts[1:], np.uint32)[:, None]


@functools.lru_cache(maxsize=None)
def _pool_rounds(words: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (4, 1) hash constants of each round of SeedSequence's pool mixing
    for `words` >= 4 entropy words: the pool's first hash, the four rounds
    that mix pool word i into the other three (row i a placeholder), and one
    round per word past the fourth."""
    xor, mul = _hash_consts(_INIT_A, _MULT_A, 4 * words)
    cross = [np.insert(np.arange(4 + 3 * i, 7 + 3 * i), i, 0) for i in range(4)]
    return [(xor[:4], mul[:4])] + [(xor[c], mul[c]) for c in cross] + [
        (xor[4 * i : 4 * i + 4], mul[4 * i : 4 * i + 4]) for i in range(4, words)]


def _hash(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * _MIX_L - y * _MIX_R
    return value ^ (value >> 16)


_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)
# the first output from the state seeded with s and increment c is one
# more LCG step, state·M + c = (c + s)·M² + c·(M + 1) mod 2¹²⁸: the two
# factors as their high 64 bits and the 32-bit halves of their low 64
_FACTORS = np.array([[k >> 64, k >> 32 & _MASK32, k & _MASK32] for k in (_PCG_MULT**2 % 2**128, _PCG_MULT + 1)],
                    np.uint64).T[:, :, None]


def _mul128(hi: np.ndarray, lo: np.ndarray, factors) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) · factor mod 2¹²⁸ per row, in 64-bit limbs: the low limbs'
    full product from their 32-bit halves."""
    k_hi, b1, b0 = factors
    a1, a0 = lo >> _U32, lo & _LOW
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW) + (p10 & _LOW)
    high = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return high + lo * k_hi + hi * ((b1 << _U32) | b0), (mid << _U32) | (p00 & _LOW)


def _first_raw_words(words: np.ndarray) -> np.ndarray:
    """`PCG64(SeedSequence(row)).random_raw()` for each row of an (N, W)
    uint32 array of entropy words, computed for all rows at once.

    SeedSequence hashes the words into a pool of 4 (each word past the
    fourth mixes in one more round) and PCG64 seeds itself from the pool's
    first 4 uint64 words; the first output is XSL-RR of the 128-bit LCG state."""
    n, w = words.shape
    rounds = _pool_rounds(max(w, 4))
    entropy = np.zeros((max(w, 4), n), np.uint32)  # SeedSequence hashes a missing pool word as 0
    entropy[:w] = words.T
    pool = _hash(entropy[:4], *rounds[0])
    for src, consts in enumerate(rounds[1:5]):
        mixed = _mix(pool, _hash(pool[src], *consts))
        mixed[src] = pool[src]
        pool = mixed
    for word, consts in zip(entropy[4:], rounds[5:]):
        pool = _mix(pool, _hash(word, *consts))
    # generate_state(4, uint64): 8 words cycled from the pool, paired low word first
    state = _hash(np.concatenate([pool, pool]), *_STATE_CONSTS).astype(np.uint64)
    s_hi, s_lo, inc_hi, inc_lo = state[0::2] | (state[1::2] << _U32)
    c_hi, c_lo = (inc_hi << _U1) | (inc_lo >> _U63), (inc_lo << _U1) | _U1
    a_lo = c_lo + s_lo
    hi, lo = _mul128(np.stack([c_hi + s_hi + (a_lo < c_lo), c_hi]), np.stack([a_lo, c_lo]), _FACTORS)
    low = lo[0] + lo[1]
    high = hi[0] + hi[1] + (low < lo[0])
    rot, out = high >> _U58, high ^ low
    return (out >> rot) | (out << ((_U64 - rot) & _U63))


def _words(n: int) -> list[int]:
    """SeedSequence's words for a nonnegative int: little-endian 32-bit words, [0] for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def draw_pairs(cdf: np.ndarray, seed: int, first: int, count: int) -> np.ndarray:
    """The pairs queries first .. first + count - 1 draw: query i takes the first
    pair whose `cdf` entry exceeds the first double of the stream [seed, i, 0].
    For cdf = probs.cumsum() / its last entry, these are the bits that
    default_rng([seed, i, 0]).choice(len(cdf), p=probs) gives, without a Generator.
    Each run of indices with one word count is one vectorised draw."""
    if first + count > 2**64:
        raise ValueError(f"query indices stop at 2**64, got {first} + {count}")
    head = _words(seed)
    raws = np.empty(count, np.uint64)
    start = first
    while start < first + count:
        width = len(_words(start))
        stop = min(first + count, 2 ** (32 * width))
        idx = np.arange(stop - start, dtype=np.uint64) + np.uint64(start)
        keys = np.zeros((stop - start, len(head) + width + 1), np.uint32)
        keys[:, : len(head)] = head
        for j in range(width):
            keys[:, len(head) + j] = (idx >> np.uint64(32 * j)) & _LOW
        raws[start - first : stop - first] = _first_raw_words(keys)
        start = stop
    return cdf.searchsorted((raws >> _U11) * 2.0**-53, side="right")


class VictimService:
    """In-process victim endpoint: exactly one operation, predict."""

    def __init__(
        self,
        pairs: list[tuple[HybridModel, DeviceProfile]],
        probs: list[float] | None = None,
        shots: int | None = None,
        seed: int = 0,
        name: str = "none",
    ):
        if not pairs:
            raise ValueError("a victim service needs at least one (model, device) pair")
        ks = {m.k for m, _ in pairs}
        if len(ks) != 1:
            raise ValueError("all served models must share the class count")
        # its streams' keys are the seed's 32-bit words, which only a nonnegative int has
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"a service seed must be a nonnegative integer, got {seed!r}")
        self.pairs = list(pairs)
        self.probs = selection_probs(probs, len(pairs))
        self.cdf = self.probs.cumsum() / self.probs.cumsum()[-1]  # as Generator.choice makes it
        self.shots = shots
        self.seed = int(seed)
        self.name = name
        self.selection_log: list[int] = []
        # the pairs of queries block_start .. block_start + len(block) - 1
        self._block_start = 0
        self._block = np.zeros(0, np.intp)

    @property
    def k(self) -> int:
        return self.pairs[0][0].k

    def reseeded(self, seed: int) -> "VictimService":
        return VictimService(self.pairs, self.probs.tolist(), self.shots, seed, self.name)

    def _picks(self, first: int, b: int) -> np.ndarray:
        """The pairs of queries first .. first + b - 1.  A multi-pair service
        draws them PICK_BLOCK or more queries ahead; each pick depends only
        on (seed, i), so the block bounds never show in the answers."""
        if len(self.pairs) == 1:  # a draw over a single pair always returns it
            return np.zeros(b, np.intp)
        if first + b > self._block_start + len(self._block):
            self._block_start, self._block = first, draw_pairs(self.cdf, self.seed, first, max(b, PICK_BLOCK))
        return self._block[first - self._block_start : first - self._block_start + b]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for one input (d,) -> (k,) or a batch
        (B, d) -> (B, k); the pair choice stays hidden.

        The service numbers every query row it answers.  Query i draws its
        pair by the first double of the stream [seed, i, 0] against the cdf
        of the selection probabilities (:func:`draw_pairs`, a block of
        queries at a time; the bits equal Generator.choice's) and its shot
        noise from [seed, i, 1], so serving is deterministic per (seed, query
        order) and a batch answers exactly as its rows sent one at a time.  The rows that drew the same pair go
        through one forward_batch call.  The selection log grows only once
        the whole call has succeeded; a call with a NaN or infinite input
        is refused before any pair is drawn.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise ValueError(f"predict takes one input (d,) or a batch (B, d), got shape {x.shape}")
        rows = np.atleast_2d(x)
        if not np.isfinite(rows).all():
            row = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
            raise ValueError(f"query row {row} is not finite: {rows[row]}")
        first = len(self.selection_log)
        b = rows.shape[0]
        picks = self._picks(first, b)
        out = np.empty((b, self.k))
        for idx, (served, profile) in enumerate(self.pairs):
            sel = np.flatnonzero(picks == idx)
            if sel.size == 0:
                continue
            rngs = None if self.shots is None else [np.random.default_rng([self.seed, first + i, 1]) for i in sel]
            # through the module, so that a patched model.forward_batch also sees serving
            out[sel] = model.forward_batch(served, rows[sel], profile, self.shots, rngs)
        self.selection_log.extend(picks.tolist())
        return out[0] if x.ndim == 1 else out


def no_defense(model: HybridModel, device: DeviceProfile, shots: int | None = None, seed: int = 0) -> VictimService:
    """Single model on a single device, served every time."""
    return VictimService([(model, device)], [1.0], shots, seed, name="none")


def hvip(
    model: HybridModel,
    devices: list[DeviceProfile],
    probs: list[float] | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> VictimService:
    """Hardware variation: one model, randomly executed on >= 2 devices."""
    if len(devices) < 2:
        raise ValueError("hvip needs at least two devices")
    if len({d.name for d in devices}) != len(devices):
        raise ValueError("hvip devices must be distinct")
    return VictimService([(model, d) for d in devices], probs, shots, seed, name="hvip")


def havip(
    pairs: list[tuple[HybridModel, DeviceProfile]],
    probs: list[float] | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> VictimService:
    """Hardware + architecture variation: >= 2 (model, device) pairs."""
    if len(pairs) < 2:
        raise ValueError("havip needs at least two (model, device) pairs")
    return VictimService(pairs, probs, shots, seed, name="havip")


def baseline_of(service: VictimService) -> VictimService:
    """The undefended reference: the first-listed pair served deterministically."""
    return VictimService([service.pairs[0]], [1.0], service.shots, service.seed, name="none")


# ---------------------------------------------------------------------------
# obfuscation measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObfuscationReport:
    """Defended-vs-baseline divergence over a query set."""

    top1_mismatch_rate: float
    mean_tvd: float
    per_query_tvd: tuple
    n_queries: int
    shots: int | None
    policy: str
    seeds: tuple

    def to_dict(self) -> dict:
        return {
            "top1_mismatch_rate": self.top1_mismatch_rate,
            "mean_tvd": self.mean_tvd,
            "n_queries": self.n_queries,
            "shots": self.shots,
            "policy": self.policy,
            "seeds": list(self.seeds),
        }


def measure_obfuscation(
    policy: VictimService,
    baseline: VictimService,
    qs: QuerySet,
    seeds: list[int],
) -> ObfuscationReport:
    """Per-query TVD and argmax mismatch between defended and baseline
    responses, pooled over the given service seeds.  Each service answers
    the whole query set in one predict call per seed, and one tvd call
    scores every pooled answer."""
    if policy.k != baseline.k:
        raise ValueError("policy and baseline disagree on class count")
    if qs.m < 1:
        raise ValueError("query set is empty")
    if not seeds:
        raise ValueError("obfuscation needs at least one service seed")
    answers = [(policy.reseeded(s).predict(qs.features), baseline.reseeded(s).predict(qs.features)) for s in seeds]
    defended, reference = (np.concatenate(a) for a in zip(*answers))
    tvds = tvd(defended, reference)
    return ObfuscationReport(
        top1_mismatch_rate=mismatch_rate(defended.argmax(axis=1), reference.argmax(axis=1)),
        mean_tvd=float(np.mean(tvds)),
        per_query_tvd=tuple(tvds.tolist()),
        n_queries=qs.m,
        shots=policy.shots,
        policy=policy.name,
        seeds=tuple(seeds),
    )


# ---------------------------------------------------------------------------
# defended attack evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefenseEvalResult:
    defended: AttackReport
    undefended: AttackReport

    @property
    def accuracy_gap(self) -> float:
        return self.undefended.clone_accuracy - self.defended.clone_accuracy

    def to_dict(self) -> dict:
        return {**asdict(self), "accuracy_gap": self.accuracy_gap}


def evaluate_defended_attack(
    policy: VictimService,
    spec: AttackSpec,
    **attack_kwargs,
) -> DefenseEvalResult:
    """Run the full theft pipeline against the defended service and against
    its undefended baseline with matched seeds; report both."""
    _, defended_report = run_attack(policy.reseeded(spec.seed), spec, **attack_kwargs)
    _, undefended_report = run_attack(baseline_of(policy).reseeded(spec.seed), spec, **attack_kwargs)
    return DefenseEvalResult(defended=defended_report, undefended=undefended_report)
