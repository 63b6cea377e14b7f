"""Monte-Carlo BLER/BER estimation over BPSK/AWGN.

Every frame draws its payload and then its noise from its own
counter-based RNG substream keyed by (master seed, SNR index, frame
index), so results are a pure function of the configuration no matter how
frames are batched or scheduled.  The payload bits are read from raw
Philox words, the same stream and bits as ``integers(0, 2, n, uint8)``.
Only these draws run per frame; CRC attachment, encoding and the channel
run once per batch.  The stop rule cuts off at the first frame whose error
brings the cumulative count to ``min_errors``, which keeps the counters
batch-size invariant.
"""

import json
import numbers
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .classify import PlanOptions, classify
from .codec import _llr_limit, encode, sc_decode_batch
from .construction import PolarCode, load_descriptor
from .crc import CRC_NAMES, CrcSpec, check_field_types, crc_attach, crc_by_name
from .fastsc import fast_ssc_decode_batch
from .fastscl import fast_scl_decode_batch
from .listdec import scl_decode_batch

__all__ = ["DECODERS", "LIST_DECODERS", "SimConfig", "SimPoint", "SimResult", "awgn_bpsk_llrs",
           "run_bler", "batch_decoder", "load_sim_config"]

# decoder name -> (whether it walks the classified plan, batch call
# (llrs, code, plan, L, crc) -> u_hat); the lambdas look the entry points
# up per call, so a wrapper installed on this module's names sees every decode
DECODERS = {
    "sc": (False, lambda llrs, code, plan, L, crc: sc_decode_batch(llrs, code)[0]),
    "fastssc": (True, lambda llrs, code, plan, L, crc: fast_ssc_decode_batch(llrs, plan)[0]),
    "scl": (False, lambda llrs, code, plan, L, crc: scl_decode_batch(llrs, code, L, crc)[0]),
    "ssclspc": (True, lambda llrs, code, plan, L, crc:
                fast_scl_decode_batch(llrs, code, plan, L, crc)[0]),
}
LIST_DECODERS = frozenset({"scl", "ssclspc"})  # the decoders that take a list size L


def awgn_bpsk_llrs(x, sigma, rng):
    """BPSK-modulate bits, add N(0, sigma^2) noise, return channel LLRs."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=np.float64)
    return _channel_llrs(x, sigma, rng.normal(size=x.shape))


def _channel_llrs(x, sigma, noise):
    """BPSK (0 -> +1, 1 -> -1) plus sigma-scaled unit noise, as LLRs
    2 ((1 - 2x) + sigma noise) / sigma^2, computed in (and consuming) ``noise``."""
    bpsk = x * -2.0  # -2x + 1 is exactly 1 - 2x, built in one temporary
    bpsk += 1.0
    noise *= sigma
    noise += bpsk
    noise *= 2.0
    noise /= sigma**2
    return noise


@dataclass
class SimConfig:
    code: PolarCode
    decoder: str = "sc"
    enable_grep: bool = False
    enable_gpc: bool = False
    max_af: int = 0
    list_size: int = 1
    crc: CrcSpec | None = None
    snr_db: tuple = (1.0,)
    snr_unit: str = "ebn0"  # "ebn0" (rate-compensated) or "esn0"
    min_errors: int = 100
    max_frames: int = 1_000_000
    seed: int = 0
    minsum: bool = True  # the only f-update; False is refused
    batch: int = 1024

    def __post_init__(self):
        if not isinstance(self.decoder, str) or self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {tuple(DECODERS)}")
        check_field_types(self)
        if not self.minsum:
            raise ValueError("minsum must be true: the exact f-update was removed, "
                             "and every decoder uses min-sum")
        for name in ("list_size", "min_errors", "max_frames", "batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.list_size != 1 and self.decoder not in LIST_DECODERS:
            raise ValueError(f"list_size applies only to the list decoders "
                             f"{sorted(LIST_DECODERS)}; {self.decoder} needs list_size 1")
        self.plan_options()  # only the node-set ladder's rungs are accepted
        if not isinstance(self.snr_db, (list, tuple, np.ndarray)) or not all(
                isinstance(s, numbers.Real) and not isinstance(s, bool) for s in self.snr_db):
            raise ValueError(f"snr_db must be a list of numbers, got {self.snr_db!r}")
        snr = tuple(float(s) for s in self.snr_db)
        if not all(np.isfinite(snr)):
            raise ValueError(f"snr_db must be finite, got {snr}")
        if not snr or any(b <= a for a, b in zip(snr, snr[1:])):
            raise ValueError("snr_db must be nonempty and strictly increasing")
        self.snr_db = snr
        if self.snr_unit not in ("ebn0", "esn0"):
            raise ValueError("snr_unit must be 'ebn0' or 'esn0'")
        if self.crc is not None and not isinstance(self.crc, CrcSpec):
            raise ValueError(f"crc must be None or a CrcSpec (in a config file: one of "
                             f"{list(CRC_NAMES)} or a spec object), got {self.crc!r}")
        crc_w = self.crc.width if self.crc else 0
        if crc_w >= self.code.K + (self.code.K == 0):
            raise ValueError("CRC wider than the unfrozen budget")
        if self.snr_unit == "ebn0" and not self.payload_bits:
            raise ValueError("snr_unit 'ebn0' needs payload bits, and this code has none "
                             "(K = 0); give the SNR as Es/N0 with snr_unit 'esn0'")
        for s in snr:  # LLRs are about 2/sigma**2; 2x for the noise
            try:
                sigma = self.sigma_for(s)
                ok = 0.0 < sigma < np.inf and 4.0 / sigma**2 < _llr_limit(self.code.N)
            except (OverflowError, ZeroDivisionError):
                ok = False
            if not ok:
                raise ValueError(f"snr_db {s} gives no finite, positive noise sigma "
                                 f"with N*2/sigma**2 below half the float maximum")

    @property
    def payload_bits(self):
        return self.code.K - (self.crc.width if self.crc else 0)

    @property
    def effective_rate(self):
        # CRC bits ride in unfrozen channels but carry no information
        return self.payload_bits / self.code.N

    def sigma_for(self, snr_db):
        lin = 10.0 ** (snr_db / 10.0)
        if self.snr_unit == "esn0":
            return float(np.sqrt(1.0 / (2.0 * lin)))
        return float(np.sqrt(1.0 / (2.0 * self.effective_rate * lin)))

    def plan_options(self):
        return PlanOptions(enable_grep=self.enable_grep, enable_gpc=self.enable_gpc,
                           max_af=self.max_af)


@dataclass
class SimPoint:
    snr_db: float
    frames: int
    frame_errors: int
    bit_errors: int
    bler: float
    bler_ci_lo: float
    bler_ci_hi: float
    seconds: float


@dataclass
class SimResult:
    config_label: str
    points: list = field(default_factory=list)

    # wall-clock time stays off the CSV so reruns are byte-identical
    CSV_HEADER = "snr_db,frames,frame_errors,bit_errors,bler,bler_ci_lo,bler_ci_hi"

    def to_csv(self):
        rows = [f"{p.snr_db:g},{p.frames},{p.frame_errors},{p.bit_errors},"
                f"{p.bler:.8e},{p.bler_ci_lo:.8e},{p.bler_ci_hi:.8e}" for p in self.points]
        return "\n".join([self.CSV_HEADER, *rows]) + "\n"


_Z95 = 1.959964  # two-sided 95% standard normal quantile


def wilson_interval(k, n):
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    z = _Z95
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _frame_key(seed, snr_idx, frame_idx):
    """The two 64-bit words of a frame's Philox key."""
    return (seed & 0xFFFFFFFFFFFFFFFF,
            ((snr_idx & 0xFFFFFF) << 40) | (frame_idx & 0xFFFFFFFFFF))


def _frame_rng(seed, snr_idx, frame_idx):
    key = np.array(_frame_key(seed, snr_idx, frame_idx), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def batch_decoder(name, code, opts, L, crc):
    """The (B, N) LLRs -> (B, N) u_hat call of decoder ``name``; the fast
    decoders classify ``code`` under ``opts`` once, here."""
    fast, call = DECODERS[name]
    plan = classify(code, opts) if fast else None
    return lambda llrs: call(llrs, code, plan, L, crc)


def _gen_frames(cfg, snr_idx, start, count, sigma):
    """Payloads and channel LLRs for frames [start, start+count).

    Each frame draws its payload, then its noise, from its own stream;
    CRC, encoding and the channel then run once over the whole batch.
    One generator serves every frame: setting its state to the frame's key
    with the fresh state's zero counter and empty buffer starts the same
    stream as ``_frame_rng``, without building a Philox per frame.
    The payload is the top bit of each byte of ceil(n/8) raw words, low byte
    first: the draws and bits of ``integers(0, 2, n, uint8)``, which never rejects.
    """
    N, nbits = cfg.code.N, cfg.payload_bits
    raw = np.empty((count, -(-nbits // 8)), dtype=np.uint64)
    noise = np.empty((count, N))
    rng = _frame_rng(cfg.seed, snr_idx, start)
    fresh = rng.bit_generator.state
    key = fresh["state"]["key"]
    for k in range(count):
        key[:] = _frame_key(cfg.seed, snr_idx, start + k)
        rng.bit_generator.state = fresh
        raw[k] = rng.bit_generator.random_raw(raw.shape[1])
        rng.standard_normal(out=noise[k])
    payloads = raw.astype("<u8", copy=False).view(np.uint8)[:, :nbits] >> 7
    u = np.zeros((count, N), dtype=np.uint8)
    u[:, cfg.code.info_indices] = crc_attach(payloads, cfg.crc) if cfg.crc else payloads
    return payloads, _channel_llrs(encode(u, cfg.code), sigma, noise)


def run_bler(cfg):
    """Run the Monte-Carlo sweep described by ``cfg``."""
    decode = batch_decoder(cfg.decoder, cfg.code, cfg.plan_options(), cfg.list_size, cfg.crc)
    info = cfg.code.info_indices
    nbits = cfg.payload_bits
    result = SimResult(config_label=cfg.decoder)
    for snr_idx, snr in enumerate(cfg.snr_db):
        sigma = cfg.sigma_for(snr)
        t0 = time.perf_counter()
        frames = ferr = berr = 0
        while frames < cfg.max_frames and ferr < cfg.min_errors:
            nb = min(cfg.batch, cfg.max_frames - frames)
            payloads, llrs = _gen_frames(cfg, snr_idx, frames, nb, sigma)
            u_hat = decode(llrs)
            decoded = u_hat[:, info][:, :nbits]
            bit_err = (decoded != payloads).sum(axis=1)
            frame_err = bit_err > 0
            cum = ferr + np.cumsum(frame_err)
            if cum[-1] >= cfg.min_errors:
                keep = int(np.argmax(cum >= cfg.min_errors)) + 1
            else:
                keep = nb
            ferr += int(frame_err[:keep].sum())
            berr += int(bit_err[:keep].sum())
            frames += keep
        lo, hi = wilson_interval(ferr, frames)
        result.points.append(SimPoint(
            snr_db=snr, frames=frames, frame_errors=ferr, bit_errors=berr,
            bler=ferr / frames, bler_ci_lo=lo, bler_ci_hi=hi,
            seconds=time.perf_counter() - t0))
    return result


def load_sim_config(path):
    """Read a simulation config JSON; the code descriptor path is resolved
    relative to the config file."""
    import os

    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not isinstance(raw.get("code"), str):
        raise ValueError("a simulation config is a JSON object with a 'code' descriptor path")
    code_path = raw.pop("code")
    if not os.path.isabs(code_path):
        code_path = os.path.join(os.path.dirname(os.path.abspath(path)), code_path)
    code = load_descriptor(code_path)
    crc = raw.pop("crc", "none")
    if isinstance(crc, str):
        crc = crc_by_name(crc)
    elif isinstance(crc, dict):
        try:
            crc = CrcSpec(**crc)
        except TypeError:  # an unknown or a missing field
            names = [f.name for f in fields(CrcSpec)]
            raise ValueError(f"a CRC spec object has the fields {names}, of which width and "
                             f"polynomial are required; got {sorted(crc)}") from None
    known = {f for f in SimConfig.__dataclass_fields__} - {"code", "crc"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return SimConfig(code=code, crc=crc, **raw)
