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
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .classify import PlanOptions, classify
from .codec import check_minsum, encode, sc_decode_batch
from .construction import PolarCode, _channel_mean, load_descriptor
from .crc import CrcSpec, check_integer, crc_attach, crc_by_name
from .fastsc import fast_ssc_decode_batch
from .fastscl import fast_scl_decode_batch
from .listdec import check_crc, scl_decode_batch

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


def check_decoder(name, list_size):
    if not isinstance(name, str) or name not in DECODERS:
        raise ValueError(f"decoder must be one of {tuple(DECODERS)}, got {name!r}")
    check_integer(list_size, "list_size", 1)
    if list_size != 1 and name not in LIST_DECODERS:
        raise ValueError(f"list_size applies only to the list decoders "
                         f"{sorted(LIST_DECODERS)}; {name} needs list_size 1")


def awgn_bpsk_llrs(x, sigma, rng):
    """BPSK-modulate bits, add N(0, sigma^2) noise, return channel LLRs."""
    _channel_mean(0, sigma, "sigma")  # a positive real with 2/sigma^2 finite and nonzero
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


@dataclass(frozen=True)
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
        if not isinstance(self.code, PolarCode):
            raise ValueError(f"code must be a PolarCode, got {self.code!r}")
        check_decoder(self.decoder, self.list_size)
        for name in ("min_errors", "max_frames", "batch"):
            check_integer(getattr(self, name), name, 1)
        check_integer(self.seed, "seed", 0, 1 << 64)  # the Philox key holds 64 bits of it
        check_minsum(self.minsum)
        self.plan_options()  # only the node-set ladder's rungs are accepted
        if not isinstance(self.snr_db, (list, tuple, np.ndarray)) or not all(
                isinstance(s, numbers.Real) and not isinstance(s, bool) for s in self.snr_db):
            raise ValueError(f"snr_db must be a list of numbers, got {self.snr_db!r}")
        snr = tuple(float(s) for s in self.snr_db)
        if not snr or any(b <= a for a, b in zip(snr, snr[1:])):
            raise ValueError("snr_db must be nonempty and strictly increasing")
        object.__setattr__(self, "snr_db", snr)  # how a frozen dataclass stores a normalised field
        if self.snr_unit not in ("ebn0", "esn0"):
            raise ValueError("snr_unit must be 'ebn0' or 'esn0'")
        check_crc(self.crc, self.code)
        if self.snr_unit == "ebn0" and not self.payload_bits:
            raise ValueError("snr_unit 'ebn0' needs payload bits, and this code and CRC leave "
                             "none; give the SNR as Es/N0 with snr_unit 'esn0'")
        for s in snr:  # a leaf sums N LLRs of mean 2/sigma^2, 2x for the noise: n + 1
            try:
                sigma = self.sigma_for(s)
            except (OverflowError, ZeroDivisionError):  # 10^(s/10) overflows or vanishes
                sigma = 0.0 if s > 0 else np.inf
            _channel_mean(self.code.n + 1, sigma, f"the noise sigma of snr_db {s}")

    @property
    def payload_bits(self):
        return self.code.K - (self.crc.width if self.crc else 0)

    @property
    def effective_rate(self):
        # CRC bits ride in unfrozen channels but carry no information
        return self.payload_bits / self.code.N

    def sigma_for(self, snr_db):
        lin = 10.0 ** (snr_db / 10.0)
        rate = 1.0 if self.snr_unit == "esn0" else self.effective_rate
        return float(np.sqrt(1.0 / (2.0 * rate * lin)))

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
    return seed, ((snr_idx & 0xFFFFFF) << 40) | (frame_idx & 0xFFFFFFFFFF)


def _frame_rng(seed, snr_idx, frame_idx):
    key = np.array(_frame_key(seed, snr_idx, frame_idx), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def batch_decoder(name, code, opts, L, crc):
    """The (B, N) LLRs -> (B, N) u_hat call of decoder ``name``; the fast
    decoders classify ``code`` under ``opts`` once, here."""
    check_decoder(name, L)
    fast, call = DECODERS[name]
    plan = classify(code, opts) if fast else None
    return lambda llrs: call(llrs, code, plan, L, crc)


def _gen_frames(cfg, snr_idx, start, count, sigma):
    """Payloads and channel LLRs for frames [start, start+count).

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
    info = cfg.code.info_indices[:cfg.payload_bits]  # the payload's positions
    result = SimResult()
    for snr_idx, snr in enumerate(cfg.snr_db):
        sigma = cfg.sigma_for(snr)
        t0 = time.perf_counter()
        frames = ferr = berr = 0
        while frames < cfg.max_frames and ferr < cfg.min_errors:
            nb = min(cfg.batch, cfg.max_frames - frames)
            payloads, llrs = _gen_frames(cfg, snr_idx, frames, nb, sigma)
            u_hat = decode(llrs)
            bit_err = (u_hat[:, info] != payloads).sum(axis=1)
            frame_err = bit_err > 0
            keep = min(int(np.searchsorted(ferr + np.cumsum(frame_err), cfg.min_errors)) + 1, nb)
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
    unknown = set(raw) - SimConfig.__dataclass_fields__.keys()
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return SimConfig(code=code, crc=crc, **raw)
