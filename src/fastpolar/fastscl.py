"""Fast SCL decoding: the SCL walker of ``listdec`` over a pruned decode plan."""

from .codec import _llr_batch, _one_frame
from .listdec import _decode_paths, check_crc, select_output

__all__ = ["fast_scl_decode", "fast_scl_decode_batch", "fast_scl_decode_paths_batch"]


def fast_scl_decode_paths_batch(channel_llrs, plan, L, minsum=True):
    """Batched fast SCL; returns (u (B, P, N), pm (B, P)) sorted by metric."""
    return _decode_paths(_llr_batch(channel_llrs, plan.size, minsum), plan, L)


def fast_scl_decode_batch(channel_llrs, code, plan, L, crc=None, minsum=True):
    """Batched fast SCL decode; returns (u_hat (B, N), pm (B,))."""
    check_crc(crc, code)
    if plan.size != code.N:
        raise ValueError(f"a plan of size {plan.size} cannot decode a code of length {code.N}")
    u, pm = fast_scl_decode_paths_batch(channel_llrs, plan, L, minsum)
    return select_output(u, pm, code, crc)


def fast_scl_decode(channel_llrs, code, plan, L, crc=None, minsum=True):
    """Fast SCL decode of one frame; returns (u_hat, pm)."""
    llrs = _one_frame(channel_llrs, plan.size)
    u_hat, pm = fast_scl_decode_batch(llrs, code, plan, L, crc, minsum)
    return u_hat[0], float(pm[0])
