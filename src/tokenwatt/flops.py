"""Analytic inference FLOPs for dense decoder-only models, and the idealized
energy floor implied by nameplate hardware specs.

Conventions: a multiply-accumulate counts as 2 FLOPs; decode reuses the KV
cache, so each generated token pays attention over its running context only.
Softmax, normalization, and activation FLOPs are omitted (sub-1% for
realistic d_ff).
"""

from __future__ import annotations

from ._frozen import frozen
from .binning import BinnedWorkload
from .core import Energy, HardwareSpec, ModelConfig, ValidationError


@frozen
class FlopsBreakdown:
    """Forward-pass FLOPs split into the parallel prompt pass and generation."""

    prefill_flops: int
    decode_flops: int

    def __post_init__(self) -> None:
        if self.prefill_flops < 0 or self.decode_flops < 0:
            raise ValidationError("FLOP counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.prefill_flops + self.decode_flops


def request_flops(model: ModelConfig, input_len: int, output_len: int) -> FlopsBreakdown:
    """FLOPs to process one request of `input_len` prompt tokens and
    `output_len` generated tokens.

    Per token: 2*P through all weight matrices (P = parameter count), plus
    4*L*d per context position for attention scores and value mixing. Prompt
    token k sees a causal context of k; generated token t sees input_len + t.
    """
    if input_len < 1:
        raise ValidationError(f"input_len must be >= 1, got {input_len}")
    if output_len < 0:
        raise ValidationError(f"output_len must be >= 0, got {output_len}")
    p = model.param_count
    attn_per_ctx = 4 * model.n_layers * model.d_model
    i, o = input_len, output_len
    prefill = 2 * p * i + attn_per_ctx * (i * (i + 1) // 2)
    decode = 2 * p * o + attn_per_ctx * (o * i + o * (o + 1) // 2)
    return FlopsBreakdown(prefill_flops=prefill, decode_flops=decode)


def joules_per_flop(hw: HardwareSpec) -> float:
    """Energy floor per FLOP when drawing TDP at peak rated throughput."""
    return hw.tdp / hw.peak_flops


def idealized_energy(hw: HardwareSpec, model: ModelConfig, workload: BinnedWorkload) -> Energy:
    """Lower-bound energy for a binned workload at nameplate efficiency.

    FLOPs are evaluated at the bin caps, not true request lengths, matching
    how the measured side charges whole bins. Excluded requests contribute
    nothing.
    """
    return Energy(joules_per_flop(hw) * workload_flops(model, workload).total)


def workload_flops(model: ModelConfig, workload: BinnedWorkload) -> FlopsBreakdown:
    """Aggregate prefill/decode FLOPs over a binned workload, at bin caps."""
    prefill = 0
    decode = 0
    for b, count in workload.sorted_counts():
        fb = request_flops(model, b.input_cap, b.output_cap)
        prefill += count * fb.prefill_flops
        decode += count * fb.decode_flops
    return FlopsBreakdown(prefill_flops=prefill, decode_flops=decode)
