"""Viterbi decoding substrate and the multiresolution Viterbi MetaCore.

Implements the full simulation chain of the paper's primary driver:
convolutional encoding, BPSK/AWGN transmission, hard / fixed / adaptive
quantization, classic Viterbi decoding, the new multiresolution Viterbi
decoding algorithm (Sec. 3.3), and Monte-Carlo BER measurement.
"""

from repro.viterbi.polynomials import (
    BEST_RATE_HALF,
    BEST_RATE_THIRD,
    default_polynomials,
    parse_octal,
    to_octal,
)
from repro.viterbi.encoder import ConvolutionalEncoder
from repro.viterbi.trellis import Trellis, trellis_for
from repro.viterbi.channels import (
    AWGNChannel,
    BinarySymmetricChannel,
    RayleighFadingChannel,
    bpsk_modulate,
    es_n0_db_to_linear,
    es_n0_linear_to_db,
    noise_sigma,
)
from repro.viterbi.quantize import (
    AdaptiveQuantizer,
    FixedQuantizer,
    HardQuantizer,
    Quantizer,
    make_quantizer,
)
from repro.viterbi.diagram import encoder_diagram, trellis_section_diagram
from repro.viterbi.metrics import BranchMetricTable, shared_metric_table
from repro.viterbi.decoder import ViterbiDecoder
from repro.viterbi.multires import (
    NORMALIZATION_METHODS,
    MultiresolutionViterbiDecoder,
)
from repro.viterbi.puncture import (
    PuncturePattern,
    STANDARD_PATTERNS,
    standard_pattern,
)
from repro.viterbi.ber import BERPoint, BERSimulator, BERSweep, DEFAULT_SEED
from repro.viterbi.tailbiting import decode_tailbiting, encode_tailbiting
from repro.viterbi.bounds import (
    DistanceSpectrum,
    distance_spectrum,
    estimate_ber,
    pairwise_error_hard,
    pairwise_error_multires,
    pairwise_error_soft,
)
from repro.viterbi.metacore import (
    ViterbiMetaCore,
    ViterbiMetacoreEvaluator,
    ViterbiSpec,
    build_decoder,
    describe_point,
    instance_params,
    normalize_viterbi_point,
    traceback_depth,
    viterbi_design_space,
)

__all__ = [
    "BinarySymmetricChannel",
    "RayleighFadingChannel",
    "decode_tailbiting",
    "encode_tailbiting",
    "encoder_diagram",
    "trellis_section_diagram",
    "trellis_for",
    "shared_metric_table",
    "PuncturePattern",
    "STANDARD_PATTERNS",
    "standard_pattern",
    "DistanceSpectrum",
    "distance_spectrum",
    "estimate_ber",
    "pairwise_error_hard",
    "pairwise_error_multires",
    "pairwise_error_soft",
    "ViterbiMetaCore",
    "ViterbiMetacoreEvaluator",
    "ViterbiSpec",
    "build_decoder",
    "describe_point",
    "instance_params",
    "normalize_viterbi_point",
    "traceback_depth",
    "viterbi_design_space",
    "BEST_RATE_HALF",
    "BEST_RATE_THIRD",
    "default_polynomials",
    "parse_octal",
    "to_octal",
    "ConvolutionalEncoder",
    "Trellis",
    "AWGNChannel",
    "bpsk_modulate",
    "es_n0_db_to_linear",
    "es_n0_linear_to_db",
    "noise_sigma",
    "AdaptiveQuantizer",
    "FixedQuantizer",
    "HardQuantizer",
    "Quantizer",
    "make_quantizer",
    "BranchMetricTable",
    "ViterbiDecoder",
    "MultiresolutionViterbiDecoder",
    "NORMALIZATION_METHODS",
    "BERPoint",
    "BERSimulator",
    "BERSweep",
    "DEFAULT_SEED",
]
