"""Token-level mixture-of-experts dialogue generation, desk scale.

A shared encoder, k expert decoders, and a chair decoder with a learned
gating network, trained with a joint global-and-local objective, plus the
data, evaluation, and CLI machinery around it. Everything is float64 and
seeded, so runs are bit-reproducible; importing tokmoe pins BLAS to one
thread first, because a threaded GEMM's bits depend on the thread count.
"""

import os

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .config import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    OptimizerConfig,
    RunConfig,
    SchemeConfig,
    VariantConfig,
)
from .data import Corpus, Goal, Sample, SynthSpec, Vocabulary
from .model import ModelParams, SchemeWeights, forward_teacher_forced, greedy_decode, init_model
from .training import LossReport, grad_check, train_epoch, train_run

__version__ = "0.1.0"

__all__ = [
    "BOS_ID",
    "EOS_ID",
    "PAD_ID",
    "UNK_ID",
    "Corpus",
    "Goal",
    "LossReport",
    "ModelParams",
    "OptimizerConfig",
    "RunConfig",
    "Sample",
    "SchemeConfig",
    "SchemeWeights",
    "SynthSpec",
    "VariantConfig",
    "Vocabulary",
    "forward_teacher_forced",
    "grad_check",
    "greedy_decode",
    "init_model",
    "train_epoch",
    "train_run",
    "__version__",
]
