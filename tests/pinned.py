"""Bit-pinned results, each taken in a fresh interpreter under one CPU profile.

tokmoe is float64 and seeded, so one host gives the same bits on every run. But numpy
picks its SIMD loops, and OpenBLAS its GEMM kernels, by the CPU they find: an AVX-512
host gives other bits than an AVX2-only one. ``PROFILE`` holds both at their AVX2
(x86-64-v3) choice on either kind of x86 host. numpy and OpenBLAS read it only when
they load, so this script sets it first, checks that it took effect, and prints one
function's result as JSON:

    PYTHONPATH=src python tests/pinned.py <function> '<JSON keyword arguments>'

``PYTHONPATH=src python tests/pinned.py profile '{}'`` prints the profile alone, as
``[["X86_V3"], "Haswell"]``, or exits non-zero naming what numpy and OpenBLAS run instead.
It needs the numpy wheel, whose bundled OpenBLAS reports the core it runs.

``PYTHONPATH=src python tests/pinned.py pins '{}'`` takes every digest that
``TestTrainedRunPinned`` and ``test_result_bits_pinned`` pin, in their parametrize order, beside
the digests pinned now: a change meant to alter the arithmetic re-pins from its output.
"""

import os

PROFILE = {"OPENBLAS_CORETYPE": "Haswell", "NPY_ENABLE_CPU_FEATURES": "X86_V3"}
os.environ.update(PROFILE)

import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from tokmoe.cli import main, run_gradcheck  # tokmoe pins BLAS to one thread before numpy loads

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def profile() -> tuple[list[str], str]:
    """The SIMD targets numpy dispatches to in this process, and the core OpenBLAS runs."""
    openblas = ctypes.CDLL(str(next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))))
    corename = openblas.scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return [f for f in __cpu_dispatch__ if __cpu_features__[f]], corename().decode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def trained_run(corpus: str, out: str, flags: list[str]) -> list[str]:
    """A 2-epoch ``train --valid`` at hidden 8 and embedding 6 (V3 keeps its preset hidden
    100): the digests of ``model.ckpt``, of the manifest's history, of ``evaluate --json``
    and of ``generate --trace``."""
    corpus_dir, out_dir = Path(corpus), Path(out)
    # A step size at which two epochs already move the scores and the generated tokens.
    (out_dir / "run.cfg").write_text("alpha = 0.1\n")
    sizes = ["--embedding-size", "6"] + ([] if "V3" in flags else ["--hidden-size", "8"])
    run = out_dir / "run"
    stdout_of(["train", "--config", str(out_dir / "run.cfg"), "--train", str(corpus_dir / "train.jsonl"),
               "--valid", str(corpus_dir / "valid.jsonl"), "--out", str(run), "--epochs", "2", "--seed", "5",
               "--batch-size", "8", "--max-gen-len", "12", *sizes, *flags])
    checkpoint = str(run / "model.ckpt")
    evaluated = stdout_of(["evaluate", "--checkpoint", checkpoint, "--corpus", str(corpus_dir / "test.jsonl"),
                           "--max-len", "12", "--json"])
    context = " ".join(json.loads((corpus_dir / "test.jsonl").read_text().splitlines()[0])["context"])
    generated = stdout_of(["generate", "--checkpoint", checkpoint, "--context", context, "--max-len", "12", "--trace"])
    history = json.loads((run / "manifest.json").read_text())["history"]
    return [digest((run / "model.ckpt").read_bytes()), digest(json.dumps(history, sort_keys=True).encode()),
            digest(evaluated.encode()), digest(generated.encode())]


def gradcheck(**kwargs) -> str:
    """The digest of every error's value and type, as numpy 2 prints them."""
    return digest(repr(run_gradcheck(**kwargs)).encode())


def pins() -> list[list]:
    """One row per pinned case, in parametrize order: its function, its id, the digests
    ``tests/test_cli.py`` pins and the digests taken now."""
    import test_cli  # beside this script, so importable when it runs

    def cases(test):
        mark = test.pytestmark[0]
        return zip(mark.kwargs["ids"], mark.args[1])

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "pin-corpus"
        stdout_of(["synth", "--out", str(corpus), *test_cli.PIN_SYNTH])
        for case, (flags, digests) in cases(test_cli.TestTrainedRunPinned.test_outputs_pinned):
            (out := Path(tmp) / case).mkdir()
            rows.append(["trained_run", case, list(digests), trained_run(str(corpus), str(out), flags)])
    for case, (kwargs, pinned_digest) in cases(test_cli.TestGradcheckCommand.test_result_bits_pinned):
        rows.append(["gradcheck", case, pinned_digest, gradcheck(**kwargs)])
    return rows


if __name__ == "__main__":
    taken = profile()
    if taken != (["X86_V3"], "Haswell"):
        sys.exit(f"the CPU profile {PROFILE} did not take effect: numpy dispatches {taken[0]}, OpenBLAS runs {taken[1]}")
    print(json.dumps({"profile": profile, "trained_run": trained_run, "gradcheck": gradcheck, "pins": pins}[sys.argv[1]](**json.loads(sys.argv[2]))))
