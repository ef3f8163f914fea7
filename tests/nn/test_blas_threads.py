"""One BLAS thread per process: the pin, its exceptions, its bit-identity.

Every case runs in a fresh interpreter so the BLAS libraries start at
their own defaults and the environment (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``) is exactly what the case sets.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.nn.threading import BLAS_THREAD_ENV_VARS, available_cpu_count

SRC = Path(__file__).resolve().parents[2] / "src"

#: Reports ``{"case": [blas_threads() entries]}`` for every case on the
#: last line of stdout.  A script file, not ``-c``: spawned pool workers
#: re-import the main module to unpickle ``Report``.
PIN_SCRIPT = """
import json
import sys

from repro import nn
from repro.parallel.pool import run_tasks


class Report:
    def run(self):
        return nn.blas_threads()


if __name__ == "__main__":
    out = {"import_nn": nn.blas_threads()}
    import repro.attacks  # noqa: F401 - maps scipy's OpenBLAS
    with nn.intra_op_threads(1):
        out["attacks_intra_op"] = nn.blas_threads()
    for context in ("fork", "spawn"):
        out[context] = run_tasks([Report(), Report()], workers=2,
                                 context=context)[0]
    print(json.dumps(out))
"""

#: Trains small_cnn a few steps and runs a compiled width-8 forward;
#: prints the BLAS thread counts it ran at and hex digests of the state
#: bytes and the logits.  ``argv[1]`` = 2 forces every OpenBLAS to two
#: threads (the environment keeps the pin from undoing it).
TRAIN_SCRIPT = """
import ctypes
import hashlib
import json
import sys

import numpy as np

from repro import nn
from repro.data import load_dataset
from repro.models import small_cnn
from repro.nn import threading as nt
from repro.train import TrainConfig, train_model

if int(sys.argv[1]) > 1:
    for path in nt._mapped_openblas():
        setter = nt._symbol(ctypes.CDLL(path), nt._BLAS_SETTERS, None,
                            [ctypes.c_int])
        setter(int(sys.argv[1]))
train, test, profile = load_dataset("unit", seed=0)
nn.manual_seed(7)
model = small_cnn(profile.num_classes, width=16)
train_model(model, train, TrainConfig(epochs=2, lr=3e-3, seed=3))
threads = [lib["num_threads"] for lib in nn.blas_threads()]
state = hashlib.sha256()
for key, value in sorted(model.state_dict().items()):
    state.update(key.encode())
    state.update(np.ascontiguousarray(value).tobytes())
model.eval()
compiled = nn.compile(model, 8, input_shape=train.image_shape)
logits = compiled(nn.Tensor(test.images[:8])).data
print(json.dumps({"threads": threads, "compiled": compiled.compiled,
                  "state": state.hexdigest(),
                  "logits": hashlib.sha256(logits.tobytes()).hexdigest()}))
"""


def _run(tmp_path: Path, source: str, *args: str, env: dict = None) -> dict:
    script = tmp_path / "blas_case.py"
    script.write_text(textwrap.dedent(source))
    environ = {k: v for k, v in os.environ.items()
               if k not in BLAS_THREAD_ENV_VARS}
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    environ.update(env or {})
    done = subprocess.run([sys.executable, str(script), *args], env=environ,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _skip_without_openblas(libraries) -> None:
    if not libraries:
        pytest.skip("no OpenBLAS mapped (another BLAS build)")


def test_every_openblas_runs_one_thread(tmp_path):
    report = _run(tmp_path, PIN_SCRIPT)
    _skip_without_openblas(report["import_nn"])
    # scipy's OpenBLAS maps in after repro.nn; compute start pins it.
    assert len(report["attacks_intra_op"]) >= len(report["import_nn"])
    for case, libraries in report.items():
        assert libraries, case
        for lib in libraries:
            assert lib["num_threads"] == 1, (case, lib)


def test_operator_environment_is_left_alone(tmp_path):
    report = _run(tmp_path, PIN_SCRIPT, env={"OPENBLAS_NUM_THREADS": "2"})
    _skip_without_openblas(report["import_nn"])
    # OpenBLAS caps the environment's count at the cores it sees.
    expected = min(2, available_cpu_count())
    for case, libraries in report.items():
        for lib in libraries:
            assert lib["num_threads"] == expected, (case, lib)


def test_pin_is_bit_identical(tmp_path):
    """The pin only schedules: BLAS at 2 threads and at 1 computes the
    same training state and the same compiled logits, byte for byte."""
    two = _run(tmp_path, TRAIN_SCRIPT, "2", env={"OPENBLAS_NUM_THREADS": "2"})
    one = _run(tmp_path, TRAIN_SCRIPT, "1")
    _skip_without_openblas(one["threads"])
    assert set(two["threads"]) == {2}
    assert set(one["threads"]) == {1}
    assert two["compiled"] and one["compiled"]
    assert two["state"] == one["state"]
    assert two["logits"] == one["logits"]
