"""The demos' stdout, pinned: each demo runs as the CI runs it, and the
sha256 of what it prints must not move."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import sirank

ROOT = Path(__file__).resolve().parents[1]

# sha256 under numpy 2.4.6 of each demo's stdout: any change to a trained,
# scored or printed value moves them
DEMO_STDOUT = {
    "01_scale_invariance.py": "0294c6e7fa3454e4ce10a5ba260f3f9035271d11b89213c5def8ada8e20518cc",
    "02_losses_tour.py": "b4abed432394325b62df62dc930b10376a71df5022ac523287211dc1a7dc0d4f",
    "03_softrank_smoothing.py": "5232fe987bee563f5e0d550667d67e4495af46994c5dea9f1d63c10f4d952d5e",
    "04_train_and_evaluate.py": "7415f75d496ab163850d38e8fd01322d14b93a48254535324420ea42298c4207",
}


def test_demos_print_the_pinned_bytes(tmp_path):
    src = Path(sirank.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    got = {}
    for demo in sorted(p.name for p in (ROOT / "demos").glob("*.py")):
        run = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                              "-W", "error::DeprecationWarning", str(ROOT / "demos" / demo)],
                             cwd=tmp_path, env=env, capture_output=True, check=True, timeout=600)
        got[demo] = hashlib.sha256(run.stdout).hexdigest()
    assert got == DEMO_STDOUT
