"""Helper Python processes that never outlive the benchmark.

The benchmark runs untimed side work (the recording pass of
sweep-replay, reference digests for seeds not in
``oracle_digests.json``) in plain subprocesses rather than a
``multiprocessing`` pool: a pool's ``spawn`` start method launches a
resource-tracker process that is never waited for and outlives the
run.  Here every child is waited for, and killed first if the parent
leaves early.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile
from typing import List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_json(script: str, argvs: Sequence[Sequence[str]],
             work_dir: Optional[pathlib.Path] = None) -> List[object]:
    """Run ``python3 perfbench/<script> <argv> OUT`` for every argv at once.

    Each child writes one JSON document to the file ``OUT`` appended to
    its arguments; returns the documents in the order of ``argvs``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    outs = []
    procs: List[subprocess.Popen] = []
    try:
        for argv in argvs:
            fd, out = tempfile.mkstemp(prefix="child-", suffix=".json", dir=work_dir)
            os.close(fd)
            outs.append(pathlib.Path(out))
            cmd = [sys.executable, str(HERE / script), *argv, out]
            procs.append(subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env))
        for proc in procs:
            if proc.wait() != 0:
                raise RuntimeError(f"{' '.join(proc.args[1:])} exited with {proc.returncode}")
        return [json.loads(out.read_text(encoding="utf-8")) for out in outs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for out in outs:
            out.unlink(missing_ok=True)
