"""The runtime dependency set is what the runners actually import.

CI installs ``numpy pytest hypothesis`` and nothing else, so importing
the stateful and serve runners and the program compiler must pull in no
third-party package besides numpy.  The check runs in a fresh
interpreter so that modules the test session already loaded do not
count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
before = set(sys.modules)
import repro.stateful.runner, repro.serve.runner, repro.program
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"repro"})))
"""


def test_runners_import_no_third_party_module_but_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    third_party = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(third_party) <= {"numpy"}, third_party
