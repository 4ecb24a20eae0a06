"""Print the byte-identity yardsticks of this checkout as one JSON object.

    python3 tools/fingerprint.py

- experiment_csv_sha256 and verify_all_json_sha256: the two digests that
  tests/fingerprint.json pins, of an `experiment` run of
  tests/fingerprint_config.json and of `verify all --json`;
- verify_all_json_md5: the md5 of that same `verify all --json` output;
- quick_charge_digests: for seeds 1 and 20261017, each workload's charge
  digest from `perfbench/run.py --workload all --quick --seed SEED`, run as
  it is.

A change that moves no output byte prints the same object as its parent.
Each command runs in a child process on the sources of the checkout this
file sits in.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 20261017)


def _stdout(args: list, env: dict = None) -> bytes:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True,
                          stdout=subprocess.PIPE).stdout


def _qentropy(*args: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return _stdout(["-m", "qentropy", *args], env)


def _charge_digests(seed: int) -> dict:
    """Each workload's charge digest from one quick benchmark run."""
    out = _stdout([os.path.join("perfbench", "run.py"), "--workload", "all", "--quick",
                   "--seed", str(seed)])
    lines = [json.loads(line) for line in out.decode().splitlines() if line.startswith("{")]
    return {line["workload"]: line["details"]["charges"]["digest"]
            for line in lines if "workload" in line}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        rows = os.path.join(tmp, "rows.csv")
        _qentropy("experiment", "--config", os.path.join(ROOT, "tests", "fingerprint_config.json"),
                  "--out", rows)
        with open(rows, "rb") as fh:
            csv_bytes = fh.read()
    verify = _qentropy("verify", "all", "--json")
    print(json.dumps({
        "experiment_csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
        "verify_all_json_sha256": hashlib.sha256(verify).hexdigest(),
        "verify_all_json_md5": hashlib.md5(verify).hexdigest(),
        "quick_charge_digests": {str(seed): _charge_digests(seed) for seed in SEEDS},
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
