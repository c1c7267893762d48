"""Pinned output digests: a refactor must leave every output byte-identical.

The scenario in tests/data is a seeded geant churn run at F=2: joins, leaves,
fail/restore (a few of an already-up link), waits and injects under up to
three down links. The digests were taken before the code they guard was
changed; a change that alters any of these outputs has to say why and re-pin
them.
"""

import hashlib
from pathlib import Path

from ffmcast.cli import main
from ffmcast.harness import load_scenario, run_scenario
from ffmcast.protection import ProtectionConfig
from ffmcast.topology import geant

SCENARIO = Path(__file__).parent / "data" / "geant_f2_churn.json"
ARGS = ["--geant", "--tree", "spt", "-F", "2", "--scenario", str(SCENARIO)]

PINNED = {
    "run/metrics.csv": "69ec514508d18466f6bad3bc254caf2b757d1449d6d347715f8c17af2b0fc807",
    "run/deliveries.csv": "34663d69063ebff8b0a969dfbf5eeaf5829d3edc16b434670bc1f44f47e8fc31",
    "verify/deliveries.csv": "93ac480821872c30eed786613ca1af35c7b298843454d2b9a6f1641373bffa80",
    "verify/stdout": "09c3a16c5c7445d336b63f32a8c9ed788d330c00268d8d8958ee4422b5e5e92c",
    "fabric.dump": "8602639342d27db42d15a279d055d7c60e8e81ccc9add2d168b23c9d5cc104d3",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_outputs_match_pinned_digests(tmp_path, capsys):
    got = {}
    assert main(["run", *ARGS, "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    for name in ("metrics.csv", "deliveries.csv"):
        got[f"run/{name}"] = sha((tmp_path / "run" / name).read_bytes())
    assert main(["verify", *ARGS, "--out", str(tmp_path / "verify")]) == 0
    got["verify/stdout"] = sha(capsys.readouterr().out.encode("utf-8"))
    got["verify/deliveries.csv"] = sha((tmp_path / "verify" / "deliveries.csv").read_bytes())
    result = run_scenario(geant(), load_scenario(SCENARIO), ProtectionConfig("spt", 2))
    got["fabric.dump"] = sha(result.gs.fabric.dump().encode("utf-8"))
    assert got == PINNED
