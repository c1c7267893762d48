"""Pinned output digests: a refactor must leave every output byte-identical.

The scenario in tests/data is a seeded geant churn run at F=2: joins, leaves,
fail/restore (a few of an already-up link), waits and injects under up to
three down links. The digests were taken before the code they guard was
changed; a change that alters any of these outputs has to say why and re-pin
them.
"""

import hashlib
import json
import random
from pathlib import Path

from ffmcast.cli import main
from ffmcast.dataplane import SwitchFabric
from ffmcast.harness import load_scenario, run_scenario
from ffmcast.protection import GroupState, ProtectionConfig, protect_join, protect_leave
from ffmcast.topology import geant

SCENARIO = Path(__file__).parent / "data" / "geant_f2_churn.json"
ARGS = ["--geant", "--tree", "spt", "-F", "2", "--scenario", str(SCENARIO)]

PINNED = {
    "run/metrics.csv": "69ec514508d18466f6bad3bc254caf2b757d1449d6d347715f8c17af2b0fc807",
    "run/deliveries.csv": "34663d69063ebff8b0a969dfbf5eeaf5829d3edc16b434670bc1f44f47e8fc31",
    "verify/deliveries.csv": "93ac480821872c30eed786613ca1af35c7b298843454d2b9a6f1641373bffa80",
    "verify/stdout": "ed06bba0f5fbcc4456de46f59e49d6a17404275bd4211df915caba8a719d4fe0",
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


def shared_geant_fabric():
    """Four groups on one geant fabric after a seeded run of 160 joins and leaves."""
    rng = random.Random(2017)
    net = geant()
    fabric = SwitchFabric(net)
    config = ProtectionConfig("spt", 2)
    groups = [GroupState(net, src, config, fabric=fabric) for src in rng.sample(net.nodes, 4)]
    for _ in range(160):
        gs = rng.choice(groups)
        if gs.subscribers and rng.random() < 0.35:
            protect_leave(gs, rng.choice(sorted(gs.subscribers)))
        else:
            protect_join(gs, rng.choice([v for v in net.nodes if v != gs.source]))
    return fabric


SHARED_PINNED = {
    "shared/fabric.dump": "73e4f76bf9c548b6506076c3be6ff4c80ac2acdb6fe6a5d5577e451d49f5c44c",
    "shared/flow_counts": "4c7a4a795583276cfed66a1ced62d9f2514138a7743a5894e0e9cbdcc4dfc527",
    "shared/group_counts": "05e39a2eeac9596f2fdd60b132f85655ece972d92aedfdd7b7176b651d351962",
}


def test_shared_fabric_matches_pinned_digests():
    # several groups' flows and base drops interleave in the dump's sort
    fabric = shared_geant_fabric()
    got = {
        "shared/fabric.dump": sha(fabric.dump().encode("utf-8")),
        "shared/flow_counts": sha(json.dumps(fabric.flow_counts(), sort_keys=True).encode("utf-8")),
        "shared/group_counts": sha(json.dumps(fabric.group_counts(), sort_keys=True).encode("utf-8")),
    }
    assert got == SHARED_PINNED
