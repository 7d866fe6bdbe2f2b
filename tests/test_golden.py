"""Golden record digests: short runs whose every output bit is pinned.

A change that is meant to keep behaviour (a refactor, a faster medium) must
leave each digest as it is.  A change that alters results on purpose updates
the digest it moves and says why in CHANGES.md.  The override cases pin the
reception branches the bundled scenarios leave unused: background noise,
a duty-cycled scanner, power control's RSSI feed and AUX eligibility.
The 100-node grid case pins relay-subset acceptance and disjoint pair
draws at a size where they dominate set-up.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meshsim
from meshsim.runner import run_experiment
from meshsim.scenario import load_scenario
from meshsim.topology import bundled_data_path, load_bundled_topology, load_topology

SEED = 1
ITERATIONS = 10

# (topology, scenario, overrides) -> sha256 of the run's outputs
GOLDEN = {
    ("office_two_floor_20.topo", "mm3.scn", ()):
        "b8da7a4abe605a383fe9a1af1d0a226f16a441f98e3a623b0a47fc190c6a7846",
    ("office_two_floor_20.topo", "mm3_ext50.scn", ()):
        "30273a93bd48568e9fadc82df30044e3d0e2f3a2fa0a9341b41d86d687d43b74",
    ("office_two_floor_20.topo", "mm3_legacy50.scn", ()):
        "60344b44c94a6df5520fdc201fc0aa215ec6e765d8795940af201386d76717ef",
    ("office_two_floor_20.topo", "mm3_seg19.scn", ()):
        "b1a66430b1f6f0333db22977f09acfb063176635e5f5904ee8b1192ae3900933",
    ("office_two_floor_20.topo", "mm7.scn", ()):
        "f67b4b1a754d2e84023fa6249faeae275fab728f4a5733ce65599e8106b7291b",
    ("office_two_floor_20.topo", "otm_group.scn", ()):
        "f32a993e1a1f04f62b58c58801b6321219148a9bb05bb9f71195027dd0081f7a",
    ("office_two_floor_20.topo", "otm_unicast.scn", ()):
        "d408de1800e848a04f0a948e42d67357786ab2721fa253563bca388f49f3331c",
    ("office_single_floor_8.topo", "single_hop_group.scn", ()):
        "f090bc402e330549e4ff9e7d6f69a3dd754b53c19a0caf9935189273ae907fbd",
    ("office_two_floor_20.topo", "mm3.scn",
     ("interference_rate_per_s=200",)):
        "0fd2bbc92b509caec9383d90174fd23b347a59219fee71b66f8fbd9b455379e4",
    ("office_two_floor_20.topo", "mm3.scn",
     ("scan_interval_ms=100", "scan_window_ms=30")):
        "069fcd143ecad99a8709550b7177007e7c18c7e2eac73f2beb36325c6c73f58f",
    ("office_single_floor_8.topo", "single_hop_group.scn",
     ("power_control=on", "power_control.zeta_th_dbm=-85")):
        "114a9bdf0c0ebea0478f3d9dfb43328e45ebfb71adc5759da0ba4f9448af8d7d",
    ("office_two_floor_20.topo", "mm3_ext50.scn",
     ("power_control=on", "interference_rate_per_s=200")):
        "4bfb26599e8b0031ba8a671682b46ee1bf9b02eb0a06e07b2c2b9a3545dda06c",
}


MM3 = ("office_two_floor_20.topo", "mm3.scn", ())

# mean_tx_power_dbm, which the digest leaves out, as the exact float: its
# sum is built one frame at a time, so a change to how frames are counted
# must not move even the last bit
MEAN_TX_POWER_DBM = {
    MM3: 0.0,
    ("office_single_floor_8.topo", "single_hop_group.scn",
     ("power_control=on", "power_control.zeta_th_dbm=-85")): -2.677809332524265,
    ("office_two_floor_20.topo", "mm3_ext50.scn",
     ("power_control=on", "interference_rate_per_s=200")): 0.0,
}


# mm3 with relay_fraction=0.5 for 2 iterations on grid_topology_document()
GRID100_DIGEST = "393eeff0ac8febdb410fdd547e547686b625a9c1026351eb7921fc02dd177a1a"


def result_digest(result) -> str:
    payload = repr((result.records, result.relays, result.frames_sent,
                    result.relay_drops))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_case(topology: str, scenario: str, overrides):
    cfg = load_scenario(bundled_data_path(scenario).read_text(encoding="utf-8"),
                        [f"iterations={ITERATIONS}", *overrides])
    return run_experiment(load_bundled_topology(topology), cfg, SEED)


def run_digest(topology: str, scenario: str, overrides) -> str:
    return result_digest(run_case(topology, scenario, overrides))


def grid_topology_document() -> str:
    """2 floors x 5 rows x 10 columns at 14 m pitch, ids g001..g100."""
    lines = ["meshsim-topology v1"]
    for n in range(100):
        floor, row, col = n // 50, n // 10 % 5, n % 10
        lines.append(f"node g{n + 1:03d} {floor} {14.0 * col:g} {14.0 * row:g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", list(GOLDEN),
                         ids=lambda c: "+".join((c[1].removesuffix(".scn"), *c[2])))
def test_golden_digest(case):
    result = run_case(*case)
    assert result_digest(result) == GOLDEN[case]
    if case in MEAN_TX_POWER_DBM:
        assert result.mean_tx_power_dbm == MEAN_TX_POWER_DBM[case]


def test_golden_digest_grid100_half_relays():
    cfg = load_scenario(bundled_data_path("mm3.scn").read_text(encoding="utf-8"),
                        ["iterations=2", "relay_fraction=0.5"])
    result = run_experiment(load_topology(grid_topology_document()), cfg, SEED)
    assert result_digest(result) == GRID100_DIGEST


def test_golden_digest_under_any_hash_seed():
    # str hashing is salted per process, so set and dict-keyed state must
    # never decide event order; run mm3 in fresh interpreters to check.
    # One of them runs under -O, which strips assert statements, so no
    # result may depend on one.
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import test_golden as g; "
            "print(g.run_digest(*g.MM3))")
    paths = [str(Path(meshsim.__file__).resolve().parent.parent),
             str(Path(__file__).resolve().parent)]
    for hash_seed, flags in (("0", ()), ("4242", ("-O",))):
        out = subprocess.run([sys.executable, *flags, "-c", code, *paths],
                             env={**os.environ, "PYTHONHASHSEED": hash_seed},
                             capture_output=True, text=True, timeout=300, check=True)
        assert out.stdout.strip() == GOLDEN[MM3], (hash_seed, flags)
