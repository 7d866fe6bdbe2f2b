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
        "0528eb45b3a9182e5e0088567cda0b08b3fbf9392f5de5244d72888a82efcad1",
    ("office_two_floor_20.topo", "mm3_ext50.scn", ()):
        "30273a93bd48568e9fadc82df30044e3d0e2f3a2fa0a9341b41d86d687d43b74",
    ("office_two_floor_20.topo", "mm3_legacy50.scn", ()):
        "a31fe422fd334870656f6e678bf0b8ee9b61aa7be1295a78bc151eee36ba9770",
    ("office_two_floor_20.topo", "mm3_seg19.scn", ()):
        "dc144a35e85f3e00fff1573094335af3e5643befab5c68d549699e4972268cbd",
    ("office_two_floor_20.topo", "mm7.scn", ()):
        "269da864821bc64350112a5afc2ccfba78b512f315980bd8024ee38da81f38ae",
    ("office_two_floor_20.topo", "otm_group.scn", ()):
        "78e316d5ce433fb1434fd005e6e8c0a3524260b1b4dbfee1b6847d89e92ea9d0",
    ("office_two_floor_20.topo", "otm_unicast.scn", ()):
        "d58bef5e6d99a4271ae1c4b8c03840b9f678ca153652afffa8d17d1cb645e5e5",
    ("office_single_floor_8.topo", "single_hop_group.scn", ()):
        "da37f69b43dbd2bc93de4416b5e11de8659a8b5585164cdd6d06b8d81774beb4",
    ("office_two_floor_20.topo", "mm3.scn",
     ("interference_rate_per_s=200",)):
        "af2c971ebb824bbc1b3d807240021e08ff80d0d8c57f5e7bbe3a46f020ac1a50",
    ("office_two_floor_20.topo", "mm3.scn",
     ("scan_interval_ms=100", "scan_window_ms=30")):
        "5f95677d2102e41ca5d89744eec1f1a46ce052f3f9018a65b56486259f2f7d26",
    ("office_single_floor_8.topo", "single_hop_group.scn",
     ("power_control=on", "power_control.zeta_th_dbm=-85")):
        "34bc22758b2ba92d1bdbd3814d8834b2455cdbcd08bfacf5d3d4ccdea988dfdc",
    ("office_two_floor_20.topo", "mm3_ext50.scn",
     ("power_control=on", "interference_rate_per_s=200")):
        "b866ef3b244664ae907fa2dd68dcc1bf0fdc612934527309fdef17fcd666d652",
}


MM3 = ("office_two_floor_20.topo", "mm3.scn", ())


# mm3 with relay_fraction=0.5 for 2 iterations on grid_topology_document()
GRID100_DIGEST = "393eeff0ac8febdb410fdd547e547686b625a9c1026351eb7921fc02dd177a1a"


def result_digest(result) -> str:
    payload = repr((result.records, result.relays, result.frames_sent,
                    result.relay_drops))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_digest(topology: str, scenario: str, overrides) -> str:
    cfg = load_scenario(bundled_data_path(scenario).read_text(encoding="utf-8"),
                        [f"iterations={ITERATIONS}", *overrides])
    return result_digest(run_experiment(load_bundled_topology(topology), cfg, SEED))


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
    assert run_digest(*case) == GOLDEN[case]


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
