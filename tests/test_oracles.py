"""Closed-form model oracles: results that follow from the model's rules alone.

Golden digests pin what the code does; these pin what it must do, so they
stay fixed when a change re-pins a digest on purpose.
"""

import pytest

from meshsim.metrics import DELIVERED
from meshsim.radio import PHY_1M, airtime_us
from meshsim.stack import INTER_CHANNEL_GAP_US
from test_stack import SCAN_US, World, quiet_params


@pytest.mark.parametrize("k,latency_us", [(0, 168), (1, 736), (2, 1304)])
def test_first_event_latency(k, latency_us):
    # without shadowing a 60 dB link always delivers.  Published at the
    # start of scan interval k, the first event airs 37, 38, 39 while the
    # scanner listens on channel 37 + k, so frame k, the first one heard,
    # ends k * (airtime + gap) after the first frame's end
    airtime = airtime_us(11, PHY_1M)
    assert latency_us == airtime + k * (airtime + INTER_CHANNEL_GAP_US)
    w = World(["a", "b"], 60.0, sigma=0.0, cfg=quiet_params())
    w.publish_at(k * SCAN_US, "a", w.addr["b"], bytes(11), 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == DELIVERED
    assert rec.delivery_time_us - rec.send_time_us == latency_us
