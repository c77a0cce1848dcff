"""§4.4 — implementation-cost table.

Regenerates the paper's storage-cost argument: Footprint needs only a
per-VC owner register, per-VC state bits, and an idle-VC counter per
port.  Expected numbers: 132 bits/port for the 8x8 mesh with 16 VCs —
roughly one extra 128-bit flit-buffer entry, as the paper argues.
"""

from repro.harness.experiments import cost_table
from repro.harness.reporting import report_cost


def test_cost_model(report):
    models = cost_table()
    report(report_cost(models))

    headline = next(
        m for m in models if m.num_nodes == 64 and m.num_vcs == 16
    )
    assert headline.total_bits_per_port == 132
    assert 0.9 <= headline.overhead_vs_flit_buffer(128) <= 1.1

    # Cost grows gently: O(V log N) per port.
    big = next(m for m in models if m.num_nodes == 256)
    assert big.total_bits_per_port < 2 * headline.total_bits_per_port
