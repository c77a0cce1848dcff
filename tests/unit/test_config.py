"""Unit tests for SimulationConfig validation and helpers."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.sim.config import ROUTING, TRAFFIC, SimulationConfig
from repro.telemetry.config import TelemetryConfig


class TestDefaults:
    def test_paper_defaults(self):
        config = SimulationConfig()
        assert config.width == 8
        assert config.height == 8
        assert config.num_vcs == 10
        assert config.vc_buffer_depth == 4
        assert config.internal_speedup == 2
        assert config.packet_size == 1
        assert config.routing == "footprint"

    def test_height_defaults_to_width(self):
        assert SimulationConfig(width=4).height == 4
        assert SimulationConfig(width=4, height=6).height == 6

    def test_num_nodes(self):
        assert SimulationConfig(width=4).num_nodes == 16
        assert SimulationConfig(width=4, height=2).num_nodes == 8


class TestValidation:
    def test_mesh_too_small(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(width=1)

    def test_zero_vcs(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_vcs=0)

    @pytest.mark.parametrize("routing", ["dbar", "footprint"])
    def test_escape_algorithms_need_two_vcs(self, routing):
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_vcs=1, routing=routing)
        SimulationConfig(num_vcs=2, routing=routing)  # must not raise

    def test_dbar_fine_needs_what_dbar_needs(self):
        """The router reserves VC0 for dbar-fine as for dbar, so 1 VC on
        a mesh or 2 on a torus leave it no adaptive VC."""
        with pytest.raises(
            ConfigurationError,
            match=r"^routing 'dbar-fine' uses Duato escape channels and "
            r"needs >= 2 VCs, got 1$",
        ):
            SimulationConfig(width=4, num_vcs=1, routing="dbar-fine")
        with pytest.raises(
            ConfigurationError,
            match=r"^routing 'dbar-fine' on a torus needs two dateline "
            r"escape VCs plus at least one adaptive VC \(>= 3 VCs\), "
            r"got 2$",
        ):
            SimulationConfig(
                width=4, topology="torus", num_vcs=2, routing="dbar-fine"
            )
        SimulationConfig(width=4, num_vcs=2, routing="dbar-fine")
        SimulationConfig(
            width=4, topology="torus", num_vcs=3, routing="dbar-fine"
        )

    def test_dor_allows_single_vc(self):
        SimulationConfig(num_vcs=1, routing="dor")

    def test_injection_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(injection_rate=-0.1)
        with pytest.raises(ConfigurationError):
            SimulationConfig(injection_rate=1.5)

    def test_hotspot_rate_bounds(self):
        for rate in (-0.1, 7.0):
            with pytest.raises(
                ConfigurationError, match=r"^hotspot rate must be in \[0, 1\]$"
            ):
                SimulationConfig(traffic="hotspot", hotspot_rate=rate)
        SimulationConfig(hotspot_rate=1.0)  # the bounds are inclusive

    def test_background_rate_bounds(self):
        for rate in (-2.0, 1.5):
            with pytest.raises(
                ConfigurationError,
                match=r"^background rate must be in \[0, 1\]$",
            ):
                SimulationConfig(traffic="hotspot", background_rate=rate)
        SimulationConfig(background_rate=0.0)

    def test_packet_size_range(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(packet_size_range=(0, 6))
        with pytest.raises(ConfigurationError):
            SimulationConfig(packet_size_range=(6, 1))
        SimulationConfig(packet_size_range=(1, 6))

    def test_output_buffer_fits_speedup(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(internal_speedup=4, output_buffer_depth=2)

    def test_ejection_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(ejection_rate=0.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(ejection_rate=1.5)

    def test_footprint_vc_limit(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(footprint_vc_limit=0)
        SimulationConfig(footprint_vc_limit=2)
        SimulationConfig(footprint_vc_limit=None)

    def test_negative_cycles(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(warmup_cycles=-1)

    @pytest.mark.parametrize("field, value", [
        ("width", 4.0),
        ("seed", True),
        ("warmup_cycles", 10.5),
        ("height", "4"),
        ("footprint_vc_limit", 2.0),
        ("packet_size_range", [1, 2.5]),
        ("packet_size_range", [False, 3]),
        ("traffic", 3),
        ("routing", None),
        ("topology", ["mesh"]),
    ])
    def test_from_dict_rejects_a_field_of_another_type(self, field, value):
        data = {**SimulationConfig().to_dict(), field: value}
        with pytest.raises(ConfigurationError, match=f"^{field}"):
            SimulationConfig.from_dict(data)

    def test_from_dict_allows_null_where_the_default_is(self):
        data = {
            **SimulationConfig(width=4).to_dict(),
            "height": None,
            "footprint_vc_limit": None,
        }
        assert SimulationConfig.from_dict(data) == SimulationConfig(width=4)


class TestHelpers:
    def test_with_overrides_and_revalidates(self):
        config = SimulationConfig(width=4)
        other = config.with_(injection_rate=0.5)
        assert other.injection_rate == 0.5
        assert other.width == 4
        assert config.injection_rate != 0.5  # original untouched
        with pytest.raises(ConfigurationError):
            config.with_(injection_rate=2.0)

    def test_with_rejects_a_name_that_is_not_a_field(self):
        with pytest.raises(TypeError, match="mesh_width"):
            SimulationConfig().with_(mesh_width=4)

    @settings(max_examples=150, deadline=None)
    @given(
        st.fixed_dictionaries({}, optional={
            "width": st.integers(1, 6),
            "height": st.one_of(st.none(), st.integers(1, 6)),
            "num_vcs": st.integers(0, 4),
            "routing": st.sampled_from(("footprint", "dbar", "dor", "xy?")),
            "topology": st.sampled_from(("mesh", "torus")),
            "injection_rate": st.floats(-0.5, 1.5),
            "packet_size_range": st.one_of(
                st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3))
            ),
            "telemetry": st.sampled_from((None, "on")),
        })
    )
    def test_with_is_replace(self, overrides):
        """``with_`` copies the fields instead of rebuilding them through
        ``__init__``: the same config, or the same error, as
        ``dataclasses.replace``."""
        base = SimulationConfig(width=4, num_vcs=4)
        if overrides.get("telemetry") == "on":
            overrides["telemetry"] = TelemetryConfig(sample_every=10)

        def outcome(make):
            try:
                return make(base, **overrides)
            except (ConfigurationError, TypeError, ValueError) as exc:
                return type(exc), str(exc)

        got = outcome(SimulationConfig.with_)
        assert got == outcome(dataclasses.replace)
        if isinstance(got, SimulationConfig):
            assert got.to_dict() == dataclasses.replace(
                base, **overrides
            ).to_dict()

    def test_routing_needs_escape(self):
        assert SimulationConfig(routing="footprint").routing_needs_escape
        assert SimulationConfig(routing="dbar+xordet").routing_needs_escape
        assert SimulationConfig(routing="dbar-fine").routing_needs_escape
        assert not SimulationConfig(routing="dor").routing_needs_escape
        assert not SimulationConfig(routing="oddeven").routing_needs_escape

    @pytest.mark.parametrize(
        "traffic, field",
        [
            ("hotspot", "hotspot_rate"),
            ("uniform", "injection_rate"),
            ("transpose", "injection_rate"),
            ("trace", "injection_rate"),
        ],
    )
    def test_a_swept_load_sets_the_traffics_own_field(self, traffic, field):
        trace = [] if traffic == "trace" else None
        config = SimulationConfig(traffic=traffic, trace=trace)
        assert config.load_field == field
        loaded = config.at_load(0.42)
        assert getattr(loaded, field) == 0.42
        assert loaded == config.with_(**{field: 0.42})
        with pytest.raises(ConfigurationError, match="must be in"):
            config.at_load(7.0)

    def test_mean_packet_size(self):
        assert SimulationConfig(packet_size=3).mean_packet_size == 3.0
        assert (
            SimulationConfig(packet_size_range=(1, 6)).mean_packet_size == 3.5
        )

    def test_max_cycles(self):
        config = SimulationConfig(
            warmup_cycles=10, measure_cycles=20, drain_cycles=30
        )
        assert config.max_cycles == 60

    def test_describe_mentions_key_facts(self):
        text = SimulationConfig(routing="dbar", traffic="shuffle").describe()
        assert "dbar" in text
        assert "shuffle" in text
        assert "8x8" in text


#: Configs refused when built: the fields (one config per dict) and the
#: message.  The first eight ids are the tests these checks left behind
#: when they moved from the registry, the traffic factory and the
#: patterns to construction, with the same inputs.
REFUSED = {
    "unknown_algorithm": ([dict(routing="warp-speed")], "unknown routing"),
    "unknown_overlay": (
        [dict(routing="dor+banana"), dict(routing="dor+xordet+xordet")],
        "unknown routing",
    ),
    "transpose_requires_square": (
        [dict(width=4, height=2, traffic="transpose")], "a square grid"
    ),
    "power_of_two_required_for_bit_patterns": (
        [dict(width=6, traffic=name) for name in ("shuffle", "bitcomp", "bitrev")],
        "a power-of-two node count",
    ),
    "unknown_pattern": ([dict(traffic="zigzag")], "unknown traffic"),
    "rejects_unknown_pattern": ([dict(width=8, traffic="nope")], "unknown traffic"),
    "validates_pattern_against_mesh_up_front": (
        [dict(width=4, height=2, traffic="transpose")], "got 4x2"
    ),
    "trace_traffic_requires_trace": (
        [dict(width=4, num_vcs=2, traffic="trace")], "needs trace events"
    ),
    "bogus_names": (
        [dict(routing="bogus"), dict(traffic="bogus"), dict(topology="bogus")],
        "unknown (routing|traffic|topology) 'bogus'; available: ",
    ),
    "unlisted_overlay": ([dict(routing="dbar-fine+xordet")], "unknown routing"),
    "names_are_exact": (
        [dict(routing="FOOTPRINT"), dict(routing=" dor "),
         dict(traffic="Hotspot"), dict(topology="Torus")],
        "unknown",
    ),
}


class TestNames:
    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refused_when_built(self, case):
        configs, message = REFUSED[case]
        for fields in configs:
            with pytest.raises(ConfigurationError, match=message):
                SimulationConfig(**fields)

    def test_the_message_lists_the_table(self):
        with pytest.raises(ConfigurationError) as info:
            SimulationConfig(traffic="Hotspot")
        assert str(info.value) == (
            "unknown traffic 'Hotspot'; available: bitcomp, bitrev, "
            "neighbor, shuffle, tornado, transpose, uniform, hotspot, trace"
        )

    def test_every_listed_name_builds(self):
        for routing in ROUTING:
            SimulationConfig(width=4, routing=routing)
        for traffic in TRAFFIC:
            trace = [] if traffic == "trace" else None
            SimulationConfig(width=4, traffic=traffic, trace=trace)


class TestTopology:
    def test_mesh_is_the_default(self):
        assert SimulationConfig().topology == "mesh"

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown topology"):
            SimulationConfig(topology="hypercube")

    def test_torus_rejects_mesh_only_routing(self):
        with pytest.raises(ConfigurationError, match="mesh-only"):
            SimulationConfig(topology="torus", routing="oddeven")
        with pytest.raises(ConfigurationError, match="mesh-only"):
            SimulationConfig(topology="torus", routing="footprint+xordet")

    def test_torus_vc_minimums(self):
        # Dateline deadlock avoidance needs one VC per class...
        with pytest.raises(ConfigurationError):
            SimulationConfig(topology="torus", routing="dor", num_vcs=1)
        SimulationConfig(topology="torus", routing="dor", num_vcs=2)
        # ...and the Duato-style escape algorithms need an adaptive VC
        # on top of the two escape classes.
        with pytest.raises(ConfigurationError):
            SimulationConfig(topology="torus", routing="footprint", num_vcs=2)
        SimulationConfig(topology="torus", routing="footprint", num_vcs=3)

    def test_make_topology(self):
        from repro.topology.mesh import Mesh2D
        from repro.topology.torus import Torus2D

        assert isinstance(SimulationConfig().make_topology(), Mesh2D)
        torus = SimulationConfig(
            width=4, height=6, topology="torus"
        ).make_topology()
        assert isinstance(torus, Torus2D)
        assert (torus.width, torus.height) == (4, 6)

    def test_mesh_payload_has_no_topology_key(self):
        # Payloads written before the topology field existed carry no
        # such key; they still load, as the mesh.
        data = SimulationConfig().to_dict()
        assert SimulationConfig.from_dict(data) == SimulationConfig()
        del data["topology"]
        assert SimulationConfig.from_dict(data) == SimulationConfig()

    def test_torus_round_trips(self):
        config = SimulationConfig(width=4, topology="torus", num_vcs=4)
        data = config.to_dict()
        assert data["topology"] == "torus"
        assert SimulationConfig.from_dict(data) == config

    def test_describe_mentions_topology(self):
        assert "torus" in SimulationConfig(
            topology="torus", num_vcs=4
        ).describe()
