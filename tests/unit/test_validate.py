"""Unit tests for the runtime invariant validation subsystem."""

import pytest

from repro.exceptions import ConfigurationError, InvariantViolation
from repro.router.allocator import VaGrant, verify_grants
from repro.router.output import OutputPort
from repro.router.vcstate import InputVc, VcState
from repro.routing.requests import Priority
from repro.topology.ports import Direction
from repro.validate import (
    CHECKER_NAMES,
    MUTATION_CHECKERS,
    ValidationConfig,
    validation_from_env,
)


class TestValidationConfig:
    def test_default_enables_everything(self):
        config = ValidationConfig()
        assert config.active
        assert config.enabled_checkers() == CHECKER_NAMES

    def test_only_selects_a_subset(self):
        config = ValidationConfig.only("vc_states")
        assert config.enabled_checkers() == ("vc_states",)
        assert config.active

    def test_only_rejects_unknown_checker(self):
        with pytest.raises(ConfigurationError, match="unknown checkers"):
            ValidationConfig.only("no_such_checker")

    def test_nothing_enabled_is_inactive(self):
        config = ValidationConfig.only()
        assert not config.active
        assert config.enabled_checkers() == ()

    def test_mutation_alone_is_active(self):
        config = ValidationConfig.only("vc_states", mutate="vc_state")
        assert config.active

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown mutation"):
            ValidationConfig(mutate="bogus")

    def test_negative_mutate_cycle_rejected(self):
        with pytest.raises(ConfigurationError, match="mutate_cycle"):
            ValidationConfig(mutate_cycle=-1)

    def test_every_mutation_maps_to_a_checker(self):
        assert set(MUTATION_CHECKERS.values()) <= set(CHECKER_NAMES)


class TestValidationFromEnv:
    """The value forms; unset, empty and a bad value are
    tests/unit/test_settings.py's, as for every variable."""

    @pytest.mark.parametrize("value", ["", "0", "off", "false", "no", "OFF"])
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        assert validation_from_env() is None

    @pytest.mark.parametrize("value", ["1", "on", "true", "yes", "all", "ALL"])
    def test_enabling_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        config = validation_from_env()
        assert config is not None
        assert config.enabled_checkers() == CHECKER_NAMES

    def test_subset_list(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "flit_conservation, vc_states")
        config = validation_from_env()
        assert config.enabled_checkers() == ("flit_conservation", "vc_states")


class TestInvariantViolation:
    def test_context_in_message(self):
        exc = InvariantViolation(
            "credit_accounting",
            "credit count off by one",
            cycle=42,
            node=7,
            direction=Direction.EAST,
            vc=3,
        )
        assert exc.checker == "credit_accounting"
        assert exc.cycle == 42 and exc.node == 7 and exc.vc == 3
        assert "[cycle 42, node 7, port EAST, vc 3]" in str(exc)

    def test_context_optional(self):
        exc = InvariantViolation("flit_conservation", "mismatch")
        assert "[" not in str(exc)


def make_port(direction=Direction.EAST, num_vcs=2):
    return OutputPort(
        direction=direction,
        num_vcs=num_vcs,
        downstream_depth=4,
        fifo_depth=2,
        speedup=1,
        escape_vc=0,
        atomic_realloc=True,
    )


def make_routing_vc(index=0):
    ivc = InputVc(Direction.WEST, index, depth=4)
    ivc.state = VcState.ROUTING
    return ivc


class TestVerifyGrants:
    """Grant verification against hand-corrupted allocation rounds."""

    def test_clean_grants_pass(self):
        outputs = {Direction.EAST: make_port()}
        grants = [
            VaGrant(make_routing_vc(0), Direction.EAST, 0, Priority.LOW),
            VaGrant(make_routing_vc(1), Direction.EAST, 1, Priority.LOW),
        ]
        verify_grants(grants, outputs)

    def test_duplicate_downstream_vc(self):
        outputs = {Direction.EAST: make_port()}
        grants = [
            VaGrant(make_routing_vc(0), Direction.EAST, 1, Priority.LOW),
            VaGrant(make_routing_vc(1), Direction.EAST, 1, Priority.LOW),
        ]
        with pytest.raises(InvariantViolation, match="two input VCs"):
            verify_grants(grants, outputs)

    def test_grant_to_non_routing_input(self):
        outputs = {Direction.EAST: make_port()}
        ivc = make_routing_vc(0)
        ivc.state = VcState.ACTIVE
        grants = [VaGrant(ivc, Direction.EAST, 1, Priority.LOW)]
        with pytest.raises(InvariantViolation, match="expected routing"):
            verify_grants(grants, outputs)

    def test_grant_to_busy_downstream_vc(self):
        port = make_port()
        port.allocate(1, dst=5)
        grants = [VaGrant(make_routing_vc(0), Direction.EAST, 1, Priority.LOW)]
        with pytest.raises(InvariantViolation, match="busy downstream"):
            verify_grants(grants, {Direction.EAST: port})

    def test_violation_carries_checker_name(self):
        port = make_port()
        port.allocate(0, dst=5)
        grants = [VaGrant(make_routing_vc(0), Direction.EAST, 0, Priority.LOW)]
        with pytest.raises(InvariantViolation) as excinfo:
            verify_grants(grants, {Direction.EAST: port})
        assert excinfo.value.checker == "vc_allocation"
        assert excinfo.value.vc == 0


class TestEndpointCaches:
    """The sweep recounts the endpoints' incremental caches: a sink's
    occupancy count and occupied-VC mask (``vc_states``, at the sink's
    LOCAL port) and a source's pending-flit count (``flit_conservation``)
    — each corrupted here on a busy and on an idle endpoint."""

    @staticmethod
    def sweep(checker_name):
        """A congested mid-run 4x4 (sinks drain below link rate, so
        some hold flits) and a sweep running only ``checker_name``."""
        from repro.sim.config import SimulationConfig
        from repro.sim.engine import Simulator
        from repro.validate.checker import InvariantChecker

        config = SimulationConfig(
            width=4, num_vcs=4, injection_rate=0.9, ejection_rate=0.7,
            warmup_cycles=100, measure_cycles=100, drain_cycles=100, seed=3,
        )
        sim = Simulator(config, validation=ValidationConfig())
        for _ in range(30):
            sim.step()
        checker = InvariantChecker(ValidationConfig.only(checker_name))
        checker.generated_flits = sim.validator.generated_flits
        checker.run_checks(sim, sim.cycle)  # clean before the damage
        return sim, checker

    @staticmethod
    def violation(sim, checker):
        with pytest.raises(InvariantViolation) as excinfo:
            checker.run_checks(sim, sim.cycle)
        return excinfo.value

    @pytest.mark.parametrize("busy", [True, False])
    def test_sink_occupancy(self, busy):
        sim, checker = self.sweep("vc_states")
        sink = next(s for s in sim.sinks if bool(s.occupancy) is busy)
        sink.occupancy += 1
        found = self.violation(sim, checker)
        assert (found.checker, found.node, found.direction) == (
            "vc_states", sink.node, Direction.LOCAL,
        )
        assert "sink counts" in str(found)

    @pytest.mark.parametrize("busy", [True, False])
    def test_sink_occupied_mask(self, busy):
        sim, checker = self.sweep("vc_states")
        sink = next(s for s in sim.sinks if bool(s.occupancy) is busy)
        vc = next(v for v in range(sink.num_vcs) if not sink.buffers[v])
        sink._occupied |= 1 << vc  # a drained VC marked occupied
        found = self.violation(sim, checker)
        assert (found.checker, found.node, found.direction, found.vc) == (
            "vc_states", sink.node, Direction.LOCAL, vc,
        )

    @pytest.mark.parametrize("busy", [True, False])
    def test_source_pending_flits(self, busy):
        sim, checker = self.sweep("flit_conservation")
        source = next(s for s in sim.sources if bool(s.pending_flits) is busy)
        source.pending_flits += 1
        # The engine's sum agrees: only the recount from the queue tells.
        sim._source_backlog += 1
        found = self.violation(sim, checker)
        assert (found.checker, found.node) == (
            "flit_conservation", source.node,
        )
        assert "pending flits" in str(found)
