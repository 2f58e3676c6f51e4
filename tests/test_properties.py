"""Unit tests for the property algebra (Tables 3 & 4, Section 6)."""

import pytest
from hypothesis import given, strategies as st

from repro import World
from repro.errors import IllFormedStackError, SynthesisError
from repro.properties import (
    ALL_PROPERTIES,
    P,
    analyze_stack,
    check_well_formed,
    derive_properties,
    profile_for,
    property_description,
    render_table3,
    render_table4,
    stack_cost,
    synthesize_stack,
)
from repro.properties.checker import ordering_matters
from repro.properties.props import parse_property
from repro.properties.registry import PROFILES, TABLE3_ORDER
from repro.properties.synthesis import synthesize_spec

from conftest import join_group


class TestProps:
    def test_sixteen_properties(self):
        assert len(ALL_PROPERTIES) == 16

    def test_descriptions_exist_for_all(self):
        for prop in ALL_PROPERTIES:
            assert property_description(prop)

    def test_parse_property_forms(self):
        assert parse_property("P9") is P.VIRTUALLY_SYNC
        assert parse_property("9") is P.VIRTUALLY_SYNC
        assert parse_property("totally ordered delivery") is P.TOTAL_ORDER
        with pytest.raises(ValueError):
            parse_property("P99")


class TestProfiles:
    def test_table3_layers_all_registered(self):
        for name in TABLE3_ORDER:
            assert profile_for(name) is not None

    def test_com_row(self):
        com = profile_for("COM")
        assert com.requires == {P.BEST_EFFORT}
        assert com.provides == {P.BYTE_REORDER_DETECT, P.SOURCE_ADDRESS}

    def test_inherits_is_complement(self):
        nak = profile_for("NAK")
        assert P.LARGE_MESSAGES in nak.inherits
        assert P.FIFO_UNICAST not in nak.inherits  # provided, not inherited
        assert P.BEST_EFFORT not in nak.inherits  # destroyed (upgraded)

    def test_prio_destroys_ordering(self):
        prio = profile_for("PRIO")
        assert P.FIFO_MULTICAST in prio.destroys
        assert P.PRIORITIZED in prio.provides


class TestChecker:
    def test_section7_derivation_exact(self):
        """S7: the paper's Section 7 walkthrough, verbatim, and the
        derived properties holding when the stack runs over ATM: one
        total order (P6) including a 5000-byte cast (P12), and one
        agreed view after a crash (P15)."""
        spec = "TOTAL:MBRSHIP:FRAG:NAK:COM"
        props = derive_properties(spec, network="atm")
        assert props == {P(n) for n in (3, 4, 6, 8, 9, 10, 11, 12, 15)}

        world = World(seed=4, network="atm", trace=False)
        handles = join_group(world, ["a", "b", "c"], spec, settle=0.4)
        handles["a"].cast(b"L" * 5000)
        for i in range(5):
            handles["b"].cast(f"b{i}".encode())
            handles["c"].cast(f"c{i}".encode())
        world.run(4.0)
        world.crash("c")
        world.run(6.0)
        a_log = [m.data for m in handles["a"].delivery_log]
        assert a_log == [m.data for m in handles["b"].delivery_log]
        assert len(a_log) == 11 and b"L" * 5000 in a_log
        assert handles["a"].view == handles["b"].view
        assert handles["a"].view.size == 2

    def test_well_formed_example_stack(self):
        analysis = check_well_formed("TOTAL:MBRSHIP:FRAG:NAK:COM", "atm")
        assert analysis.well_formed

    def test_frag_without_fifo_is_ill_formed(self):
        analysis = analyze_stack("FRAG:COM", "atm")
        assert not analysis.well_formed
        assert analysis.missing["FRAG"] == {P.FIFO_UNICAST, P.FIFO_MULTICAST}

    def test_ill_formed_raises_with_details(self):
        with pytest.raises(IllFormedStackError) as exc:
            check_well_formed("MBRSHIP:COM", "atm")
        assert "MBRSHIP" in exc.value.missing

    def test_total_needs_virtual_synchrony(self):
        analysis = analyze_stack("TOTAL:FRAG:NAK:COM", "atm")
        assert P.VIRTUALLY_SYNC in analysis.missing["TOTAL"]

    def test_prio_above_nak_kills_fifo(self):
        props = derive_properties("PRIO:NAK:COM", "atm")
        assert P.PRIORITIZED in props
        assert P.FIFO_MULTICAST not in props

    def test_decomposed_membership_equals_fused_on_p9(self):
        fused = derive_properties("MBRSHIP:FRAG:NAK:COM", "atm")
        decomposed = derive_properties("FLUSH:VSS:BMS:FRAG:NAK:COM", "atm")
        for prop in (P.VIRTUALLY_SYNC, P.CONSISTENT_VIEWS):
            assert prop in fused
            assert prop in decomposed

    def test_explain_renders(self):
        text = check_well_formed("NAK:COM", "atm").explain()
        assert "network provides" in text and "NAK" in text

    def test_ordering_matters_frag_vs_nak(self):
        matters, why = ordering_matters("FRAG", "NAK", {P.BEST_EFFORT,
                                                        P.BYTE_REORDER_DETECT,
                                                        P.SOURCE_ADDRESS})
        assert matters  # FRAG needs FIFO below: only NAK-under-FRAG works
        assert "FRAG:NAK" in why

    def test_tables_render(self):
        """T3/T4: both tables regenerate from the live registry, with
        the paper's fifteen Table 3 rows and sixteen properties."""
        t3 = render_table3()
        assert "MBRSHIP" in t3 and "TOTAL" in t3
        assert len(TABLE3_ORDER) == 15
        assert [line.split("|")[0].strip() for line in t3.splitlines()[2:]] == list(
            TABLE3_ORDER
        )
        assert profile_for("MBRSHIP").provides == {
            P.VIRTUALLY_SEMI_SYNC, P.VIRTUALLY_SYNC, P.CONSISTENT_VIEWS,
        }
        assert profile_for("TOTAL").provides == {P.TOTAL_ORDER}
        t4 = render_table4()
        assert "virtually synchronous delivery" in t4
        assert all(f"P{n}" in t4 for n in range(1, 17))


class TestSynthesis:
    def test_minimal_stack_for_fifo(self):
        stack = synthesize_stack({P.FIFO_MULTICAST}, network="atm")
        assert stack == ["NAK", "COM"]

    def test_fifo_unicast_prefers_cheaper_nnak(self):
        stack = synthesize_stack({P.FIFO_UNICAST}, network="atm")
        assert stack == ["NNAK", "COM"]

    def test_virtual_synchrony_stack_is_well_formed(self):
        spec = synthesize_spec({P.VIRTUALLY_SYNC, P.TOTAL_ORDER}, network="atm")
        assert check_well_formed(spec, "atm").provides >= {
            P.VIRTUALLY_SYNC,
            P.TOTAL_ORDER,
        }

    def test_decomposed_path_when_fused_excluded(self):
        candidates = ["COM", "NAK", "NFRAG", "FRAG", "BMS", "VSS", "FLUSH"]
        stack = synthesize_stack(
            {P.VIRTUALLY_SYNC}, network="atm", candidates=candidates
        )
        assert "FLUSH" in stack and "BMS" in stack and "MBRSHIP" not in stack

    def test_already_satisfied_needs_no_layers(self):
        assert synthesize_stack({P.BEST_EFFORT}, network="atm") == []

    def test_impossible_requirement_raises(self):
        with pytest.raises(SynthesisError):
            synthesize_stack({P.TOTAL_ORDER}, network="atm", candidates=["COM", "NAK"])

    def test_minimality_against_cost(self):
        stack = synthesize_stack({P.FIFO_MULTICAST, P.LARGE_MESSAGES}, "atm")
        # NFRAG (1.5) under NAK beats FRAG (1.5) above NAK only on order;
        # either way cost must not exceed the obvious hand-built stack.
        assert stack_cost(stack) <= stack_cost(["FRAG", "NAK", "COM"])

    @given(
        subset=st.sets(
            st.sampled_from(
                [P.FIFO_UNICAST, P.FIFO_MULTICAST, P.LARGE_MESSAGES,
                 P.CONSISTENT_VIEWS, P.VIRTUALLY_SYNC, P.TOTAL_ORDER,
                 P.STABILITY_INFO, P.SOURCE_ADDRESS]
            ),
            max_size=4,
        )
    )
    def test_property_synthesis_results_are_well_formed(self, subset):
        try:
            stack = synthesize_stack(subset, network="atm")
        except SynthesisError:
            return
        if stack:
            analysis = check_well_formed(stack, "atm")
            assert subset <= analysis.provides


class TestAllRegisteredLayersHaveProfiles:
    def test_every_stackable_layer_has_a_profile(self):
        from repro.core.stack import known_layers

        for name in known_layers():
            assert name in PROFILES, f"layer {name} missing a Table 3 profile"
