"""A process loads only the layer modules its stacks name.

Section 10's "pay only for what you use", at import time: building a
stack imports the modules its spec names (``core.stack``'s name ->
module table), and the package barrels resolve their exports on first
use.  Each check runs in a fresh interpreter, because this one has long
since loaded the whole library.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro import World, known_layers
from repro.core.message import Message
from repro.net.address import EndpointAddress, GroupAddress

SRC = str(Path(repro.__file__).resolve().parents[1])
CHURN_STACK = "MBRSHIP:FRAG:NAK:CHKSUM:COM"
LAZY_PACKAGES = [
    "repro", "repro.layers", "repro.membership", "repro.net", "repro.obs",
    "repro.runtime", "repro.sim", "repro.store", "repro.toolkit",
]


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; return what it printed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def loaded_under(prefix: str) -> str:
    """Child-side expression: the loaded ``repro`` modules below ``prefix``."""
    return (
        f"sorted(m[len({prefix!r}):] for m in sys.modules "
        f"if m.startswith({prefix!r}))"
    )


class TestStackLoadsWhatItNames:
    def test_churn_stack_loads_its_five_layer_modules(self):
        loaded = run_fresh(f"""
            import json, sys
            from repro import World
            world = World(seed=1)
            world.process("a").endpoint().join("g", stack={CHURN_STACK!r})
            print(json.dumps({loaded_under("repro.layers.")}))
        """)
        assert loaded == ["chksum", "com", "frag", "mbrship", "nak"]

    def test_bare_import_loads_no_plane_beyond_the_core(self):
        loaded = run_fresh(f"""
            import json, sys
            import repro
            print(json.dumps({loaded_under("repro.")}))
        """)
        unwanted = {"chaos", "properties", "flow", "store.inspect", "obs.report"}
        assert not [m for m in loaded if m.startswith("layers.")]
        assert not [m for m in loaded if m.split(".")[0] in unwanted or m in unwanted]

    def test_layer_module_table_matches_what_the_library_registers(self):
        # A layer added without a row in the table fails here.
        table = run_fresh("""
            import json
            from repro.core import stack
            stack.known_layers()
            print(json.dumps({
                "table": stack._LAYER_MODULES,
                "registered": {name: cls.__module__
                               for name, cls in stack._LAYER_CLASSES.items()},
            }))
        """)
        assert table["table"] == table["registered"]

    def test_unknown_layer_error_lists_the_whole_library(self):
        message = run_fresh("""
            import json
            from repro.core.stack import layer_class
            from repro.errors import StackError
            try:
                layer_class("NOPE")
            except StackError as exc:
                print(json.dumps(str(exc)))
        """)
        assert message.startswith("unknown layer 'NOPE'")
        assert "PINWHEEL" in message and "XFER" in message

    def test_every_lazy_export_resolves(self):
        missing = run_fresh(f"""
            import importlib, json
            missing = []
            for name in {LAZY_PACKAGES!r}:
                package = importlib.import_module(name)
                for export in package.__all__:
                    try:
                        getattr(package, export)
                    except AttributeError:
                        missing.append(name + "." + export)
            print(json.dumps(missing))
        """)
        assert missing == []


class TestUnstackedHeaders:
    def test_header_of_an_unstacked_layer_is_undecodable(self):
        """A datagram carrying a TOTAL header, received by a process that
        never stacked TOTAL, is dropped and counted, like any other
        header no codec knows."""
        known_layers()
        message = Message(b"payload")
        message.push_header("TOTAL", {"kind": 0, "gseq": 1, "epoch": 1,
                                      "holder": EndpointAddress("a", 1), "gen": 1})
        message.push_header("NAK", {"kind": 0, "era": 1, "seq": 1})
        message.push_header("COM", {"group": GroupAddress("g"),
                                    "source": EndpointAddress("a", 1), "kind": 0})
        datagram = World(seed=1).registry.marshal(message, "aligned")
        result = run_fresh(f"""
            import json, sys
            from repro import World
            from repro.net.packet import Packet
            world = World(seed=1)
            endpoint = world.process("b").endpoint()
            endpoint.join("g", stack="NAK:COM")
            endpoint._on_packet(Packet(endpoint.address, endpoint.address,
                                       bytes.fromhex({datagram.hex()!r})))
            print(json.dumps({{"undecodable": endpoint.undecodable_packets,
                              "total_loaded": "repro.layers.total" in sys.modules}}))
        """)
        assert result == {"undecodable": 1, "total_loaded": False}
