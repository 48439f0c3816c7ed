"""RL103: checkpoint reachability proof (positive and negative)."""

from repro.lint.program.rules.checkpoint_reach import CheckpointReachRule

from tests.unit.lint_program.helpers import findings_for, lint_project, write_project


def test_positive_reachable_class_with_lambda_attr(tmp_path):
    write_project(tmp_path, {
        "sim/system.py": (
            "from sim.parts import Pipeline\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.pipeline = Pipeline()\n"
        ),
        "sim/parts.py": (
            "class Pipeline:\n"
            "    def __init__(self):\n"
            "        self.flush = lambda: None\n"
        ),
    })
    report, engine = lint_project(tmp_path)
    findings = findings_for(report, "RL103")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.severity.label == "error"
    assert finding.path == "sim/parts.py"
    assert "System.pipeline → Pipeline" in finding.message
    assert "lambda" in finding.message
    assert "sim.parts:Pipeline" in engine.last_program_model.reachable


def test_positive_reachability_through_class_table_and_container(tmp_path):
    write_project(tmp_path, {
        "sim/system.py": (
            "from sim.schemes import SCHEMES\n"
            "class System:\n"
            "    def __init__(self, name):\n"
            "        self.hmc = SCHEMES[name]()\n"
        ),
        "sim/schemes.py": (
            "from sim.queue import Queue\n"
            "class BaseHmc:\n"
            "    def __init__(self):\n"
            "        self.queues = []\n"
            "        self.queues.append(Queue())\n"
            "class FastHmc(BaseHmc):\n"
            "    pass\n"
            "SCHEMES = {'fast': FastHmc}\n"
        ),
        "sim/queue.py": (
            "import threading\n"
            "class Queue:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
        ),
    })
    report, engine = lint_project(tmp_path)
    findings = findings_for(report, "RL103")
    assert len(findings) == 1
    assert findings[0].path == "sim/queue.py"
    assert "threading.Lock" in findings[0].message
    model = engine.last_program_model
    assert "sim.schemes:FastHmc" in model.reachable
    assert "sim.queue:Queue" in model.reachable


def test_negative_getstate_terminates_traversal(tmp_path):
    write_project(tmp_path, {
        "sim/system.py": (
            "from sim.parts import Pipeline\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.pipeline = Pipeline()\n"
        ),
        "sim/parts.py": (
            "from sim.oracle import Oracle\n"
            "class Pipeline:\n"
            "    def __init__(self):\n"
            "        self.flush = lambda: None\n"
            "        self.oracle = Oracle()\n"
            "    def __getstate__(self):\n"
            "        return {}\n"
        ),
        # Only Pipeline's own encoding is pickled, never what it holds.
        "sim/oracle.py": (
            "class Oracle:\n"
            "    def __init__(self):\n"
            "        self.cb = lambda: None\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    assert findings_for(report, "RL103") == []
    assert report.exit_code == 0


def test_negative_codec_registered_class_is_trusted(tmp_path):
    write_project(tmp_path, {
        "sim/system.py": (
            "from sim.parts import Pipeline\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.pipeline = Pipeline()\n"
        ),
        "sim/parts.py": (
            "from repro.snapshot import register_codec\n"
            "class Pipeline:\n"
            "    def __init__(self):\n"
            "        self.flush = lambda: None\n"
            "register_codec(Pipeline, None, None)\n"
        ),
    })
    report, _ = lint_project(tmp_path)
    assert findings_for(report, "RL103") == []


def test_no_root_class_means_silence(tmp_path):
    write_project(tmp_path, {
        "sim/parts.py": (
            "class Widget:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
        ),
    })
    report, engine = lint_project(tmp_path)
    assert findings_for(report, "RL103") == []
    assert engine.last_program_model.root_symbols == []


def test_positive_reachable_class_with_live_socket_and_selector(tmp_path):
    # The sweepd heartbeat plumbing makes it tempting to hand a class in
    # the pickled System graph a socket or selector; the whole-program
    # proof must flag both with a reachability witness.
    write_project(tmp_path, {
        "sim/system.py": (
            "from sim.reporter import Reporter\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.reporter = Reporter()\n"
        ),
        "sim/reporter.py": (
            "import selectors\n"
            "import socket\n"
            "class Reporter:\n"
            "    def __init__(self):\n"
            "        self.sock = socket.create_connection(('h', 1))\n"
            "        self.selector = selectors.DefaultSelector()\n"
        ),
    })
    report, engine = lint_project(tmp_path)
    findings = findings_for(report, "RL103")
    assert len(findings) == 2
    messages = " | ".join(finding.message for finding in findings)
    assert "live socket" in messages
    assert "I/O selector" in messages
    assert all("System.reporter → Reporter" in f.message for f in findings)
    assert "sim.reporter:Reporter" in engine.last_program_model.reachable


# -- snapshot-unsafe value shapes -------------------------------------------
# Each fixture's System holds the class under test, so reachability is
# given and the verdict turns on the classifier alone.


def _findings(tmp_path, files):
    write_project(tmp_path, files)
    report, _ = lint_project(tmp_path, rules=[CheckpointReachRule()])
    return findings_for(report, "RL103")


def _system_holding(*symbols):
    """A ``System`` holding one instance per ``"module:Class"`` symbol."""
    pairs = [symbol.split(":") for symbol in symbols]
    imports = "".join(f"from {module} import {name}\n" for module, name in pairs)
    fields = "".join(
        f"        self.part{i} = {name}()\n" for i, (_, name) in enumerate(pairs)
    )
    return imports + "class System:\n    def __init__(self):\n" + fields


def test_socket_module_constructor_is_flagged(tmp_path):
    findings = _findings(tmp_path, {
        "sim/system.py": _system_holding("sim.reporter:Reporter"),
        "sim/reporter.py": (
            "import socket\n"
            "class Reporter:\n"
            "    def __init__(self):\n"
            "        self.sock = socket.socket()\n"
        ),
    })
    assert len(findings) == 1
    assert "live socket" in findings[0].message
    assert "Reporter.__init__" in findings[0].message


def test_create_connection_and_friends_are_flagged(tmp_path):
    findings = _findings(tmp_path, {
        "sim/system.py": _system_holding("sim.links:Links"),
        "sim/links.py": (
            "import socket\n"
            "class Links:\n"
            "    def connect(self):\n"
            "        self.conn = socket.create_connection(('h', 1))\n"
            "    def pair(self):\n"
            "        self.left = socket.socketpair()\n"
            "    def adopt(self, fd):\n"
            "        self.raw = socket.fromfd(fd, 2, 1)\n"
        ),
    })
    assert len(findings) == 3
    assert all("live socket" in finding.message for finding in findings)


def test_bare_socket_import_idiom_is_flagged(tmp_path):
    findings = _findings(tmp_path, {
        "sim/system.py": _system_holding("sim.reporter:Reporter"),
        "sim/reporter.py": (
            "from socket import socket\n"
            "class Reporter:\n"
            "    def __init__(self):\n"
            "        self.sock = socket()\n"
        ),
    })
    assert len(findings) == 1
    assert "live socket" in findings[0].message


def test_selector_objects_are_flagged(tmp_path):
    findings = _findings(tmp_path, {
        "sim/system.py": _system_holding("sim.loop:Loop", "sim.loop2:Loop2"),
        "sim/loop.py": (
            "import selectors\n"
            "class Loop:\n"
            "    def __init__(self):\n"
            "        self.selector = selectors.DefaultSelector()\n"
        ),
        "sim/loop2.py": (
            "from selectors import EpollSelector\n"
            "class Loop2:\n"
            "    def __init__(self):\n"
            "        self.selector = EpollSelector()\n"
        ),
    })
    assert len(findings) == 2
    assert all("I/O selector" in finding.message for finding in findings)


def test_snapshot_detach_exempts_the_class(tmp_path):
    findings = _findings(tmp_path, {
        "sim/system.py": _system_holding("sim.reporter:Reporter"),
        "sim/reporter.py": (
            "import socket\n"
            "class Reporter:\n"
            "    def __init__(self):\n"
            "        self.sock = socket.socket()\n"
            "    def snapshot_detach(self):\n"
            "        self.sock = None\n"
            "    def snapshot_reattach(self):\n"
            "        pass\n"
        ),
    })
    assert findings == []


def test_snapshot_detach_does_not_stop_the_traversal(tmp_path):
    # The hook strips the manager's own listeners; the objects it holds
    # are still pickled with the System and must be checked.
    write_project(tmp_path, {
        "sim/system.py": (
            "from check.manager import Manager\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.checker = Manager()\n"
        ),
        "check/manager.py": (
            "from typing import List, Optional\n"
            "from check.oracle import Oracle\n"
            "class Probe:\n"
            "    pass\n"
            "class LeakyProbe(Probe):\n"
            "    def __init__(self):\n"
            "        self.cb = lambda: None\n"
            "class Manager:\n"
            "    def __init__(self):\n"
            "        self.listener = lambda: None\n"
            "        self.probes: List[Probe] = []\n"
            "        self.oracle: Optional[Oracle] = None\n"
            "    def snapshot_detach(self):\n"
            "        self.listener = None\n"
        ),
        "check/oracle.py": (
            "class Oracle:\n"
            "    def __init__(self):\n"
            "        self.cb = lambda: None\n"
        ),
    })
    report, engine = lint_project(tmp_path, rules=[CheckpointReachRule()])
    reachable = engine.last_program_model.reachable
    assert reachable["check.oracle:Oracle"] == "System.checker → Manager.oracle → Oracle"
    # A declared type admits its subclasses.
    assert reachable["check.manager:LeakyProbe"] == (
        "System.checker → Manager.probes → LeakyProbe"
    )
    findings = findings_for(report, "RL103")
    assert sorted((f.path, f.line) for f in findings) == [
        ("check/manager.py", 7),
        ("check/oracle.py", 3),
    ]


def test_out_of_scope_packages_are_not_checked(tmp_path):
    # The service itself (sweepd) legitimately owns sockets and
    # selectors; it is never part of a pickled System graph.
    findings = _findings(tmp_path, {
        "sim/system.py": (
            "class System:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
        ),
        "sweepd/server.py": (
            "import selectors\n"
            "class Server:\n"
            "    def __init__(self):\n"
            "        self.selector = selectors.DefaultSelector()\n"
        ),
    })
    assert findings == []


def test_plain_data_is_not_flagged(tmp_path):
    findings = _findings(tmp_path, {
        "sim/system.py": _system_holding("sim.counters:Counters"),
        "sim/counters.py": (
            "class Counters:\n"
            "    def __init__(self):\n"
            "        self.hits = 0\n"
            "        self.names = ['a', 'b']\n"
        ),
    })
    assert findings == []


# -- reachability edge kinds --------------------------------------------------


def test_private_classes_in_keyed_stores_and_annotations_are_reached(tmp_path):
    write_project(tmp_path, {
        "sim/system.py": (
            "from typing import Dict, List\n"
            "class _Entry:\n"
            "    def __init__(self):\n"
            "        self.cb = lambda: None\n"
            "class _Node:\n"
            "    def __init__(self):\n"
            "        self.children: Dict[int, '_Node'] = {}\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.entries = {}\n"
            "        self.nodes: List[_Node] = []\n"
            "    def hold(self, key):\n"
            "        self.entries[key] = _Entry()\n"
        ),
    })
    report, engine = lint_project(tmp_path, rules=[CheckpointReachRule()])
    reachable = engine.last_program_model.reachable
    assert reachable["sim.system:_Entry"] == "System.entries → _Entry"
    assert reachable["sim.system:_Node"] == "System.nodes → _Node"
    findings = findings_for(report, "RL103")
    assert [f.line for f in findings] == [4]


def test_constructor_argument_stored_from_init_param_is_reached(tmp_path):
    write_project(tmp_path, {
        "sim/system.py": (
            "from sim.table import Table\n"
            "from sim.cache import Cache\n"
            "class System:\n"
            "    def __init__(self, fast):\n"
            "        cache = Cache() if fast else None\n"
            "        self.table = Table(1, cache=cache)\n"
            "        self.other = Table(2, Cache())\n"
        ),
        "sim/table.py": (
            "from typing import Any, Optional\n"
            "class Table:\n"
            "    def __init__(self, pid, cache: Optional[Any] = None):\n"
            "        self._cache = cache if cache is not None else {}\n"
        ),
        "sim/cache.py": (
            "import threading\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
        ),
    })
    report, engine = lint_project(tmp_path, rules=[CheckpointReachRule()])
    model = engine.last_program_model
    assert model.reachable["sim.cache:Cache"] == "System.table → Table._cache → Cache"
    assert len(model.param_values[("sim.table:Table", "cache")]) == 2
    findings = findings_for(report, "RL103")
    assert len(findings) == 1
    assert "threading.Lock" in findings[0].message


def test_enum_classes_are_reached_and_pickle_by_name(tmp_path):
    write_project(tmp_path, {
        "sim/system.py": (
            "import enum\n"
            "from typing import Dict\n"
            "class Kind(enum.Enum):\n"
            "    A = 'a'\n"
            "    def __init__(self, value):\n"
            "        self.cb = lambda: None\n"
            "class System:\n"
            "    def __init__(self):\n"
            "        self.counts: Dict[Kind, int] = {}\n"
        ),
    })
    report, engine = lint_project(tmp_path, rules=[CheckpointReachRule()])
    assert "sim.system:Kind" in engine.last_program_model.reachable
    assert findings_for(report, "RL103") == []
