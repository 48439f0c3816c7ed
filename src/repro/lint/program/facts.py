"""Per-file facts: the distilled summary of one source file.

The whole-program analyzer parses each file once and extracts *facts*:
the per-file summaries that the cross-module phases (symbol resolution,
call-graph propagation, rule evaluation) consume.  Facts are plain
dataclasses; nothing downstream of extraction looks at an AST.

Everything in here is *local* to one file: imports are recorded as raw
dotted targets, call sites as unresolved reference descriptors, taint
summaries in terms of parameter indices and callee references.  Turning
those local facts into whole-program conclusions is the job of
:mod:`repro.lint.program.model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: An unresolved reference to a called/constructed symbol, e.g.
#: ``("local", "Core")``, ``("self", "reset")``, or
#: ``("dotted", "np", "zeros")``.  Resolution happens in the model phase.
Ref = Tuple[str, ...]

@dataclass
class KeySite:
    """One stats-key record or read site."""

    key: str
    line: int
    col: int
    #: "literal" | "table" | "var" | "pattern" (f-string prefix) |
    #: "dynamic" (a record key no static resolution covers, in a
    #: simulation package; ``key`` holds the key expression's source).
    kind: str


@dataclass
class SinkSite:
    """A taint sink inside one function: a stats record or sim-state write."""

    #: "stats" (argument of a stats record call) or "state"
    #: (``self.<attr> = ...`` in a simulation-package class).
    kind: str
    detail: str
    line: int
    col: int


@dataclass
class TaintFlow:
    """One locally-observed taint flow, in summary form.

    ``src`` describes where the taint came from: a concrete source
    (``("source", "time.time")``) , a parameter (``("param", "2")``), or a
    call whose return value may be tainted (``("call",) + callee ref``).
    ``dst`` describes where it went: a sink (``("sink", kind, detail)``)
    with the site position, a call argument (``("call_arg", index) +
    callee ref``), or the function's return (``("return",)``).
    """

    src: Ref
    dst: Ref
    line: int
    col: int
    #: Human-readable description of the tainted value's origin.
    origin: str


@dataclass
class RawWrite:
    """One raw persistent-write call site (RL105)."""

    #: :func:`~repro.lint.program.extract.classify_raw_write`'s
    #: description, e.g. ``open(..., "w")``.
    detail: str
    line: int
    col: int


@dataclass
class CtorArg:
    """A class instance passed into a constructor call: ``C(p=X(...))``.

    Paired with ``("param", name)`` attribute edges of ``C`` (an
    ``__init__`` parameter stored on ``self``), this lets checkpoint
    reachability follow objects a caller builds and hands in.
    """

    #: The constructor reference (``C`` above).
    callee: Ref
    #: The keyword name, or the positional index as a decimal string.
    param: str
    #: The class reference of the passed value (``X`` above).
    value: Ref


@dataclass
class FunctionFacts:
    """Call sites plus the intraprocedural taint summary of one function."""

    qualname: str
    line: int
    #: Call sites: (ref, line, col) for the call-graph builder.
    calls: List[Tuple[Ref, int, int]] = field(default_factory=list)
    #: Locally-observed taint flows (see :class:`TaintFlow`).
    flows: List[TaintFlow] = field(default_factory=list)
    #: True when the ``# repro-hot`` marker sits above the definition.
    hot: bool = False
    #: Constructor-shaped references this function may return.
    returns_new: List[Ref] = field(default_factory=list)
    #: The declared return annotation's class-name leaves, if any.
    return_annotation: List[str] = field(default_factory=list)
    #: Raw persistent-write sites, nested functions included (RL105).
    raw_writes: List[RawWrite] = field(default_factory=list)
    #: Project-class instances passed to constructor calls (RL103).
    ctor_args: List[CtorArg] = field(default_factory=list)


@dataclass
class AttrEdge:
    """One reason a class attribute may hold an instance of another class."""

    attr: str
    #: The unresolved class reference (constructor call, container
    #: element, class-table value, factory method name,
    #: ``("declared", name)`` for an annotation leaf — the class or any
    #: subclass — or ``("param", name)`` for an ``__init__`` parameter
    #: stored on self).
    target: Ref
    line: int


@dataclass
class UnsafeAssign:
    """A snapshot-unsafe ``self.<attr> = ...`` assignment (RL103)."""

    method: str
    problem: str
    line: int
    col: int


@dataclass
class ClassFacts:
    """Attribute graph edges plus snapshot-safety facts for one class."""

    name: str
    line: int
    bases: List[Ref] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    #: Why instances of other classes may be reachable through attributes.
    attr_edges: List[AttrEdge] = field(default_factory=list)
    #: Snapshot-unsafe assignments (empty for safe classes).
    unsafe: List[UnsafeAssign] = field(default_factory=list)
    #: Defines __getstate__/__reduce__/__reduce_ex__, or is an ``enum``
    #: class (members pickle by name): it owns its snapshot encoding, so
    #: checkpoint reachability stops here.
    owns_encoding: bool = False
    #: Defines ``snapshot_detach``: the hooks it strips around a
    #: checkpoint write are not flagged, but the rest of its state is
    #: pickled, so checkpoint reachability goes on through it.
    detaches: bool = False
    #: Positional ``__init__`` parameter names, ``self`` excluded.
    init_params: List[str] = field(default_factory=list)


@dataclass
class ArrayFact:
    """One numpy array creation bound to an attribute or local name."""

    #: "ClassName.attr" for ``self.attr = np.zeros(...)``, else the name.
    target: str
    dtype: str
    #: True when the dtype was spelled out (dtype=np.int64), False when it
    #: is numpy's silent float64 default.
    explicit: bool
    line: int
    col: int


@dataclass
class NumpyEvent:
    """A suspicious hot-kernel operation inside a ``# repro-hot`` function.

    Despite the name (historical: the first three kinds were numpy
    shapes), this also carries ``odict_probe`` events — map-probe method
    calls whose operand may be an ``OrderedDict`` reference model; the
    RL104 check confirms against the project-wide ``odict_attrs`` union.
    """

    #: "astype" | "alloc" | "scalar_loop" | "odict_probe"
    kind: str
    function: str
    #: The array/mapping operand's attribute/local name ("" when unknown).
    target: str
    #: astype: the destination dtype; alloc: the allocating callable;
    #: odict_probe: the probing method (".popitem()", ".get()", ...).
    detail: str
    line: int
    col: int


@dataclass
class ModuleFacts:
    """Everything the whole-program phases need to know about one file."""

    relpath: str
    module: str
    #: Local name -> dotted import target ("Core" -> "repro.sim.cpu.Core").
    imports: Dict[str, str] = field(default_factory=dict)
    #: Module-level string constants (NAME = "literal").
    constants: Dict[str, str] = field(default_factory=dict)
    #: Module-level all-literal-string key tables (dicts/tuples/lists).
    key_tables: Dict[str, List[str]] = field(default_factory=dict)
    #: Module-level dicts whose values are all bare class-like Names.
    class_tables: Dict[str, List[str]] = field(default_factory=dict)
    classes: Dict[str, ClassFacts] = field(default_factory=dict)
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    stats_records: List[KeySite] = field(default_factory=list)
    stats_reads: List[KeySite] = field(default_factory=list)
    #: Class names registered with repro.snapshot.codec.register_codec.
    codec_registered: List[str] = field(default_factory=list)
    arrays: List[ArrayFact] = field(default_factory=list)
    numpy_events: List[NumpyEvent] = field(default_factory=list)
    #: Attribute names assigned an ``OrderedDict`` (directly or inside a
    #: comprehension/list literal) anywhere in this file — the reference
    #: models' per-set structures (``Tlb._sets``, ``FilterTable._entries``).
    odict_attrs: List[str] = field(default_factory=list)
    #: Relpath segments place the file inside the simulation packages.
    in_sim_package: bool = False
    #: Relpath segments place the file inside the persistence-owning
    #: packages (see :func:`~repro.lint.program.extract.in_persistence_scope`).
    in_persistence_scope: bool = False
    #: Raw persistent-write sites outside every function in
    #: ``functions`` (module body, class bodies), so each write is
    #: recorded exactly once: here or in its function's ``raw_writes``.
    raw_writes: List[RawWrite] = field(default_factory=list)
