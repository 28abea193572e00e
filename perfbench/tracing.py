"""Span recorder that wraps layer functions by replacing module attributes.

Spans are (name, start, end, parent, status) rows kept in memory; `spans()`
hands them out as arrays once the traced work is done.  A layer's self time
is its span's duration minus the durations of its direct children.

Wrapping works because the package looks its layer functions up through
module globals or module attributes at call time (``matel3._gtab_small``
calls the module-level ``g3_table``; ``solve`` calls ``matel3.natural_matblock``),
so replacing the attribute catches every production call.
"""

import functools
import time

import numpy as np

_BIG_HALF = 5e5   # half of solve._BIG: a returned energy above this is a refusal

OK, RAISED, SENTINEL = 0, 1, 2


def _g3_name(args, kwargs):
    omax = tuple(args[3])
    if omax == (3, 3, 3):
        return "matel3.g3_table.o3"
    if omax == (8, 8, 8):
        return "matel3.g3_table.o8"
    return "matel3.g3_table.tiny"


def _assemble4_name(args, kwargs):
    groups = args[0]
    # cc-break orbit groups carry up to four terms; identity-break groups one
    return ("matel4.assemble4.cc" if max(len(g) for g in groups) > 1
            else "matel4.assemble4.identity")


def _energy_status(result):
    return SENTINEL if result[0] >= _BIG_HALF else OK


class Tracer:
    """Records spans around the wrapped functions until `uninstall`."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.rows = []          # [name_id, t0, t1, parent, status]
        self._stack = []
        self._undo = []
        self.hashes = {"g3": [], "f4": []}   # argument hashes of table builds

    def _id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, owner, attr, name, status=None, on_call=None):
        """Replace owner.attr by a span-recording wrapper.

        `name` is a string or a callable (args, kwargs) -> string; `status`
        maps a normal return to OK or SENTINEL; `on_call` sees the arguments.
        """
        orig = getattr(owner, attr)
        fixed = None if callable(name) else self._id(name)
        rows, stack = self.rows, self._stack
        perf = time.perf_counter

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(name(args, kwargs))
            if on_call is not None:
                on_call(args)
            row = [nid, 0.0, 0.0, stack[-1] if stack else -1, RAISED]
            idx = len(rows)
            rows.append(row)
            stack.append(idx)
            row[1] = perf()
            try:
                out = orig(*args, **kwargs)
            finally:
                row[2] = perf()
                stack.pop()
            row[4] = status(out) if status is not None else OK
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))
        return traced

    def install(self, pkg):
        """Wrap the public functions of every layer of the `coulomb2e` package."""
        cli, jets, matel3, matel4, solve = (pkg.cli, pkg.jets, pkg.matel3,
                                            pkg.matel4, pkg.solve)
        g3_list, f4_list = self.hashes["g3"], self.hashes["f4"]
        g3_hash = lambda a: g3_list.append(hash((a[0], a[1], a[2], tuple(a[3]))))
        f4_hash = lambda a: f4_list.append(hash(tuple(a[:4])))
        # model: its one function the solver calls per solve
        self.wrap(solve, "threshold_for", "model.threshold_for")
        # jets: the Taylor products behind every F4 table
        self.wrap(jets.Jet, "__mul__", "jets.mul")
        self.wrap(jets.Jet, "__rmul__", "jets.mul")
        self.wrap(jets.Jet, "recip", "jets.recip")
        self.wrap(jets.Jet, "log", "jets.log")
        # matel3: table builds (cache misses only; the lru tiers call the
        # module-level g3_table) and the block assemblers
        self.wrap(matel3, "g3_table", _g3_name, on_call=g3_hash)
        self.wrap(matel3, "natural_matblock", "matel3.natural_matblock")
        self.wrap(matel3, "unnatural_matblock", "matel3.unnatural_matblock")
        self.wrap(matel3, "shellmodel_ntv", "matel3.shellmodel_ntv")
        # matel4: F4 table builds behind the lru cache, moments, assembly
        self.wrap(matel4, "_f4_jet", "matel4.f4_table", on_call=f4_hash)
        self.wrap(matel4, "moment4", "matel4.moment4")
        self.wrap(matel4, "assemble4", _assemble4_name)
        # solve: eigen and scale, the simplex, the scale-reduced quotient
        self.wrap(solve, "scaled_lowest", "solve.scaled_lowest", status=_energy_status)
        self.wrap(solve, "gen_eig", "solve.gen_eig")
        self.wrap(solve, "virial_reduce", "solve.virial_reduce", status=_energy_status)
        self.wrap(solve, "minimize_nm", "solve.minimize_nm")
        # entry points: the roots of every solve
        self.wrap(solve, "optimize_ion", "solve.optimize_ion")
        self.wrap(solve, "scan_mass4", "solve.scan_mass4")
        self.wrap(cli, "main", "cli.main")

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def spans(self):
        """(names, name_id, t0, t1, parent, status) as numpy arrays."""
        r = np.array(self.rows, dtype=float).reshape(-1, 5)
        return (list(self.names), r[:, 0].astype(np.int64), r[:, 1], r[:, 2],
                r[:, 3].astype(np.int64), r[:, 4].astype(np.int64))


def self_times(t0, t1, parent):
    """Duration of each span minus the durations of its direct children."""
    dur = t1 - t0
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child


def ancestors_with(name_ids, parent, target_ids):
    """Boolean mask: the span has an ancestor whose name id is in target_ids."""
    n = len(parent)
    out = np.zeros(n, dtype=bool)
    is_target = np.isin(name_ids, list(target_ids))
    # parents precede their children, so one forward sweep settles every span
    for i in range(n):
        p = parent[i]
        if p >= 0:
            out[i] = out[p] or is_target[p]
    return out
