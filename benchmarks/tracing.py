"""In-memory spans around the calls into each semcomp module.

The tracer wraps the public entry points of each layer wherever they are
bound: the defining module, the `semcomp` package namespace, and modules that
imported them by name (`resource` imports `compress`, `experiments` imports
`solve`).  Class attributes of `ProbabilityGraph` are wrapped in place.
Nothing under `src/` changes; `uninstall` puts every original back.

Entry points called once per message or per command are wrapped; helpers
called inside the optimizer's per-E loop (`comp_latency`, `energies`, ...)
are not, because a span there would cost more than the work it measures.
"""

import functools
import json
import sys
from time import perf_counter

FUNCTIONS = {
    "kg": ("load_corpus_lines", "load_corpus"),
    "probgraph": ("build",),
    "compressor": ("compress", "encode_message", "decode_message",
                   "decompress"),
    "resource": ("estimate_q",),
    "optimizer": ("solve", "solve_simplified", "solve_traditional"),
    "experiments": ("run_sweep", "emit_csv"),
}
GRAPH_METHODS = ("content_hash", "to_bytes", "from_bytes", "save", "load")


class Tracer:
    """Spans are [name, start, end, parent index or -1, message id or None]."""

    def __init__(self):
        self.spans = []
        self.msg = None
        self._stack = []
        self._restore = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.msg])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "semcomp" or n.startswith("semcomp.")]
        for mod_name, names in FUNCTIONS.items():
            home = sys.modules["semcomp." + mod_name]
            for name in names:
                original = getattr(home, name)
                traced = self.wrap("%s.%s" % (mod_name, name), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._swap(module, attr, traced)
        cls = sys.modules["semcomp.probgraph"].ProbabilityGraph
        for name in GRAPH_METHODS:
            desc = cls.__dict__[name]
            span = "probgraph." + name
            if isinstance(desc, property):
                new = property(self.wrap(span, desc.fget))
            elif isinstance(desc, classmethod):
                new = classmethod(self.wrap(span, desc.__func__))
            else:
                new = self.wrap(span, desc)
            self._swap(cls, name, new)

    def _swap(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Span duration minus the time its child spans cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def under(self, root_name):
        """Per root span named `root_name`: its index and its descendants'."""
        groups = []
        root_of = {}
        for idx, (name, _, _, parent, _) in enumerate(self.spans):
            if parent < 0:
                if name == root_name:
                    root_of[idx] = len(groups)
                    groups.append([idx])
            elif parent in root_of:
                root_of[idx] = root_of[parent]
                groups[root_of[idx]].append(idx)
        return groups

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, msg in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "msg": msg}) + "\n")
