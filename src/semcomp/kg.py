"""Triples, per-sample knowledge graphs, corpora, and file ingestion.

Entities and relations are interned into dense non-negative integer ids in
first-seen order, so loading the same file twice always produces the same
ids.  A loader given label tables, such as a shared graph's, interns into
copies of them: their labels keep their ids and new labels are numbered on
past their end.
"""

import json
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from .errors import ParseError, ValidationError


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


class Interner:
    """Bidirectional label <-> id table; ids are assigned densely from 0."""

    def __init__(self, labels=()):
        self._labels = []
        self._ids = {}
        for label in labels:
            self.intern(label)

    def intern(self, label: str) -> int:
        label = label.strip()
        if not label:
            raise ValidationError("empty label cannot be interned")
        existing = self._ids.get(label)
        if existing is not None:
            return existing
        try:  # a graph file stores its labels as UTF-8
            label.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError("label %r is not encodable as UTF-8"
                                  % label) from None
        new_id = len(self._labels)
        self._labels.append(label)
        self._ids[label] = new_id
        return new_id

    def label(self, id_: int) -> str:
        if not 0 <= id_ < len(self._labels):
            raise ValidationError("unknown intern id %d" % id_)
        return self._labels[id_]

    def id_of(self, label: str) -> Optional[int]:
        return self._ids.get(label.strip())

    def labels(self):
        return list(self._labels)

    def __len__(self):
        return len(self._labels)

    def __eq__(self, other):
        return isinstance(other, Interner) and self._labels == other._labels


@dataclass
class KnowledgeGraph:
    """Ordered triple list extracted from one sample."""

    triples: list
    sample_id: Optional[int] = None

    def __post_init__(self):
        if len(set(self.triples)) == len(self.triples):
            return
        seen = set()  # name the first repeat
        for t in self.triples:
            if t in seen:
                raise ValidationError(
                    "duplicate triple %r in sample %r" % (t, self.sample_id))
            seen.add(t)

    def triple_set(self):
        return set(self.triples)

    def __len__(self):
        return len(self.triples)


@dataclass
class Corpus:
    """Samples 1..N plus the intern tables resolving their ids."""

    samples: list = field(default_factory=list)
    entities: Interner = field(default_factory=Interner)
    relations: Interner = field(default_factory=Interner)

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    def sample(self, sample_id: int) -> KnowledgeGraph:
        if not 1 <= sample_id <= len(self.samples):
            raise ValidationError("sample id %d out of range" % sample_id)
        return self.samples[sample_id - 1]

    def iter_triples(self) -> Iterator[Triple]:
        for kg in self.samples:
            yield from kg.triples

    def n_triples(self) -> int:
        return sum(len(kg) for kg in self.samples)


class _InternMemo(dict):
    """Label as written -> its id in `table`, interned on first lookup."""

    def __init__(self, table: Interner):
        super().__init__()
        self.table = table

    def __missing__(self, label):
        id_ = self[label] = self.table.intern(label)
        return id_


_BAD_TRIPLE = "each triple must be [head, relation, tail] strings"


def _parse_jsonl_line(line, lineno, triple_ids):
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting
        raise ParseError("invalid JSON: %s" % exc, line=lineno) from exc
    if not isinstance(obj, dict) or "sample" not in obj or "triples" not in obj:
        raise ParseError("expected object with 'sample' and 'triples'", line=lineno)
    sample_id = obj["sample"]
    if type(sample_id) is not int or sample_id < 1:  # a bool is no id
        raise ParseError("sample id must be a positive integer", line=lineno)
    triples = obj["triples"]
    if not isinstance(triples, list):
        raise ParseError("'triples' must be a list", line=lineno)
    out = []
    for entry in triples:
        # The list check runs every time: "abc" would match the key
        # ("a", "b", "c").  Only an entry that passed the rest is a key, so a
        # repeat costs one lookup.
        if not isinstance(entry, list):
            raise ParseError(_BAD_TRIPLE, line=lineno)
        key = tuple(entry)
        try:
            tid = triple_ids.get(key)
        except TypeError:  # an unhashable label: a list or an object
            tid = None
        if tid is None:
            if not (len(key) == 3 and isinstance(key[0], str)
                    and isinstance(key[1], str) and isinstance(key[2], str)):
                raise ParseError(_BAD_TRIPLE, line=lineno)
            tid = triple_ids[key] = len(triple_ids)
        out.append(tid)
    return sample_id, out


def _parse_tsv_line(line, lineno, triple_ids):
    parts = line.split("\t")
    if len(parts) != 4:
        raise ParseError("expected sample<TAB>head<TAB>relation<TAB>tail",
                         line=lineno)
    try:
        sample_id = int(parts[0])
    except ValueError as exc:
        raise ParseError("sample id must be an integer", line=lineno) from exc
    # Only the id's own decimal form: int() also takes "1_0", "+2", " 3",
    # "04" and non-ASCII digits.
    if sample_id < 1 or str(sample_id) != parts[0]:
        raise ParseError("sample id must be a positive integer", line=lineno)
    return sample_id, [triple_ids.setdefault(tuple(parts[1:]),
                                             len(triple_ids))]


def load_corpus_lines(lines, tables=None) -> Corpus:
    """Build a Corpus from JSONL or TSV lines (format sniffed per file),
    interning into copies of the `entities` and `relations` Interners of
    `tables` (a graph, say) when it is given."""
    # Each distinct label triple, as written, gets one provisional id on
    # first sight, so the file is held as one int per triple occurrence and
    # the labels of a repeated triple are neither checked nor kept again.
    triple_ids = {}  # (head, relation, tail) labels -> provisional id
    raw = {}  # sample id -> list of provisional triple ids
    fmt = None
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        line_fmt = "jsonl" if line.lstrip().startswith("{") else "tsv"
        if fmt is None:
            fmt = line_fmt
        elif fmt != line_fmt:
            raise ParseError("mixed JSONL and TSV lines", line=lineno)
        if fmt == "jsonl":
            sample_id, triples = _parse_jsonl_line(line, lineno, triple_ids)
            if sample_id in raw:
                raise ValidationError("duplicate sample id %d" % sample_id)
            raw[sample_id] = triples
        else:
            sample_id, triples = _parse_tsv_line(line, lineno, triple_ids)
            raw.setdefault(sample_id, []).extend(triples)

    if not raw:
        raise ValidationError("empty corpus")
    # The ids are distinct and positive: they run 1..n exactly when the
    # largest is n, and otherwise one of 1..n+1 is missing.
    n = len(raw)
    if max(raw) != n:
        first = next(i for i in range(1, n + 2) if i not in raw)
        raise ValidationError("gap in sample ids: %d missing" % first)

    corpus = Corpus() if tables is None else Corpus(
        entities=Interner(tables.entities.labels()),
        relations=Interner(tables.relations.labels()))
    entity_of = _InternMemo(corpus.entities)
    relation_of = _InternMemo(corpus.relations)
    labels = list(triple_ids)  # provisional id -> label triple
    triple_of = [None] * len(labels)  # provisional id -> Triple, once seen
    # Interning follows sample-id order so the assignment is reproducible
    # regardless of how the file orders its lines.
    for sample_id in range(1, n + 1):
        triples = []
        for tid in raw[sample_id]:
            triple = triple_of[tid]
            if triple is None:
                h, r, t = labels[tid]
                triple = triple_of[tid] = Triple(entity_of[h], relation_of[r],
                                                 entity_of[t])
            triples.append(triple)
        corpus.samples.append(KnowledgeGraph(triples, sample_id=sample_id))
    return corpus


def load_corpus(path, tables=None) -> Corpus:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return load_corpus_lines(fh, tables)
        except UnicodeDecodeError as exc:
            raise ParseError("%s is not UTF-8 text: %s" % (path, exc)) from exc


def dump_corpus_lines(corpus: Corpus):
    for kg in corpus.samples:
        triples = [[corpus.entities.label(t.head),
                    corpus.relations.label(t.relation),
                    corpus.entities.label(t.tail)] for t in kg.triples]
        yield json.dumps({"sample": kg.sample_id, "triples": triples},
                         ensure_ascii=False)


def dump_corpus(corpus: Corpus, path):
    """Write the corpus as JSONL.  Every label is resolved before `path` is
    opened, so an unknown id (ValidationError) leaves no file behind."""
    text = "".join(line + "\n" for line in dump_corpus_lines(corpus))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
