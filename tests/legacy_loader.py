"""Reference corpus loader: the one that kept a string per label occurrence
until interning, kept as the oracle for the label-sharing loader in
test_kg.py.

The bodies are the replaced code unchanged; only the data classes and error
types are shared with semcomp.
"""

import json

from semcomp.errors import ParseError, ValidationError
from semcomp.kg import Corpus, KnowledgeGraph, Triple


def _parse_jsonl_line(line, lineno):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc, line=lineno) from exc
    if not isinstance(obj, dict) or "sample" not in obj or "triples" not in obj:
        raise ParseError("expected object with 'sample' and 'triples'", line=lineno)
    sample_id = obj["sample"]
    if not isinstance(sample_id, int) or sample_id < 1:
        raise ParseError("sample id must be a positive integer", line=lineno)
    triples = obj["triples"]
    if not isinstance(triples, list):
        raise ParseError("'triples' must be a list", line=lineno)
    out = []
    for entry in triples:
        if (not isinstance(entry, list) or len(entry) != 3
                or not all(isinstance(x, str) for x in entry)):
            raise ParseError("each triple must be [head, relation, tail] strings",
                             line=lineno)
        out.append(tuple(entry))
    return sample_id, out


def _parse_tsv_line(line, lineno):
    parts = line.split("\t")
    if len(parts) != 4:
        raise ParseError("expected sample<TAB>head<TAB>relation<TAB>tail",
                         line=lineno)
    try:
        sample_id = int(parts[0])
    except ValueError as exc:
        raise ParseError("sample id must be an integer", line=lineno) from exc
    if sample_id < 1:
        raise ParseError("sample id must be positive", line=lineno)
    return sample_id, [(parts[1], parts[2], parts[3])]


def load_corpus_lines(lines) -> Corpus:
    """Build a Corpus from JSONL or TSV lines (format sniffed per file)."""
    raw = {}  # sample id -> list of (h, r, t) label triples
    order = []  # sample ids in first-seen order, for duplicate detection
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
            sample_id, triples = _parse_jsonl_line(line, lineno)
            if sample_id in raw:
                raise ValidationError("duplicate sample id %d" % sample_id)
            raw[sample_id] = triples
            order.append(sample_id)
        else:
            sample_id, triples = _parse_tsv_line(line, lineno)
            raw.setdefault(sample_id, []).extend(triples)

    if not raw:
        raise ValidationError("empty corpus")
    n = max(raw)
    missing = sorted(set(range(1, n + 1)) - set(raw))
    if missing:
        raise ValidationError("gap in sample ids: missing %s" % missing)

    corpus = Corpus()
    # Interning follows sample-id order so the assignment is reproducible
    # regardless of how the file orders its lines.
    for sample_id in range(1, n + 1):
        triples = []
        for h, r, t in raw[sample_id]:
            triples.append(Triple(corpus.entities.intern(h),
                                  corpus.relations.intern(r),
                                  corpus.entities.intern(t)))
        corpus.samples.append(KnowledgeGraph(triples, sample_id=sample_id))
    return corpus
