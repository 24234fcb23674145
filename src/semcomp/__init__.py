"""Probability-graph semantic compression with joint power/compute allocation."""

from .compressor import (CompressedMessage, CompressionReport, OmissionRecord,
                         compress, decode_message, decompress, encode_message)
from .errors import (CorruptMessageError, GraphDecodeError,
                     IncompatibleKnowledgeError, MessageDecodeError,
                     PairNotFoundError, ParseError, RelationNotFoundError,
                     SemcompError, UndefinedProbabilityError, ValidationError)
from .experiments import SweepRow, SweepSpec, emit_csv, run_sweep
from .kg import Corpus, Interner, KnowledgeGraph, Triple, dump_corpus, load_corpus
from .optimizer import (AllocationResult, solve, solve_simplified,
                        solve_traditional)
from .probgraph import ProbabilityGraph, Quadruple, build
from .resource import (LinkModel, OmissionProfile, capacity, comm_latency,
                       comp_latency, energies, estimate_q, payload_bits)

__version__ = "0.1.0"
