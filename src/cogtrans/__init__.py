"""Character-level word-transduction toolkit: a float64 autodiff engine,
recurrent and transformer encoder-decoder architectures, training utilities,
evaluation metrics, a WX/Devanagari codec with an error taxonomy, and an OOV
MT-correction pipeline.
"""

from .cells import init_cell_params
from .data_io import DatasetSplit, load_cognate_tsv, split_dataset
from .devanagari import (
    CharVocab,
    ErrorTag,
    build_vocab,
    classify_errors,
    strip_trailing_repeats,
    wx_decode,
    wx_encode,
)
from .errors import (
    ChecksumError,
    CogtransError,
    DivergedError,
    EmptyInput,
    IncompatibleCheckpoint,
    InvalidArgument,
    InvalidAttention,
    InvalidShape,
    MissingGrad,
    ParseError,
    UnmappedSymbol,
)
from .metrics import (
    EvalReport,
    char_bleu,
    corpus_bleu,
    levenshtein,
    string_similarity,
    word_accuracy,
)
from .models import (ModelConfig, Transduction, build_model, transduce_batch,
                     transduce_greedy)
from .oov import (
    AlignedSentencePair,
    align_from_attention,
    build_shortlist,
    correct_records,
    correct_translation,
    detect_oov,
    evaluate_pipeline,
)
from .synthetic import RewriteRule, generate_pairs, oracle_transduce
from .tensor import Graph, Tensor, backward, finite_diff_check, no_grad
from .training import (
    Checkpoint,
    Optimizer,
    OptimizerSpec,
    TrainConfig,
    average_checkpoints,
    grid_search,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
