"""Text substrate: preprocessing, summarization, and representations."""

from repro.text.char_ngrams import CharNGramVectorizer
from repro.text.feature_selection import (
    filter_documents,
    information_gain_scores,
    select_terms,
)
from repro.text.ngram_graph import (
    ClassGraphModel,
    GraphSimilarities,
    NGramGraph,
    SIMILARITY_NAMES,
)
from repro.text.preprocessing import TextPreprocessor
from repro.text.stopwords import (
    EXTENDED_ENGLISH_STOP_WORDS,
    LUCENE_ENGLISH_STOP_WORDS,
    default_stop_words,
)
from repro.text.summarization import (
    Summarizer,
    SummaryDocument,
    TERM_SUBSET_SIZES,
)
from repro.text.term_vector import TfidfVectorizer, Vocabulary
from repro.text.tokenization import tokenize

__all__ = [
    "CharNGramVectorizer",
    "filter_documents",
    "information_gain_scores",
    "select_terms",
    "ClassGraphModel",
    "GraphSimilarities",
    "NGramGraph",
    "SIMILARITY_NAMES",
    "TextPreprocessor",
    "EXTENDED_ENGLISH_STOP_WORDS",
    "LUCENE_ENGLISH_STOP_WORDS",
    "default_stop_words",
    "Summarizer",
    "SummaryDocument",
    "TERM_SUBSET_SIZES",
    "TfidfVectorizer",
    "Vocabulary",
    "tokenize",
]
