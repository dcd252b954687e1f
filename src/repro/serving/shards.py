# perfbench/spans.py wraps ShardedRetriever.retrieve_batch as its retrieval
# layer, so the name stays importable from this module as an alias of the one
# engine serving calls (it is not exported from repro.serving).
from ..core.retrieval import RetrievalEngine

ShardedRetriever = RetrievalEngine
