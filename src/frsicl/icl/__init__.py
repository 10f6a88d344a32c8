from .backends import (API_KEY_ENV, BackendError, CompletionRequest,
                       HttpBackend, MockBackend, make_backend)
from .controller import IclConfig, IclPolicy, LlmExchange, icl_decide
from .parsing import ParseError, parse_action
from .pool import DEFAULT_CAPACITY, ExperiencePool, ExperienceRecord
from .prompts import build_step_prompt, build_system_prompt, output_grammar

__all__ = [
    "API_KEY_ENV", "BackendError", "CompletionRequest", "HttpBackend",
    "MockBackend", "make_backend", "IclConfig", "IclPolicy", "LlmExchange",
    "icl_decide", "ParseError", "parse_action", "DEFAULT_CAPACITY",
    "ExperiencePool", "ExperienceRecord",
    "build_step_prompt", "build_system_prompt", "output_grammar",
]
