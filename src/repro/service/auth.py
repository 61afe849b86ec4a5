"""Bearer-token authentication for the verification service.

Stdlib translation of the middleware shape in tritium-sc's
``src/app/auth.py``: a static token table maps secrets to client
identities, the ``Authorization: Bearer <token>`` header is checked with
a constant-time comparison, and the absence of any configured token
selects **anonymous mode** -- every request is accepted as client
``"anonymous"`` -- so tests, benchmarks and local single-user setups
keep working with zero ceremony.

Token sources (first configured one wins):

* ``--tokens-file PATH`` -- one ``client_id:token`` per line, ``#``
  comments and blank lines ignored;
* ``REPRO_SERVICE_TOKENS`` -- the same entries, comma-separated
  (``alice:s3cret,bob:hunter2``).

Tokens identify *clients* (for rate limiting and the audit log), they
are not capabilities: every authenticated client may use every route.
"""

from __future__ import annotations

import hmac
import os

__all__ = [
    "ANONYMOUS",
    "AuthenticationError",
    "Authenticator",
    "load_tokens_env",
    "load_tokens_file",
    "parse_token_entries",
    "resolve_tokens",
]

ANONYMOUS = "anonymous"

TOKENS_ENV = "REPRO_SERVICE_TOKENS"


class AuthenticationError(Exception):
    """A request could not be authenticated.

    ``code`` is the machine-readable error-envelope code the server
    answers with (``missing_token`` | ``invalid_token``).
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def parse_token_entries(entries, source: str) -> dict[str, str]:
    """``client_id:token`` entries -> ``{token: client_id}``.

    Rejects malformed entries, empty ids/tokens and duplicate tokens
    with a one-line :class:`ValueError` naming the source -- a silently
    dropped token would look exactly like an auth outage to its client.
    """
    tokens: dict[str, str] = {}
    for raw in entries:
        entry = raw.strip()
        if not entry or entry.startswith("#"):
            continue
        client, sep, token = entry.partition(":")
        client, token = client.strip(), token.strip()
        if not sep or not client or not token:
            raise ValueError(
                f"{source}: malformed token entry {entry!r} "
                "(expected 'client_id:token')"
            )
        if token in tokens:
            raise ValueError(
                f"{source}: token for {client!r} duplicates the one for "
                f"{tokens[token]!r} (tokens must identify one client)"
            )
        tokens[token] = client
    return tokens


def load_tokens_file(path) -> dict[str, str]:
    with open(path) as handle:
        return parse_token_entries(handle, str(path))


def load_tokens_env(value: str) -> dict[str, str]:
    return parse_token_entries(value.split(","), TOKENS_ENV)


def resolve_tokens(tokens_file=None, environ=None) -> dict[str, str]:
    """The serve-time token table: explicit file, else env, else empty."""
    if tokens_file is not None:
        return load_tokens_file(tokens_file)
    env_value = (environ if environ is not None else os.environ).get(TOKENS_ENV)
    if env_value:
        return load_tokens_env(env_value)
    return {}


class Authenticator:
    """Maps an ``Authorization`` header to a client identity."""

    def __init__(self, tokens: dict[str, str] | None = None):
        self._tokens = dict(tokens or {})

    @property
    def anonymous(self) -> bool:
        """True when no tokens are configured (every request accepted)."""
        return not self._tokens

    def identify(self, authorization: str | None) -> str:
        """The client id for the header, or :class:`AuthenticationError`.

        The candidate is compared against *every* configured token with
        :func:`hmac.compare_digest` and no early exit, so response
        timing does not reveal which token prefix matched.
        """
        if self.anonymous:
            return ANONYMOUS
        if not authorization:
            raise AuthenticationError(
                "missing_token", "missing Authorization header"
            )
        scheme, _, candidate = authorization.partition(" ")
        candidate = candidate.strip()
        if scheme.lower() != "bearer" or not candidate:
            raise AuthenticationError(
                "invalid_token", "expected 'Authorization: Bearer <token>'"
            )
        encoded = candidate.encode()
        matched: str | None = None
        for token, client in self._tokens.items():
            if hmac.compare_digest(encoded, token.encode()):
                matched = client
        if matched is None:
            raise AuthenticationError("invalid_token", "unknown token")
        return matched
