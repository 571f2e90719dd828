"""Shared fixtures."""

import contextlib

import pytest

from ipuq.mock import start_mock_server


@pytest.fixture
def serve():
    """``with serve(script) as base_url:`` runs a mock HTTP endpoint.

    On exit the server is shut down and its listening socket closed.
    """

    @contextlib.contextmanager
    def running(script, port=0):
        server, base_url = start_mock_server(script, port=port)
        try:
            yield base_url
        finally:
            server.shutdown()
            server.server_close()

    return running
