from __future__ import annotations

import io
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import pytest

from ricaudit.catalogs import data_path
from ricaudit.report import render_json


def rendered_json(result) -> str:
    """The text `render_json` writes for `result`."""
    stream = io.StringIO()
    render_json(result, stream)
    return stream.getvalue()


@pytest.fixture(scope="session")
def fixture_root():
    return data_path("fixtures")


@pytest.fixture(scope="session")
def vulnerable_manifests(fixture_root):
    return fixture_root / "manifests" / "vulnerable"

@pytest.fixture(scope="session")
def vulnerable_workloads(fixture_root):
    return fixture_root / "manifests" / "vulnerable" / "workloads"


@pytest.fixture(scope="session")
def hardened_manifests(fixture_root):
    return fixture_root / "manifests" / "hardened"


@pytest.fixture(scope="session")
def planted_manifests(fixture_root):
    return fixture_root / "manifests" / "planted"


@pytest.fixture(scope="session")
def scan_report_paths(fixture_root):
    return sorted((fixture_root / "scan-reports").glob("*.json"))


@pytest.fixture(scope="session")
def inventory_path(fixture_root):
    return fixture_root / "inventory.yaml"


class MockKubeAPI:
    """Tiny in-process API server: canned GET routes plus a full verb log."""

    def __init__(self):
        self.routes: dict[str, tuple[int, dict]] = {}
        self.request_log: list[tuple[str, str, dict[str, list[str]]]] = []
        self.auth_headers: list[str | None] = []
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def add_list(self, path: str, kind: str, items: list[dict], status: int = 200) -> None:
        self.routes[path] = (
            status,
            {"apiVersion": "v1", "kind": f"{kind}List", "items": items, "metadata": {}},
        )

    def add_raw(self, path: str, status: int, payload: dict | bytes) -> None:
        self.routes[path] = (status, payload)

    @property
    def base_url(self) -> str:
        assert self._server is not None
        return f"http://127.0.0.1:{self._server.server_address[1]}"

    def start(self) -> "MockKubeAPI":
        mock = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _record(self):
                parsed = urlparse(self.path)
                mock.request_log.append((self.command, parsed.path, parse_qs(parsed.query)))
                mock.auth_headers.append(self.headers.get("Authorization"))
                return parsed

            def do_GET(self):
                parsed = self._record()
                route = mock.routes.get(parsed.path)
                if route is None:
                    self.send_response(404)
                    self.end_headers()
                    return
                status, payload = route
                if callable(payload):
                    payload = payload(parse_qs(parsed.query))
                body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _reject(self):
                self._record()
                self.send_response(405)
                self.end_headers()

            do_POST = do_PUT = do_PATCH = do_DELETE = _reject

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server:
            self._server.shutdown()
            self._server.server_close()

    def mutating_requests(self) -> list[tuple[str, str]]:
        return [(m, p) for m, p, _ in self.request_log if m != "GET"]


@pytest.fixture
def mock_cluster():
    api = MockKubeAPI().start()
    yield api
    api.stop()


def pod_item(name: str, namespace: str = "ricplt") -> dict:
    return {
        "metadata": {"name": name, "namespace": namespace, "labels": {"app": name}},
        "spec": {"containers": [{"name": name, "image": f"registry.k8s.io/{name}:1.0.0"}]},
    }
