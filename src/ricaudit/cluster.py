"""Read-only Kubernetes API client.

The client can only list: there is no code path that issues a mutating
verb, by construction. An auditor must be side-effect free, and a tool
with no write paths is also a smaller attack surface itself. Plain-text
endpoints are refused unless explicitly overridden.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from concurrent.futures import ThreadPoolExecutor
from typing import Any, NamedTuple
from urllib.parse import urlencode, urlparse

import requests

from .errors import ClusterError, DocumentError
from .manifests import ResourceDocument, document_from_mapping

PAGE_SIZE = 500
MAX_IN_FLIGHT = 4

# kind -> (API path prefix, resource plural). Core kinds live under /api/v1,
# everything else under /apis/<group>/<version>.
KIND_ROUTES: dict[str, tuple[str, str]] = {
    "Pod": ("api/v1", "pods"),
    "Service": ("api/v1", "services"),
    "ConfigMap": ("api/v1", "configmaps"),
    "Secret": ("api/v1", "secrets"),
    "ServiceAccount": ("api/v1", "serviceaccounts"),
    "Namespace": ("api/v1", "namespaces"),
    "Node": ("api/v1", "nodes"),
    "LimitRange": ("api/v1", "limitranges"),
    "ResourceQuota": ("api/v1", "resourcequotas"),
    "Deployment": ("apis/apps/v1", "deployments"),
    "StatefulSet": ("apis/apps/v1", "statefulsets"),
    "DaemonSet": ("apis/apps/v1", "daemonsets"),
    "ReplicaSet": ("apis/apps/v1", "replicasets"),
    "Job": ("apis/batch/v1", "jobs"),
    "CronJob": ("apis/batch/v1", "cronjobs"),
    "Role": ("apis/rbac.authorization.k8s.io/v1", "roles"),
    "RoleBinding": ("apis/rbac.authorization.k8s.io/v1", "rolebindings"),
    "ClusterRole": ("apis/rbac.authorization.k8s.io/v1", "clusterroles"),
    "ClusterRoleBinding": ("apis/rbac.authorization.k8s.io/v1", "clusterrolebindings"),
    "NetworkPolicy": ("apis/networking.k8s.io/v1", "networkpolicies"),
    "Ingress": ("apis/networking.k8s.io/v1", "ingresses"),
}

CLUSTER_SCOPED_KINDS = {"Namespace", "Node", "ClusterRole", "ClusterRoleBinding"}


class _ClusterEndpoint(NamedTuple):
    base_url: str
    bearer_token: str | None = None
    request_timeout: float = 10.0
    allow_insecure: bool = False


class ClusterEndpoint(_ClusterEndpoint):
    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> ClusterEndpoint:
        self = super().__new__(cls, *args, **kwargs)
        parsed = urlparse(self.base_url)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise ClusterError(f"base_url must be an absolute http(s) URL: {self.base_url!r}")
        if self.request_timeout <= 0:
            raise ClusterError("request_timeout must be positive")
        # The token becomes a header value; the message never quotes it.
        if self.bearer_token and not all("!" <= c <= "~" for c in self.bearer_token):
            raise ClusterError("bearer token must hold only visible ASCII characters")
        return self

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> ClusterEndpoint:
        # `_replace` builds through `_make`; this makes it check as well.
        return cls(*iterable)


def _list_path(kind: str, namespace: str | None) -> str:
    prefix, plural = KIND_ROUTES[kind]
    if namespace and kind not in CLUSTER_SCOPED_KINDS:
        return f"{prefix}/namespaces/{namespace}/{plural}"
    return f"{prefix}/{plural}"


def _fetch_kind(
    session: requests.Session,
    endpoint: ClusterEndpoint,
    kind: str,
    namespace: str | None,
) -> list[ResourceDocument]:
    base = endpoint.base_url.rstrip("/")
    path = _list_path(kind, namespace)
    documents: list[ResourceDocument] = []
    continue_token: str | None = None
    while True:
        params = {"limit": str(PAGE_SIZE)}
        if continue_token:
            params["continue"] = continue_token
        url = f"{base}/{path}?{urlencode(params)}"
        try:
            response = session.get(url, timeout=endpoint.request_timeout)
        except (requests.ConnectionError, requests.Timeout) as exc:
            raise ClusterError(
                f"cannot reach {base}: {exc}", kind=kind, namespace=namespace) from exc
        if response.status_code in (401, 403):
            raise ClusterError(
                f"{response.status_code} from {base}", kind=kind, namespace=namespace
            )
        if not 200 <= response.status_code < 300:
            raise ClusterError(
                f"status {response.status_code} from {base}", kind=kind, namespace=namespace
            )
        try:
            body = response.json()
        except (ValueError, RecursionError) as exc:
            raise ClusterError(
                f"response is not JSON: {exc}", kind=kind, namespace=namespace) from exc
        if not isinstance(body, Mapping) or not isinstance(body.get("items"), list):
            raise ClusterError("response is not a list object", kind=kind, namespace=namespace)

        api_version = body.get("apiVersion") if isinstance(body.get("apiVersion"), str) else ""
        for item in body["items"]:
            if not isinstance(item, Mapping):
                raise ClusterError("list item is not an object", kind=kind, namespace=namespace)
            # List items routinely omit apiVersion/kind; restore them so the
            # document round-trips like a standalone manifest.
            filled: dict[str, Any] = dict(item)
            filled.setdefault("kind", kind)
            if api_version:
                filled.setdefault("apiVersion", api_version)
            try:
                documents.append(
                    document_from_mapping(filled, origin=url, index=len(documents))
                )
            except DocumentError as exc:
                raise ClusterError(str(exc), kind=kind, namespace=namespace) from exc

        metadata = body.get("metadata")
        continue_token = metadata.get("continue") if isinstance(metadata, Mapping) else None
        if not continue_token:
            return documents


def fetch_resources(
    endpoint: ClusterEndpoint,
    kinds: Iterable[str],
    namespace: str | None = None,
) -> list[ResourceDocument]:
    """List the given kinds from a cluster and normalize them to documents.

    Only GET list requests are issued. Per-kind fetches run concurrently
    (at most four in flight); the merged result is ordered by kind, then
    namespace, then name, so output is deterministic.
    """
    kind_list = sorted(set(kinds))
    if not kind_list:
        return []
    unknown = [k for k in kind_list if k not in KIND_ROUTES]
    if unknown:
        raise ClusterError(f"no list route known for kinds: {', '.join(unknown)}")
    if urlparse(endpoint.base_url).scheme == "http" and not endpoint.allow_insecure:
        raise ClusterError(
            f"refusing plain-text endpoint {endpoint.base_url}; set the insecure flag to override"
        )

    session = requests.Session()
    if endpoint.bearer_token:
        session.headers["Authorization"] = f"Bearer {endpoint.bearer_token}"
    session.verify = True

    try:
        with ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT) as pool:
            batches = pool.map(
                lambda kind: _fetch_kind(session, endpoint, kind, namespace), kind_list
            )
            documents = [doc for batch in batches for doc in batch]
    finally:
        session.close()
    documents.sort(key=lambda d: (d.kind, d.namespace or "", d.name))
    return documents
