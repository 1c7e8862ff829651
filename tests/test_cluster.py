from __future__ import annotations

import pytest

from conftest import pod_item
from ricaudit.cluster import ClusterEndpoint, fetch_resources
from ricaudit.errors import ClusterError


def endpoint_for(mock, **kwargs):
    kwargs.setdefault("allow_insecure", True)
    return ClusterEndpoint(base_url=mock.base_url, **kwargs)


class TestEndpointValidation:
    def test_relative_url_rejected(self):
        with pytest.raises(ClusterError, match=r"^base_url must be an absolute http\(s\) URL: "):
            ClusterEndpoint(base_url="not-a-url")

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ClusterError, match=r"^request_timeout must be positive$"):
            ClusterEndpoint(base_url="https://api.example", request_timeout=0)

    def test_plaintext_refused_without_override(self, mock_cluster):
        endpoint = ClusterEndpoint(base_url=mock_cluster.base_url)
        with pytest.raises(ClusterError, match=r"^refusing plain-text endpoint http://"):
            fetch_resources(endpoint, kinds={"Pod"}, namespace="ricplt")
        assert mock_cluster.request_log == []


class TestFetchResources:
    def test_two_pod_list(self, mock_cluster):
        mock_cluster.add_list(
            "/api/v1/namespaces/ricplt/pods", "Pod", [pod_item("e2term"), pod_item("submgr")]
        )
        docs = fetch_resources(endpoint_for(mock_cluster), kinds={"Pod"}, namespace="ricplt")
        assert [(d.kind, d.name) for d in docs] == [("Pod", "e2term"), ("Pod", "submgr")]
        assert all(d.kind and d.name for d in docs)
        assert all(d.source.file_path.startswith(mock_cluster.base_url) for d in docs)

    def test_forbidden_names_kind_and_namespace(self, mock_cluster):
        mock_cluster.add_raw("/api/v1/namespaces/ricplt/pods", 403, {"kind": "Status"})
        with pytest.raises(ClusterError) as exc:
            fetch_resources(endpoint_for(mock_cluster), kinds={"Pod"}, namespace="ricplt")
        assert str(exc.value) == f"403 from {mock_cluster.base_url} (kind Pod, namespace ricplt)"

    def test_empty_kind_set_makes_no_request(self, mock_cluster):
        assert fetch_resources(endpoint_for(mock_cluster), kinds=set()) == []
        assert mock_cluster.request_log == []

    def test_unknown_kind_rejected(self, mock_cluster):
        with pytest.raises(ClusterError, match=r"^no list route known for kinds: FluxCapacitor$"):
            fetch_resources(endpoint_for(mock_cluster), kinds={"FluxCapacitor"})
        assert mock_cluster.request_log == []

    def test_unexpected_status(self, mock_cluster):
        mock_cluster.add_raw("/api/v1/namespaces/ricplt/pods", 500, {})
        with pytest.raises(ClusterError, match=r"^status 500 from .* \(kind Pod, namespace ricplt"):
            fetch_resources(endpoint_for(mock_cluster), kinds={"Pod"}, namespace="ricplt")

    def test_decode_error_on_non_list_body(self, mock_cluster):
        mock_cluster.add_raw("/api/v1/namespaces/ricplt/pods", 200, {"kind": "PodList"})
        with pytest.raises(ClusterError, match=r"^response is not a list object \(kind Pod, "):
            fetch_resources(endpoint_for(mock_cluster), kinds={"Pod"}, namespace="ricplt")

    def test_decode_error_on_body_nested_beyond_recursion_limit(self, mock_cluster):
        body = b"[" * 100_000 + b"]" * 100_000
        mock_cluster.add_raw("/api/v1/namespaces/ricplt/pods", 200, body)
        with pytest.raises(ClusterError, match=r"^response is not JSON: .* \(kind Pod, "):
            fetch_resources(endpoint_for(mock_cluster), kinds={"Pod"}, namespace="ricplt")

    def test_unreachable(self):
        endpoint = ClusterEndpoint(base_url="http://127.0.0.1:9", allow_insecure=True,
                                   request_timeout=0.5)
        with pytest.raises(ClusterError, match=r"^cannot reach http://127\.0\.0\.1:9: .*kind Pod"):
            fetch_resources(endpoint, kinds={"Pod"}, namespace="ricplt")

    def test_pagination_follows_continue_token(self, mock_cluster):
        def pager(query):
            if "continue" in query:
                return {"kind": "PodList", "apiVersion": "v1",
                        "items": [pod_item("page2")], "metadata": {}}
            return {"kind": "PodList", "apiVersion": "v1",
                    "items": [pod_item("page1")],
                    "metadata": {"continue": "tok-1"}}

        mock_cluster.add_raw("/api/v1/namespaces/ricplt/pods", 200, pager)
        docs = fetch_resources(endpoint_for(mock_cluster), kinds={"Pod"}, namespace="ricplt")
        assert [d.name for d in docs] == ["page1", "page2"]
        pod_requests = [q for m, p, q in mock_cluster.request_log if p.endswith("/pods")]
        assert len(pod_requests) == 2
        assert pod_requests[1]["continue"] == ["tok-1"]
        assert all(q["limit"] == ["500"] for q in pod_requests)

    def test_merge_order_deterministic_by_kind_then_name(self, mock_cluster):
        mock_cluster.add_list(
            "/api/v1/namespaces/ricplt/pods", "Pod", [pod_item("zeta"), pod_item("alpha")]
        )
        mock_cluster.add_list(
            "/apis/apps/v1/namespaces/ricplt/deployments",
            "Deployment",
            [pod_item("mid")],
        )
        docs = fetch_resources(
            endpoint_for(mock_cluster), kinds={"Pod", "Deployment"}, namespace="ricplt"
        )
        assert [(d.kind, d.name) for d in docs] == [
            ("Deployment", "mid"),
            ("Pod", "alpha"),
            ("Pod", "zeta"),
        ]

    def test_bearer_token_sent(self, mock_cluster):
        mock_cluster.add_list("/api/v1/namespaces/ricplt/pods", "Pod", [])
        fetch_resources(
            endpoint_for(mock_cluster, bearer_token="sekrit"), kinds={"Pod"}, namespace="ricplt"
        )
        assert mock_cluster.auth_headers == ["Bearer sekrit"]

    def test_no_mutating_verbs_ever(self, mock_cluster):
        mock_cluster.add_list("/api/v1/namespaces/ricplt/pods", "Pod", [pod_item("a")])
        mock_cluster.add_list("/api/v1/namespaces/ricplt/configmaps", "ConfigMap", [])
        mock_cluster.add_list("/apis/apps/v1/namespaces/ricplt/deployments", "Deployment", [])
        mock_cluster.add_list("/apis/rbac.authorization.k8s.io/v1/namespaces/ricplt/roles",
                              "Role", [])
        mock_cluster.add_list("/apis/networking.k8s.io/v1/namespaces/ricplt/networkpolicies",
                              "NetworkPolicy", [])
        fetch_resources(
            endpoint_for(mock_cluster),
            kinds={"Pod", "ConfigMap", "Deployment", "Role", "NetworkPolicy"},
            namespace="ricplt",
        )
        assert mock_cluster.mutating_requests() == []
        assert all(method == "GET" for method, _, _ in mock_cluster.request_log)

    def test_cluster_scoped_kind_path(self, mock_cluster):
        mock_cluster.add_list("/api/v1/namespaces", "Namespace",
                              [{"metadata": {"name": "ricplt"}}])
        docs = fetch_resources(endpoint_for(mock_cluster), kinds={"Namespace"},
                               namespace="ricplt")
        assert [(d.kind, d.name, d.namespace) for d in docs] == [("Namespace", "ricplt", None)]
