"""The acceptance criterion, end to end: session vs plain search vs CLI
vs service answers for the same request are byte-identical."""

import pytest

from repro.api import MapRequest, MapResult
from repro.cli import main
from repro.mapping.decompose import _map_block_search
from repro.service import MappingService, ServiceClient, ServiceThread

#: The request every surface answers: the paper's IMDCT block against
#: the LM+IH ladder on the default platform.
_BLOCK = "inv_mdctL"
_TAGS = ("LM", "IH")
_PAYLOAD = {"block": _BLOCK, "library": list(_TAGS)}


@pytest.fixture(scope="module")
def live_service():
    """One service; its session is also the in-process surface."""
    with ServiceThread(MappingService(port=0)) as thread:
        client = ServiceClient(thread.base_url)
        client.wait_healthy()
        yield thread.service, client


def _cli_json(capsys, *argv: str) -> bytes:
    assert main(list(argv)) == 0
    return capsys.readouterr().out.strip().encode("ascii")


class TestMapParity:
    def test_session_cli_service_and_legacy_agree(self, live_service, capsys):
        _service, client = live_service
        status, service_bytes = client.request_bytes("POST", "/v1/map", _PAYLOAD)
        assert status == 200

        session = _service.session
        session_bytes = session.map(_BLOCK, _TAGS).to_json()
        assert session_bytes == service_bytes

        cli_bytes = _cli_json(capsys, "map", _BLOCK, "--library", "lm_ih", "--json")
        assert cli_bytes == service_bytes

        block = session.catalog.block(_BLOCK)
        library = session.catalog.library(_TAGS)
        platform = session.catalog.platform("SA-1110")
        winner, matches = _map_block_search(block, library, platform)
        legacy_bytes = MapResult(
            request=MapRequest(block=_BLOCK, library=_TAGS),
            platform=platform,
            winner=winner,
            matches=tuple(matches),
        ).to_json()
        assert legacy_bytes == service_bytes


class TestParetoParity:
    def test_session_cli_and_service_agree(self, live_service, capsys):
        _service, client = live_service
        status, service_bytes = client.request_bytes("POST", "/v1/pareto", _PAYLOAD)
        assert status == 200

        session_bytes = _service.session.pareto(_BLOCK, _TAGS).to_json()
        assert session_bytes == service_bytes

        cli_bytes = _cli_json(capsys, "pareto", _BLOCK, "--library", "lm+ih", "--json")
        assert cli_bytes == service_bytes


class TestSweepParity:
    def test_session_cli_and_service_agree(self, live_service, capsys):
        _service, client = live_service
        payload = {"platforms": ["SA-1110"], "blocks": [_BLOCK]}
        status, service_bytes = client.request_bytes("POST", "/v1/sweep", payload)
        assert status == 200

        report = _service.session.sweep(platforms=["SA-1110"], blocks=[_BLOCK])
        assert report.to_json().encode("ascii") == service_bytes

        cli_bytes = _cli_json(
            capsys,
            "sweep",
            "--platforms",
            "SA-1110",
            "--blocks",
            _BLOCK,
            "--json",
        )
        assert cli_bytes == service_bytes


class TestWorkloadsParity:
    def test_cli_and_service_agree(self, live_service, capsys):
        """`repro workloads --json` is byte-for-byte `/v1/workloads`."""
        _service, client = live_service
        status, service_bytes = client.request_bytes("GET", "/v1/workloads")
        assert status == 200
        assert _cli_json(capsys, "workloads", "--json") == service_bytes


class TestNonMp3SweepParity:
    def test_gsm_sweep_session_cli_and_service_agree(self, live_service,
                                                     capsys):
        """The workload acceptance criterion: a non-MP3 sweep's bytes
        agree across session, CLI and service."""
        _service, client = live_service
        payload = {"platforms": ["SA-1110"], "workload": "gsm_mac"}
        status, service_bytes = client.request_bytes("POST", "/v1/sweep",
                                                     payload)
        assert status == 200

        report = _service.session.sweep(platforms=["SA-1110"],
                                        workload="gsm_mac")
        assert report.workload == "gsm_mac"
        assert report.to_json().encode("ascii") == service_bytes

        cli_bytes = _cli_json(capsys, "sweep", "--platforms", "SA-1110",
                              "--workload", "gsm_mac", "--json")
        assert cli_bytes == service_bytes
