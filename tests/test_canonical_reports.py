"""Byte-identical canonical reports: the sha256 of the canonical JSON of every
shipped algebra and every bench/corpus.alg probe, at the declared precedence
("ship") and at the reversed one ("rev"), and of the solve text of the
algebras the solver splits most. The solve text lists every contradiction
with its path and reason, which the JSON does not, so it pins the order in
which the solver visits and kills branches.

A change meant to keep every report the same must keep these hashes. A change
that alters a report on purpose updates the hash here and says why.
"""

import hashlib
import os

import pytest

from weilaut.parsing import parse_specfile
from weilaut.report import analyze, build_report, canonical_json, render_solve_text
from weilaut.specdata import spec_path

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "corpus.alg")

SHA256 = {
    ("tangent2", "ship"): "9c4e1c97242190ffcfb9b0bd37d249a7a69aa0f1043793360c4033de75d9408b",
    ("tangent2", "rev"): "23c18d580e42bcda4cf9032abb81dbf4e53e0cc9b7c87f1883640b2e74192bbd",
    ("quartic", "ship"): "3bc08f1f24af6b9361b88d53ce37b29cf2e12b765743532c786a8410fd9782cf",
    ("quartic", "rev"): "accc465f27f0aa7daa7a35e9d8ece4ec09fcf36231571d9751eda178402f105b",
    ("sextic", "ship"): "0dc34035221aec70a4f93897a76fecaa1fc849b6bc208754fb4778f0e1b21e8b",
    ("sextic", "rev"): "7fb42e6266b819f0ed52a022258197511a4d6e1106e6eeef525de4a09cc77863",
    ("cusp", "ship"): "7f2403acdd8f54a677ed944ba8ad048c4095eb5a0cf8745a16882613ee9a73bc",
    ("cusp", "rev"): "cb16a14cc666657676ba4a4c973634e25cb644e0a9beb3b7e3c943334c5c821e",
    ("e6", "ship"): "8fe5a26feeec558527fcd4890b41d6a95ed932bd50b03cf4c6d4f843808ce149",
    ("e6", "rev"): "5b9867b98a0f30ee6483857cadfcaf49fdf38511ab552c295c1de0d5a542e371",
    ("tangent2_xy", "ship"): "cf33b81967cb2ba25d3933063f472930e6256735aebae4440ec0c7355c16c31a",
    ("tangent2_xy", "rev"): "6b67d26108490953dd40ff7ea3295e17e1d9ce0797bec9256bd927ca378d95f0",
    ("tan3", "ship"): "97488c0079026e9d3c7beb16aaeecc4fc81516a24f0b916908f04d5aed4df093",
    ("tan3", "rev"): "ff800a871101ba674a3b35ad4047e914f358b0d6fadedcbe378d869aaf377e48",
    ("tan4", "ship"): "79426d01e8bcfa2666e25a32c97fc1023a16e578a1d2ee53f1aed54d0f95e2a4",
    ("tan4", "rev"): "4617fdc27ac27724edf67d8e3eefb645dc9ac79040dbf171fc083faff81bc817",
    ("jet23", "ship"): "b27bd0bfc3c0a1a34fcc220742679827746dfd68372084c766fb61219b403391",
    ("jet23", "rev"): "4e21d594983ab673caf3f4c306123bf618e0f95ba60b7768a1596ca8fc969939",
    ("jet24", "ship"): "d0bf17e2b658f340da08f44e33adacd8e2a23ed4b5e9bb6844eee7a8b677798b",
    ("jet24", "rev"): "e7e4a897d0e4d82aec44302923d1bb19d8d3c6f1e7d5def14594edae93b3b892",
    ("jet32", "ship"): "8e58fab67ebecf2da3f3a18c51fb90ed66482122284ef9516ba249cf0e9e2197",
    ("jet32", "rev"): "aa38e2f2df2e3e18ea368b6e3214c7b3af36d3587547343a2c70989ebc54f6ba",
}

SOLVE_TEXT_SHA256 = {
    ("tangent2", "ship"): "f05a9c8b5ca124d2cd7075d3aa7eb3eddfd23cafdbd98902029a8583c2634d26",
    ("tangent2", "rev"): "56e36ada9f5434e222b3ab8e6202f235c28c299289e09cfc5018cf4398cad82d",
    ("quartic", "ship"): "a2c991d9a75979ffe11b52591d0da3fc633eccfc4d1106297a915e21a6e267b4",
    ("quartic", "rev"): "ffa246390f4109ab6bccded73a2ab805e13c3d798a0217c16a169b324453209b",
    ("sextic", "ship"): "12d5d2c99bc8b085faa38b6fa5ca19ecb136ad56e2ad20ba5b42b860552994e4",
    ("sextic", "rev"): "557d75aedbf64f0eb8d2b1c5b838bedd75b672b7d705101d432fe6bd0eb3763a",
    ("tan3", "ship"): "cd2f24a0f69e22c140e20179286a98e2baab0f76f95d39af1e52b0f2f7ad7356",
    ("tan3", "rev"): "1438c1461314eceb0c1127f83a60cc55e30682c2368416db04fd10acc5656427",
    # the reports differ (the basis order does), the solve texts do not
    ("tan4", "ship"): "3542a63ea27e905583527d1e898112f635c3f6c94907baaa75e474079e81333b",
    ("tan4", "rev"): "3542a63ea27e905583527d1e898112f635c3f6c94907baaa75e474079e81333b",
}


def specs():
    out = {}
    for name in ("tangent2", "quartic", "sextic"):
        with open(spec_path(name), encoding="utf-8") as fh:
            out[name] = parse_specfile(fh.read())[0]
    with open(CORPUS, encoding="utf-8") as fh:
        for spec in parse_specfile(fh.read()):
            out[spec.name] = spec
    return out


SPECS = specs()


def test_every_algebra_is_pinned():
    assert {name for name, _ in SHA256} == set(SPECS)


def spec_at(name, precedence):
    spec = SPECS[name]
    if precedence == "rev":
        spec = spec.with_precedence(tuple(reversed(spec.precedence or spec.variables)))
    return spec


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name, precedence", sorted(SHA256))
def test_canonical_report_hash(name, precedence):
    text = canonical_json(build_report(analyze(spec_at(name, precedence))))
    assert sha256(text) == SHA256[name, precedence]


@pytest.mark.parametrize("name, precedence", sorted(SOLVE_TEXT_SHA256))
def test_solve_text_hash(name, precedence):
    analysis = analyze(spec_at(name, precedence))
    text = render_solve_text(analysis, build_report(analysis))
    assert sha256(text) == SOLVE_TEXT_SHA256[name, precedence]
