"""Golden bytes for docs/FORMATS.md: ledger entries, sidecars, run reports.

A fixed six-node graph is run on a FileStore (cold FULL run, a context-edit
REPLAY, an artifact-edit REPLAY) and the sha256 of every file the store
writes is pinned; every schedule must leave the same bytes. Measured fields
(``elapsed`` and ``created_at``) are zeroed in the raw bytes first; nothing
else is normalised, so any change to key order, spacing, number rendering or
field content fails here.
"""

from __future__ import annotations

import hashlib
import random
import re

import pytest

from dagline.graph import (
    ARTIFACT_EDIT,
    CONTEXT_EDIT,
    ContextBinding,
    Edge,
    EditEvent,
    NodeSpec,
    PortDecl,
    WorkflowGraph,
)
from dagline.runtime import FULL, REPLAY, Workspace, apply_edit, run
from dagline.store import FileStore

MEASURED = re.compile(rb'"(elapsed|created_at)":[0-9.eE+-]+')


def golden_graph() -> WorkflowGraph:
    ctx = PortDecl("raw", "text", source="context")
    notes = PortDecl("notes", "markdown", source="context")

    def dep(name: str) -> PortDecl:
        return PortDecl(name, "text")

    return WorkflowGraph(
        [
            NodeSpec("ingest_a", "passthrough", {}, (ctx,), "text"),
            NodeSpec("ingest_b", "synthesis", {"instructions": "summarise b"}, (ctx,), "text"),
            NodeSpec("left", "synthesis", {"salt": 3}, (dep("src"),), "text"),
            NodeSpec("right", "synthesis", {"instructions": "ünïcode"}, (dep("src"), notes), "text"),
            NodeSpec("join", "synthesis", {"weights": [1, 2]}, (dep("left"), dep("right")), "text"),
            NodeSpec("report", "synthesis", {}, (dep("body"), dep("extra")), "text"),
        ],
        [
            Edge("ingest_a", "left", "src"),
            Edge("ingest_b", "right", "src"),
            Edge("left", "join", "left"),
            Edge("right", "join", "right"),
            Edge("join", "report", "body"),
            Edge("ingest_a", "report", "extra"),
        ],
    )


def store_digests(root) -> dict[str, str]:
    """sha256 of every file in the store, keyed by its path under the root,
    with measured fields zeroed."""
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            scrubbed = MEASURED.sub(lambda m: b'"' + m.group(1) + b'":0', path.read_bytes())
            digests[path.relative_to(root).as_posix()] = hashlib.sha256(scrubbed).hexdigest()
    return digests


def run_golden_session(root, **schedule) -> dict[str, str]:
    context = {
        ("ingest_a", "raw"): ContextBinding("raw", b"alpha MARK:A1 source", "text"),
        ("ingest_b", "raw"): ContextBinding("raw", b"beta MARK:B1 source", "text"),
        ("right", "notes"): ContextBinding("notes", "notes é MARK:N1".encode(), "markdown"),
    }
    workspace = Workspace(graph=golden_graph(), context=context, store=FileStore(root))
    run(workspace, FULL, run_id="0001-cold", **schedule)
    workspace, _ = apply_edit(workspace, EditEvent(
        CONTEXT_EDIT, "ingest_b", b"beta MARK:B2 revised", port="raw",
    ))
    run(workspace, REPLAY, run_id="0002-context-edit", **schedule)
    workspace, _ = apply_edit(workspace, EditEvent(ARTIFACT_EDIT, "left", b"pinned MARK:P1"))
    run(workspace, REPLAY, run_id="0003-artifact-edit", **schedule)
    return store_digests(root)


GOLDEN = {
    'executions/0c357e0ecbfbeaa41802685029c656cb1f15364c8b90da96994b709899014cc9': 'bd82ff915e01311054d4dc95489bd15286c1f8517450534bb04ce7344945f55f',
    'executions/0c8967d263a3b2b06577e81ed4be3d1a833aef4d234b2bf046e0d77f498a05f5': '36f0b63b0576ae43a3a699840e6885ef3ef8693a981f79da8f635b25e82c83ce',
    'executions/228156c11f6af63cc60787c40453ed59e95469c12185f411e73a1a84d04df1d1': 'da8ab3566300e1d857d5cc27d879fe0fbcc012281318d9c12498e137ffc8a2ee',
    'executions/3765171e45fe9d7cd3c886c94d2e79bd3c993bb0c7f7ec92b7e98eb15bea2598': 'a2caa66fb9852f903102e7899cf971e3caa8d72f524cfdf64ceff6a574553b67',
    'executions/387b039bce360523e5f6262a7a6d26d8d07864337b8d6142b0a406a1410c97ba': 'd85aeac94e0e273275b6703beda03d9e4c83020d78feb56b86e417a1b62443a3',
    'executions/4553d2cb95d75c2d58726a7f1b396239094326dd922a376e97dff59c945416f4': '6114b89c035f397e0a7f35c1654039b47af1c3727fff8a60d35fbcf7eae004f5',
    'executions/58f43f19334dc8dec186a93e2ed1adbc9e9896e0f3234a36cc8edf37690a4313': 'd3596b310067d345602c420bc2396fb20073fd59a6a657afc822fddcc150bc15',
    'executions/79985c5bee84d4b1793dc8326f3d69086ff91f28abe1401bbd342d981bab9e34': '38073de5f6eab9c702e5e8c876ee8afce1108856648d8f50f68eb4c2282cf2f2',
    'executions/bfc8ee2d0d1caec61d6bbaea7e52c4a0b6498b1c50a3fee5644bfc49c8072c44': '805ff82254ffa7411ade7fbca41fdd925dc8c90e32f35f5fdd1c828c65c7e630',
    'executions/de7dc92557a9f0b6b95a2281b96d56907fe6fdbe351302626ce13dce2dc0aaff': '935a46e64af690e5bd5a2397161b7e646e1554f8f409d9a60228d2b06737aa57',
    'executions/fcb87da19df95826dd81d153ca65fcd653df5da9706b7d22b88700bcbf55bb3b': '785378540f095c3dccd8a37821ae1ccb1754de8067a44e3be883a2f1161f989a',
    'executions/fea8190159d8aedbfa30eb0141678607593fe3fb52fc2526f55064a33b19a5b9': '67a977f771acacfacc427cd64477d0eec2cd5d360623eaa264dd66a44352c806',
    'nodes/ingest_a': '125ea72f4a2a54f33adbba94dc96f740eb06cd6533522f07f86aecc37315df71',
    'nodes/ingest_b': '610deb1103fbf01edb7e850e209238b52d92cae6661aa637c88f1423902cc478',
    'nodes/join': '1b9b7dbb201470ef6536793051fcf76fd8b32155696d9acbd8f75b4e391fb66b',
    'nodes/left': '9d64c472ae2b22e3303e9753ece12055a1ce341ac8ab0ff3c5c24f6f0bafb6f0',
    'nodes/report': '129f82872a1d462e2846c1429d78232629658e7aa65aba6bacadd84733c52e2e',
    'nodes/right': '118a596436a73f3627685448a6461ab50978b50bb554d581451eb1c8e5abeaa7',
    'objects/07/96bcbc6897c95bafb9872a8bf334734447dea3ee1d5b96e3c70e7c4acd6688': '0796bcbc6897c95bafb9872a8bf334734447dea3ee1d5b96e3c70e7c4acd6688',
    'objects/07/96bcbc6897c95bafb9872a8bf334734447dea3ee1d5b96e3c70e7c4acd6688.json': '484806024b1ed725b359ecd9f9ff42c5c1522e1bf9538175f0a336ca61982750',
    'objects/0e/a74b35fb13b0e64d80ee033a34254cdf95292588fd67fe8d215f242c971d32': '0ea74b35fb13b0e64d80ee033a34254cdf95292588fd67fe8d215f242c971d32',
    'objects/0e/a74b35fb13b0e64d80ee033a34254cdf95292588fd67fe8d215f242c971d32.json': '7bf15f81ab6c62d850bd3122d821fef3fefba29d7a7d43e52c2e46928b49e752',
    'objects/18/5446d3fbc648f63dd3246db9a2874c262dfc2d03e38e4303178b8bbe5495e7': '185446d3fbc648f63dd3246db9a2874c262dfc2d03e38e4303178b8bbe5495e7',
    'objects/18/5446d3fbc648f63dd3246db9a2874c262dfc2d03e38e4303178b8bbe5495e7.json': '78ea740c5630e0afe38c8ada0494faf678be047e9e58ec668a30960971ca5d56',
    'objects/20/c5c790d47d172f79e985e5e5d79da09cf7267fa472c355cba67fd5f1f13c89': '20c5c790d47d172f79e985e5e5d79da09cf7267fa472c355cba67fd5f1f13c89',
    'objects/20/c5c790d47d172f79e985e5e5d79da09cf7267fa472c355cba67fd5f1f13c89.json': 'eba6c29e1868386db84d7a200fea598f0958f54086146685106fda1880b53ac7',
    'objects/33/d016a218c79e469e0e4cddc57eca162525ef958b243c63ee8b0501c0f12a12': '33d016a218c79e469e0e4cddc57eca162525ef958b243c63ee8b0501c0f12a12',
    'objects/33/d016a218c79e469e0e4cddc57eca162525ef958b243c63ee8b0501c0f12a12.json': 'f3438dbff621c82290e4d9fb203eb30c922798f173693d339ad272f7db741e39',
    'objects/3a/2f923ae1eb126eaf3ac57771a08bf427778baf51b1418ffa77556b8e33ad61': '3a2f923ae1eb126eaf3ac57771a08bf427778baf51b1418ffa77556b8e33ad61',
    'objects/3a/2f923ae1eb126eaf3ac57771a08bf427778baf51b1418ffa77556b8e33ad61.json': '8f57951ace854be8658475a1ddf40f871ea3098008b78f78779768cca57522af',
    'objects/45/5e4fa3db8c787430c21aa55736f1c2603be8dd5e51851add3ae14640cef589': '455e4fa3db8c787430c21aa55736f1c2603be8dd5e51851add3ae14640cef589',
    'objects/45/5e4fa3db8c787430c21aa55736f1c2603be8dd5e51851add3ae14640cef589.json': '448fe0d2998d7c5fce5b328696c3156972cc28d5d8f7052939cc20fa4793f66a',
    'objects/4d/e00567d45e532c05cdfe3b6e7e7ebdbfbee9293090ef75b65167f42e10f85a': '4de00567d45e532c05cdfe3b6e7e7ebdbfbee9293090ef75b65167f42e10f85a',
    'objects/4d/e00567d45e532c05cdfe3b6e7e7ebdbfbee9293090ef75b65167f42e10f85a.json': '3819e3d4f629de39f1637810b7a25df0e23f0fb8cc6c4bf26b9bf28c186d6b23',
    'objects/64/db06b9017702241e6005834318f03860978f5501952b8d32e22c28bf109009': '64db06b9017702241e6005834318f03860978f5501952b8d32e22c28bf109009',
    'objects/64/db06b9017702241e6005834318f03860978f5501952b8d32e22c28bf109009.json': '5f7ea19cb8d08455ac34c8c1ce75b7d3d20fcc29f669f91f9771642a464d6675',
    'objects/80/fa227906ec41bfe55b83b032a18edc814dd53165b3bd9c6abd89cee930bdfb': '80fa227906ec41bfe55b83b032a18edc814dd53165b3bd9c6abd89cee930bdfb',
    'objects/80/fa227906ec41bfe55b83b032a18edc814dd53165b3bd9c6abd89cee930bdfb.json': '91ec0598bc5dd70932f85ff6043bf3ef5c467e77558702231cf59c9876a1141e',
    'objects/a8/5ee9c791fec6dfbd0121700572e41d2e9e9b1c92bc107c3821e016d54cbdef': 'a85ee9c791fec6dfbd0121700572e41d2e9e9b1c92bc107c3821e016d54cbdef',
    'objects/a8/5ee9c791fec6dfbd0121700572e41d2e9e9b1c92bc107c3821e016d54cbdef.json': '30bfde28c3cc49ca118528b499552eb2e0a69b1bc7dcbb69defdd374b5830d33',
    'objects/c6/f37d3018c1828b983bbff84d6aed885e0602997e8ed3ec5f9a3d0fe4fe67c2': 'c6f37d3018c1828b983bbff84d6aed885e0602997e8ed3ec5f9a3d0fe4fe67c2',
    'objects/c6/f37d3018c1828b983bbff84d6aed885e0602997e8ed3ec5f9a3d0fe4fe67c2.json': '83130a3bd87a357f8fbe1a28556d4e0adb33423fe77c96974814b0434e3ba6bf',
    'objects/ce/b33ea47c07cfddefcafafe5fab86fbed0633c54f65a1a2f9842ee94c7f297b': 'ceb33ea47c07cfddefcafafe5fab86fbed0633c54f65a1a2f9842ee94c7f297b',
    'objects/ce/b33ea47c07cfddefcafafe5fab86fbed0633c54f65a1a2f9842ee94c7f297b.json': 'e68c91115879f642d06ce1b4ff02f7502c402b0f596391bdd5bc36aa51120a7c',
    'runs/0001-cold/report': '8783383c6599210293a023a963a0e0704126c79856caa8aed978682a634d3cbf',
    'runs/0002-context-edit/report': '25b17e8eb5f81c716efdab904c633cbffac5db7983fa3995ea3ffbb30d4f3bca',
    'runs/0003-artifact-edit/report': '2d99d68005e0b49cc6577887ac0e0e346d897b7fc3bb8b3dcd35a221251bcef3',
}


@pytest.mark.parametrize("schedule", ["default", "rng"])
def test_store_bytes_match_golden(tmp_path, schedule):
    kwargs = {
        "default": {},
        "rng": {"schedule_rng": random.Random(7)},
    }[schedule]
    assert run_golden_session(tmp_path / "store", **kwargs) == GOLDEN
