"""The contract of the package's 13 public records: equality by type and
fields with a matching hash, no assignment, pickling, the Name(field=...)
repr, and the JSON that the command line prints for each."""

import json
import pickle

import pytest

from domrec import (
    Budget,
    CheckResult,
    ConnectivityProfile,
    D0SepEvidence,
    DomFamily,
    GkrLayout,
    Graph,
    InvariantReport,
    ProfileEntry,
    QkrLayout,
    ReconfigGraph,
    SepReport,
    StructureReport,
    build_dk,
    check_sep_equals_d0,
    connectivity_profile,
    enumerate_minimal_dominating,
    invariant_report,
    sep_bottleneck,
)
from domrec.io_cli import _plain, export_json

P4 = Graph(4, (0b10, 0b101, 0b1010, 0b100))  # the path 0-1-2-3

# Each record as the library builds it, and its JSON: the bytes that
# export_json(dataclasses.asdict(record)) printed while the records were
# dataclasses. The keys are the fields, in order.
CASES = {
    "Graph": (lambda: Graph(4, P4.adj), '{"n":4,"adj":[2,5,10,4],"closed":[3,7,14,12]}'),
    "Budget": (lambda: Budget(), '{"max_n":24}'),
    "DomFamily": (lambda: enumerate_minimal_dominating(P4),
                  '{"sets":[5,6,9,10],"gamma":2,"Gamma":2}'),
    "InvariantReport": (lambda: invariant_report(P4),
                        '{"gamma":2,"Gamma":2,"alpha":2,"ir":2,"num_minimal_dom_sets":4,'
                        '"well_covered":true,"well_dominated":true}'),
    "GkrLayout": (lambda: GkrLayout(3, 2), '{"k":3,"r":2}'),
    "QkrLayout": (lambda: QkrLayout(k=3, r=2), '{"k":3,"r":2}'),
    "CheckResult": (lambda: CheckResult("gamma-is-leaf-count-plus-one", True),
                    '{"name":"gamma-is-leaf-count-plus-one","passed":true,"detail":""}'),
    "StructureReport": (lambda: StructureReport(
        "gkr", 3, 1, 13, 2, 3, False,
        (CheckResult("Gamma-is-clique-size", False, "Gamma=4"), CheckResult("hub", True))),
        '{"construction":"gkr","k":3,"r":1,"family_size":13,"gamma":2,"Gamma":3,"ok":false,'
        '"checks":[{"name":"Gamma-is-clique-size","passed":false,"detail":"Gamma=4"},'
        '{"name":"hub","passed":true,"detail":""}]}'),
    "ReconfigGraph": (lambda: build_dk(P4, 3),
                      '{"k":3,"n":4,"verts":[5,6,9,10,7,11,13,14],"edges":[[0,4],[0,6],[1,4],'
                      '[1,7],[2,5],[2,6],[3,5],[3,7]],"component_count":1}'),
    "ProfileEntry": (lambda: ProfileEntry(k=2, order=4, size=3, connected=True,
                                          component_count=1),
                     '{"k":2,"order":4,"size":3,"connected":true,"component_count":1}'),
    "ConnectivityProfile": (lambda: connectivity_profile(P4),
                            '{"gamma":2,"n":4,"profile":[{"k":2,"order":4,"size":0,'
                            '"connected":false,"component_count":4},{"k":3,"order":8,"size":8,'
                            '"connected":true,"component_count":1},{"k":4,"order":9,"size":12,'
                            '"connected":true,"component_count":1}]}'),
    "SepReport": (lambda: sep_bottleneck(enumerate_minimal_dominating(P4)),
                  '{"sep":3,"witness_partition":[[0,2],[1,3]],"witness_pair":[5,6],'
                  '"method":"bottleneck"}'),
    "D0SepEvidence": (lambda: check_sep_equals_d0(P4), '{"d0":3,"sep":3,"agree":true}'),
}


def test_every_public_record_has_a_case():
    import domrec

    records = {name for name, obj in vars(domrec).items()
               if isinstance(obj, type) and obj.__module__.startswith("domrec.")
               and not issubclass(obj, Exception)}
    assert records == CASES.keys()


@pytest.mark.parametrize("name", CASES)
def test_records_keep_the_contract(name):
    make, expected = CASES[name]
    record, again = make(), make()
    fields = list(json.loads(expected))
    values = tuple(getattr(record, field) for field in fields)
    other = CASES["GkrLayout" if name == "QkrLayout" else "QkrLayout"][0]()

    assert record is not again and record == again and hash(record) == hash(again)
    assert record != other and record != values
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert getattr(record, fields[0]) == values[0]

    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(record) and restored == record

    assert repr(record) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    assert export_json(_plain(record)) == expected
